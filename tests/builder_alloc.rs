//! Allocation guard for the trace builder's append path.
//!
//! Exploration grows one computation along a schedule, rolls it back to a
//! mark and regrows the next sibling branch. Once the deepest branch has
//! been grown, regrowing a suffix of the same shape must not touch the
//! heap: the builder's journals keep their capacity, the reachability rows
//! rolled back stay allocated as spares and the edge update works in
//! scratch buffers the order owns.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use gem::core::{ComputationBuilder, ElementId, EventId, Structure};

/// Counts allocations per thread, so tests running in parallel on other
/// threads cannot perturb a measurement.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: the counter may be gone while the thread is torn down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees are the caller's; counting only touches a
// const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Appends `n` events round-robin over `els` (empty params), each enabled
/// by the previous event and every third one also by the event three back
/// — one or two enable edges per event, the shape a simulator step emits.
fn grow(b: &mut ComputationBuilder, els: &[ElementId], class: gem::core::ClassId, n: usize) {
    for i in 0..n {
        let before = b.event_count();
        let e = b
            .add_event(els[i % els.len()], class, Vec::new())
            .expect("event");
        if before > 0 {
            b.enable(EventId::from_raw(before as u32 - 1), e)
                .expect("edge");
        }
        if i % 3 == 0 && before >= 3 {
            b.enable(EventId::from_raw(before as u32 - 3), e)
                .expect("edge");
        }
    }
}

#[test]
fn regrowing_a_rolled_back_suffix_does_not_allocate() {
    let mut s = Structure::new();
    let act = s.add_class("Act", &[]).expect("class");
    let els: Vec<_> = (0..4)
        .map(|i| s.add_element(format!("P{i}"), &[act]).expect("element"))
        .collect();
    let mut b = ComputationBuilder::new(s);
    grow(&mut b, &els, act, 20);
    let mark = b.mark();
    let prefix_fp = b.fingerprint();

    // First branch: allocates the rows and journal capacity.
    grow(&mut b, &els, act, 100);
    let grown_fp = b.fingerprint();
    b.truncate_to(&mark);
    assert_eq!(b.fingerprint(), prefix_fp);

    // Sibling branch of the same shape: nothing left to allocate.
    let before = allocs();
    grow(&mut b, &els, act, 100);
    let during = allocs() - before;
    assert_eq!(
        during, 0,
        "regrowing a 100-event suffix allocated {during} time(s)"
    );
    assert_eq!(b.fingerprint(), grown_fp);
    assert_eq!(b.event_count(), 120);
}
