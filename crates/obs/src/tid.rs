//! Small stable per-thread ordinals.
//!
//! `std::thread::ThreadId` has no public integer form; traces and flight
//! recorder dumps want a compact id that is stable for the lifetime of
//! the thread and dense enough to read. Ordinals are handed out in
//! first-use order from a process-wide counter.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering};

static NEXT_ORDINAL: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static ORDINAL: Cell<Option<u64>> = const { Cell::new(None) };
    static LABEL: RefCell<Option<String>> = const { RefCell::new(None) };
}

/// The calling thread's ordinal, assigned on first use.
pub fn thread_ordinal() -> u64 {
    ORDINAL.with(|slot| match slot.get() {
        Some(id) => id,
        None => {
            let id = NEXT_ORDINAL.fetch_add(1, Ordering::Relaxed);
            slot.set(Some(id));
            id
        }
    })
}

/// Names the calling thread for trace exports (e.g. `worker-3`, the
/// stable pool ordinal). Chrome-trace exports of [`crate::EventLog`]
/// render the label as the thread's lane name instead of the raw
/// ordinal; a log reads it when the thread first logs, so set it before
/// that. Last set wins; the label dies with the thread.
pub fn set_thread_label(label: impl Into<String>) {
    let label = label.into();
    LABEL.with(|slot| *slot.borrow_mut() = Some(label));
}

/// The calling thread's label, if one was set.
pub fn thread_label() -> Option<String> {
    LABEL.with(|slot| slot.borrow().clone())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stable_within_thread_distinct_across_threads() {
        let mine = thread_ordinal();
        assert_eq!(mine, thread_ordinal());
        let theirs = std::thread::spawn(thread_ordinal).join().unwrap();
        assert_ne!(mine, theirs);
    }

    #[test]
    fn labels_are_per_thread() {
        let worker = std::thread::spawn(|| {
            set_thread_label("worker-0");
            thread_label()
        })
        .join()
        .unwrap();
        assert_eq!(worker.as_deref(), Some("worker-0"));
        assert_eq!(thread_label(), None, "label does not leak across threads");
    }
}
