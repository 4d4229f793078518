//! Small stable per-thread ordinals.
//!
//! `std::thread::ThreadId` has no public integer form; traces and flight
//! recorder dumps want a compact id that is stable for the lifetime of
//! the thread and dense enough to read. Ordinals are handed out in
//! first-use order from a process-wide counter.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

static NEXT_ORDINAL: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static ORDINAL: Cell<Option<u64>> = const { Cell::new(None) };
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
}
