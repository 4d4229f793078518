//! Thread-local ambient probe.
//!
//! Deep layers (formula evaluation, transitive-closure construction,
//! history materialization) sit below every public API; threading a
//! probe argument through them would churn dozens of signatures. They
//! record into the *ambient* probe instead: a thread-local slot a caller
//! installs around a sweep (see `gem-verify`). When nothing is
//! installed anywhere, the fast path is a single relaxed atomic load —
//! and instrumented layers batch their counts, so even the slow path is
//! per-call, not per-item.

use std::cell::RefCell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use crate::probe::Probe;

/// Count of installed guards across all threads; lets the fast path skip
/// the thread-local lookup entirely when no probe exists anywhere.
static INSTALLED: AtomicUsize = AtomicUsize::new(0);

/// Count of installed guards whose probe wants timer and histogram
/// samples ([`Probe::wants_timings`]).
static TIMED: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static CURRENT: RefCell<Vec<Arc<dyn Probe>>> = const { RefCell::new(Vec::new()) };
}

/// Uninstalls on drop. Not `Send`: the probe must be uninstalled on the
/// thread that installed it.
pub struct AmbientGuard {
    /// Whether the probe counted towards [`timings_active`].
    timed: bool,
    _not_send: std::marker::PhantomData<*const ()>,
}

/// Installs `probe` as this thread's ambient probe until the returned
/// guard drops. Nested installs shadow (innermost wins), mirroring span
/// nesting.
pub fn install(probe: Arc<dyn Probe>) -> AmbientGuard {
    let timed = probe.wants_timings();
    CURRENT.with(|c| c.borrow_mut().push(probe));
    INSTALLED.fetch_add(1, Ordering::Relaxed);
    if timed {
        TIMED.fetch_add(1, Ordering::Relaxed);
    }
    AmbientGuard {
        timed,
        _not_send: std::marker::PhantomData,
    }
}

impl Drop for AmbientGuard {
    fn drop(&mut self) {
        INSTALLED.fetch_sub(1, Ordering::Relaxed);
        if self.timed {
            TIMED.fetch_sub(1, Ordering::Relaxed);
        }
        CURRENT.with(|c| {
            c.borrow_mut().pop();
        });
    }
}

/// True if some thread has an ambient probe installed (cheap pre-check).
#[inline]
pub fn active() -> bool {
    INSTALLED.load(Ordering::Relaxed) != 0
}

/// True if some thread has an ambient probe installed that wants timer
/// and histogram samples ([`Probe::wants_timings`]). Instrumented code
/// reads the clock for [`time_ns`] only then, and [`time_ns`] and
/// [`record`] forward nothing otherwise.
#[inline]
pub fn timings_active() -> bool {
    TIMED.load(Ordering::Relaxed) != 0
}

#[inline]
fn with_current(f: impl FnOnce(&dyn Probe)) {
    if !active() {
        return;
    }
    CURRENT.with(|c| {
        if let Some(p) = c.borrow().last() {
            f(p.as_ref());
        }
    });
}

/// Increments counter `name` on the ambient probe, if any.
#[inline]
pub fn add(name: &str, delta: u64) {
    with_current(|p| p.add(name, delta));
}

/// Raises gauge `name` on the ambient probe, if any.
#[inline]
pub fn gauge_max(name: &str, value: u64) {
    with_current(|p| p.gauge_max(name, value));
}

/// Sets gauge `name` on the ambient probe, if any.
#[inline]
pub fn gauge_set(name: &str, value: u64) {
    with_current(|p| p.gauge_set(name, value));
}

/// Records a duration on the ambient probe, if any.
#[inline]
pub fn time_ns(name: &str, nanos: u64) {
    if timings_active() {
        with_current(|p| p.time_ns(name, nanos));
    }
}

/// Folds one sample into histogram `name` on the ambient probe, if any.
#[inline]
pub fn record(name: &str, value: u64) {
    if timings_active() {
        with_current(|p| p.record(name, value));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::StatsProbe;

    #[test]
    fn records_only_while_installed() {
        add("before", 1); // discarded: nothing installed
        let stats = Arc::new(StatsProbe::new());
        {
            let _g = install(stats.clone());
            assert!(active());
            add("during", 2);
            gauge_max("depth", 5);
            time_ns("t", 100);
            record("h", 9);
        }
        add("after", 3); // discarded again
        let r = stats.report();
        assert_eq!(r.counters.get("before"), None);
        assert_eq!(r.counters["during"], 2);
        assert_eq!(r.counters.get("after"), None);
        assert_eq!(r.gauges["depth"], 5);
        assert_eq!(r.timers["t"].count, 1);
        assert_eq!(r.hists["h"].count(), 1);
    }

    #[test]
    fn timings_are_active_under_a_probe_that_wants_them() {
        let all = Arc::new(StatsProbe::new());
        {
            let _g = install(all.clone());
            assert!(timings_active());
            record("h", 1);
            time_ns("t", 5);
        }
        let r = all.report();
        assert_eq!(r.hists["h"].count(), 1);
        assert_eq!(r.timers["t"].total_ns, 5);
    }

    #[test]
    fn nested_installs_shadow() {
        let outer = Arc::new(StatsProbe::new());
        let inner = Arc::new(StatsProbe::new());
        let _g1 = install(outer.clone());
        {
            let _g2 = install(inner.clone());
            add("n", 1);
        }
        add("n", 1);
        assert_eq!(inner.counter("n"), 1);
        assert_eq!(outer.counter("n"), 1);
    }
}
