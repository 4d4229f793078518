//! Parallel schedule exploration with serial-identical results.
//!
//! [`Explorer::par_for_each_run`] splits the schedule trie at
//! [`Explorer::split_depth`] into subtree work items and drains them with
//! a `std::thread` work pool of [`Explorer::jobs`] workers. Every walk
//! involved is the one schedule walker of the `explore` module; this
//! module only adds two `Walk` impls and an *ordered commit* protocol,
//! which makes the result equal to the serial oracle by construction:
//!
//! * The **frontier** walk runs on the calling thread, uncapped, down to
//!   the split depth in DFS order. It undoes its edges like the serial
//!   walk and clones state only when it cuts a subtree into a work item,
//!   so items are indexed by the lexicographic position of their subtree
//!   root. Each item carries the accounting ops (trie edges and, under
//!   [`Explorer::reduce`], sleep-set skips) the walk performed since the
//!   previous item (its `lead`), and the sleep set inherited at its root.
//! * **Workers** claim items in index order and walk each subtree
//!   speculatively with purely *local* budgets, streaming every maximal
//!   run — terminal state, full action path, and the ops performed since
//!   the previous run — over a bounded per-item channel.
//! * The calling thread *commits* items strictly in index order by
//!   replaying the streams through the serial walk's own accounting:
//!   step and run budgets, truncation causes, the depth high-water mark,
//!   per-run probe flushes, and the visitor itself all execute on the
//!   calling thread in exactly the order the serial walk produces them.
//!
//! Consequences: the visited run multiset (and order), [`ExploreStats`],
//! early-abort behaviour, and the probe counter sequence are identical to
//! [`Explorer::for_each_run`] for every `jobs`/`split_depth` setting, and
//! the visitor needs no `Send`/`Sync` bound. Since every trie edge is
//! applied, and undone, exactly once by either the frontier or one worker,
//! system-internal step histograms match the serial sweep's too.
//! Speculative work past a global budget is cut short by a cancellation
//! flag plus channel hang-up. State pruning (`prune: true`) needs a
//! shared seen-set whose hit pattern is schedule-order-dependent, so it
//! falls back to the serial path.

use std::convert::Infallible;
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{self, SyncSender};
use std::sync::Mutex;
use std::time::Instant;

use gem_obs::ambient::{self, GaugeWrite};
use gem_obs::{set_thread_label, NoopProbe, Probe};

use crate::explore::{walk, ExploreStats, Explorer, Serial, System, Walk};

/// Worker stacks match the serial caller's headroom: the subtree DFS
/// recurses up to `max_depth` frames (10k by default).
const WORKER_STACK: usize = 32 * 1024 * 1024;

/// Per-item channel bound: backpressure that caps speculative memory at
/// roughly `jobs × ITEM_CHANNEL_CAP` in-flight runs.
const ITEM_CHANNEL_CAP: usize = 128;

/// One run-length-encoded slice of the serial explorer's accounting
/// stream: trie edges (step debit plus run check each) and sleep-set
/// skips (a `sleep_skipped` credit, never a budget event). Workers and
/// the frontier walk record these; the committer replays them in order.
#[derive(Clone, Copy, Debug)]
enum ReplayOp {
    /// `n` consecutive trie edges.
    Edges(usize),
    /// `n` enabled actions skipped by the sleep set at one node.
    Skips(usize),
    /// One trie edge whose child-sleep filter made independence-oracle
    /// queries. Kept separate from [`ReplayOp::Edges`] (and never
    /// merged) because the serial DFS counts an edge's oracle answers
    /// *after* that edge's step-cap check — a truncated replay must not
    /// attribute queries for edges the serial search never attempted.
    OracleEdge {
        /// Queries answered "independent" at this edge.
        grants: u32,
        /// Queries answered "dependent" at this edge.
        denials: u32,
    },
}

/// Appends `op` to an op stream, merging into the previous op when both
/// are the same kind (keeps streams short without reordering anything).
/// `OracleEdge` ops never merge: each carries per-edge counts that must
/// replay at their own step-cap boundary.
fn push_op(ops: &mut Vec<ReplayOp>, op: ReplayOp) {
    match (ops.last_mut(), op) {
        (Some(ReplayOp::Edges(n)), ReplayOp::Edges(m)) => *n += m,
        (Some(ReplayOp::Skips(n)), ReplayOp::Skips(m)) => *n += m,
        (_, op) => ops.push(op),
    }
}

/// Records one trie edge whose child-sleep filter was just computed:
/// a plain edge when no oracle queries were made, an [`ReplayOp::OracleEdge`]
/// carrying the per-edge answer counts otherwise.
fn edge_op(grants: usize, denials: usize) -> ReplayOp {
    if grants + denials == 0 {
        ReplayOp::Edges(1)
    } else {
        ReplayOp::OracleEdge {
            grants: grants as u32,
            denials: denials as u32,
        }
    }
}

/// Per-item worker telemetry, shipped with the item's tail and emitted
/// by the committer under `worker.<k>.*` probe keys. Collected only when
/// the explicit probe is enabled, so the Noop path pays nothing.
struct ItemTelemetry {
    /// Stable pool ordinal of the worker that ran the item (the `k` in
    /// `worker.<k>.*` and the `worker-<k>` trace lane).
    worker: usize,
    /// Trie edges applied in the subtree, speculation included — on
    /// exhaustive uncancelled sweeps these sum (with
    /// `explore.frontier.steps`) to the serial `explore.steps`.
    steps: u64,
    /// Maximal runs streamed — on exhaustive uncancelled sweeps these
    /// sum to the serial `explore.runs`.
    leaves: u64,
    /// Nanoseconds spent exploring (item wall time minus send blocks).
    busy_ns: u64,
    /// Nanoseconds blocked sending leaves to the committer.
    idle_ns: u64,
    /// Per-leaf send-block durations, folded into the
    /// `worker.<k>.commit_lag_ns` histogram at commit.
    lag_ns: Vec<u64>,
}

/// One frontier subtree, identified by its DFS (lexicographic) position.
struct WorkItem<S: System> {
    /// State at the subtree root.
    state: S::State,
    /// Actions from the system's initial state to the subtree root.
    prefix: Vec<S::Action>,
    /// Accounting ops the frontier walk performed since emitting the
    /// previous item; the committer replays them before this item's runs.
    lead: Vec<ReplayOp>,
    /// Sleep set inherited at the subtree root (empty unless
    /// [`Explorer::reduce`]). Unfiltered: the worker's own node-entry
    /// partition intersects it with the enabled set.
    sleep: Vec<S::Action>,
}

/// Worker → committer message for one item's stream.
enum Msg<S: System> {
    /// One maximal run of the subtree, in subtree DFS order.
    Leaf {
        /// Accounting ops since the previous leaf (or since the subtree
        /// root, for the first leaf).
        pre: Vec<ReplayOp>,
        /// True if the run was cut at [`Explorer::max_depth`] while
        /// actions were still enabled.
        depth_limited: bool,
        /// Full action path from the initial state.
        path: Vec<S::Action>,
        /// Terminal state of the run.
        state: S::State,
    },
    /// End of the item's stream.
    Tail {
        /// Accounting ops after the last leaf (speculative overshoot of a
        /// local budget, or trailing fully-slept nodes; empty when the
        /// subtree was exhausted without either).
        post: Vec<ReplayOp>,
        /// False if a local budget stopped the worker with unexplored
        /// edges remaining in the subtree.
        finished: bool,
        /// Worker attribution for the item (`None` when the probe is
        /// disabled).
        telemetry: Option<ItemTelemetry>,
        /// Gauge writes deferred by [`ambient::defer_gauges`], replayed
        /// by the committer in item order (empty without an ambient
        /// probe).
        gauges: Vec<GaugeWrite>,
    },
}

/// Collects the work items by walking the trie down to the split depth in
/// DFS order, plus the trailing ops performed after the last item (under
/// reduction a subtree can be pruned entirely, leaving edges and skips
/// with no following item). Every op of the walk is charged to exactly
/// one item's `lead` or to the tail, so the committer's replayed sequence
/// equals the serial explorer's.
fn build_frontier<S: System>(explorer: &Explorer, sys: &S) -> (Vec<WorkItem<S>>, Vec<ReplayOp>) {
    let mut frontier = Frontier {
        explorer,
        ops: Vec::new(),
        items: Vec::new(),
    };
    let _ = walk(
        explorer,
        sys,
        &mut frontier,
        &mut sys.initial(),
        &mut Vec::new(),
        &mut Vec::new(),
        0,
    );
    (frontier.items, frontier.ops)
}

/// The frontier's [`Walk`]: uncapped (the committer replays budgets),
/// recording its ops, and cut into a work item at the split depth, at
/// the depth bound, or at a leaf above both.
struct Frontier<'a, S: System> {
    explorer: &'a Explorer,
    /// Ops since the last emitted item.
    ops: Vec<ReplayOp>,
    items: Vec<WorkItem<S>>,
}

impl<S: System> Frontier<'_, S> {
    /// Emits the subtree at `state` as the next work item; the one clone
    /// of the frontier's state.
    fn emit(&mut self, state: &S::State, path: &[S::Action], sleep: Vec<S::Action>) {
        self.items.push(WorkItem {
            state: state.clone(),
            prefix: path.to_vec(),
            lead: std::mem::take(&mut self.ops),
            sleep,
        });
    }
}

impl<S: System> Walk<S> for Frontier<'_, S> {
    type Stop = Infallible;

    fn enter(
        &mut self,
        state: &S::State,
        path: &[S::Action],
        sleep: &[S::Action],
    ) -> ControlFlow<Infallible, bool> {
        // Cut before the `enabled` scan: the worker makes it, and a second
        // scan here would double the node's probe samples.
        if path.len() >= self.explorer.split_depth || path.len() >= self.explorer.max_depth {
            self.emit(state, path, sleep.to_vec());
            return ControlFlow::Continue(false);
        }
        ControlFlow::Continue(true)
    }

    fn leaf(&mut self, state: &S::State, path: &[S::Action], _: bool) -> ControlFlow<Infallible> {
        // A dead end above the split depth: its run is committed in DFS
        // order like any other, so it travels as a (one-leaf) item.
        self.emit(state, path, Vec::new());
        ControlFlow::Continue(())
    }

    fn skips(&mut self, n: usize) {
        push_op(&mut self.ops, ReplayOp::Skips(n));
    }

    fn edge(&mut self, grants: usize, denials: usize) {
        push_op(&mut self.ops, edge_op(grants, denials));
    }
}

/// Why a worker's subtree walk ended early.
enum Stop {
    /// A local budget fired; the subtree has unexplored edges.
    Truncated,
    /// Cancelled or the committer hung up; send nothing further.
    Abort,
}

/// A worker's [`Walk`] over one item: local budgets counted from the
/// subtree root, charged ops, and leaves streamed to the committer. Local
/// caps equal the global caps, so a worker always streams at least as
/// many runs as the committer's global replay can consume.
struct Worker<'a, S: System> {
    explorer: &'a Explorer,
    sys: &'a S,
    cancel: &'a AtomicBool,
    tx: SyncSender<Msg<S>>,
    runs: usize,
    steps: usize,
    pending_ops: Vec<ReplayOp>,
    /// Stable pool ordinal, for `worker.<k>.*` attribution.
    worker: usize,
    /// True when the explicit probe is enabled: collect per-item
    /// telemetry (timestamps and commit-lag samples).
    telemetry: bool,
    /// Nanoseconds this item's leaf sends blocked on the committer.
    idle_ns: u64,
    /// Per-leaf send-block durations for the commit-lag histogram.
    lag_ns: Vec<u64>,
}

impl<S: System> Worker<'_, S> {
    fn run_item(mut self, item: WorkItem<S>) {
        let started = self.telemetry.then(Instant::now);
        let mut path = item.prefix;
        let mut state = item.state;
        let (explorer, sys) = (self.explorer, self.sys);
        // The item's inherited sleep set seeds the walk's sleep stack.
        let mut sleep = item.sleep;
        let finished = match walk(
            explorer, sys, &mut self, &mut state, &mut path, &mut sleep, 0,
        ) {
            ControlFlow::Continue(()) => true,
            ControlFlow::Break(Stop::Truncated) => false,
            ControlFlow::Break(Stop::Abort) => return,
        };
        let telemetry = started.map(|t0| {
            let total = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
            // One duration slice per work item, emitted from the worker
            // thread itself so trace sinks can draw per-worker lanes
            // (gaps between slices are idle/commit-lag time). Timers are
            // outside the report determinism contract, so this par-only
            // key never enters serial-vs-parallel comparisons.
            ambient::time_ns("worker.item", total);
            ItemTelemetry {
                worker: self.worker,
                steps: self.steps as u64,
                leaves: self.runs as u64,
                busy_ns: total.saturating_sub(self.idle_ns),
                idle_ns: self.idle_ns,
                lag_ns: std::mem::take(&mut self.lag_ns),
            }
        });
        let _ = self.tx.send(Msg::Tail {
            post: std::mem::take(&mut self.pending_ops),
            finished,
            telemetry,
            gauges: ambient::take_deferred_gauges(),
        });
    }
}

impl<S: System> Walk<S> for Worker<'_, S> {
    type Stop = Stop;

    fn enter(&mut self, _: &S::State, _: &[S::Action], _: &[S::Action]) -> ControlFlow<Stop, bool> {
        if self.cancel.load(Ordering::Relaxed) {
            return ControlFlow::Break(Stop::Abort);
        }
        ControlFlow::Continue(true)
    }

    fn run_cap(&mut self) -> ControlFlow<Stop> {
        if self.runs >= self.explorer.max_runs {
            return ControlFlow::Break(Stop::Truncated);
        }
        ControlFlow::Continue(())
    }

    fn step_cap(&mut self) -> ControlFlow<Stop> {
        if self.steps >= self.explorer.max_steps {
            return ControlFlow::Break(Stop::Truncated);
        }
        ControlFlow::Continue(())
    }

    fn leaf(
        &mut self,
        state: &S::State,
        path: &[S::Action],
        depth_limited: bool,
    ) -> ControlFlow<Stop> {
        let msg = Msg::Leaf {
            pre: std::mem::take(&mut self.pending_ops),
            depth_limited,
            path: path.to_vec(),
            state: state.clone(),
        };
        if self.telemetry {
            // Commit lag: how long this leaf blocked on the bounded
            // channel waiting for the committer to catch up.
            let t0 = Instant::now();
            if self.tx.send(msg).is_err() {
                return ControlFlow::Break(Stop::Abort);
            }
            let lag = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
            self.idle_ns = self.idle_ns.saturating_add(lag);
            self.lag_ns.push(lag);
        } else if self.tx.send(msg).is_err() {
            return ControlFlow::Break(Stop::Abort);
        }
        self.runs += 1;
        ControlFlow::Continue(())
    }

    fn skips(&mut self, n: usize) {
        push_op(&mut self.pending_ops, ReplayOp::Skips(n));
    }

    fn edge(&mut self, grants: usize, denials: usize) {
        self.steps += 1;
        push_op(&mut self.pending_ops, edge_op(grants, denials));
    }
}

/// Replays one trie edge on the committer's serial accounting, in the
/// walker's order: step cap before the edge, the edge with its oracle
/// answers, then the run cap at entry to the node it leads into.
fn replay_edge<S: System>(
    c: &mut impl Walk<S, Stop = ()>,
    grants: usize,
    denials: usize,
) -> ControlFlow<()> {
    c.step_cap()?;
    c.edge(grants, denials);
    c.run_cap()
}

/// Replays an op stream: edges debit budgets (and may fire a bound, which
/// stops the replay exactly where serial would have stopped — any trailing
/// ops belong to nodes serial never reached); skips only credit
/// `sleep_skipped`, never a budget event, matching the serial partition.
fn replay_ops<S: System>(c: &mut impl Walk<S, Stop = ()>, ops: &[ReplayOp]) -> ControlFlow<()> {
    for op in ops {
        match *op {
            ReplayOp::Edges(n) => {
                for _ in 0..n {
                    replay_edge(c, 0, 0)?;
                }
            }
            ReplayOp::Skips(n) => c.skips(n),
            ReplayOp::OracleEdge { grants, denials } => {
                replay_edge(c, grants as usize, denials as usize)?;
            }
        }
    }
    ControlFlow::Continue(())
}

/// Trie edges in an op stream, for frontier-walk step attribution
/// (`explore.frontier.steps`). Skips are not edges.
fn op_edges(ops: &[ReplayOp]) -> u64 {
    ops.iter()
        .map(|op| match *op {
            ReplayOp::Edges(n) => n as u64,
            ReplayOp::Skips(_) => 0,
            ReplayOp::OracleEdge { .. } => 1,
        })
        .sum()
}

/// Emits one item's worker attribution at commit: `worker.<k>.*`
/// counters plus per-leaf commit-lag histogram samples. On exhaustive
/// uncancelled sweeps `Σ worker.<k>.steps + explore.frontier.steps`
/// equals the serial `explore.steps` and `Σ worker.<k>.leaves` equals
/// the serial `explore.runs`; truncated or aborted commits may leave
/// speculative worker steps uncommitted or tails unreceived.
fn emit_telemetry(probe: &dyn Probe, t: &ItemTelemetry) {
    let k = t.worker;
    probe.add(&format!("worker.{k}.items"), 1);
    probe.add(&format!("worker.{k}.steps"), t.steps);
    probe.add(&format!("worker.{k}.leaves"), t.leaves);
    probe.add(&format!("worker.{k}.busy_ns"), t.busy_ns);
    probe.add(&format!("worker.{k}.idle_ns"), t.idle_ns);
    let key = format!("worker.{k}.commit_lag_ns");
    for &v in &t.lag_ns {
        probe.record(&key, v);
    }
}

impl Explorer {
    /// Resolves [`Explorer::jobs`]: `0` means the machine's available
    /// parallelism (at least 1).
    pub fn effective_jobs(&self) -> usize {
        if self.jobs == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            self.jobs
        }
    }

    /// Parallel [`Explorer::for_each_run`]: visits the identical run
    /// multiset, in the identical (serial DFS) order, with identical
    /// [`ExploreStats`] and early-abort behaviour, using
    /// [`Explorer::jobs`] worker threads. With `jobs == 1` (the default)
    /// this *is* the serial explorer. See the `par` module source for
    /// the ordered-commit protocol.
    pub fn par_for_each_run<S>(
        &self,
        sys: &S,
        visit: impl FnMut(&S::State, &[S::Action]) -> ControlFlow<()>,
    ) -> ExploreStats
    where
        S: System + Sync,
        S::State: Send,
        S::Action: Send,
    {
        self.par_for_each_run_probed(sys, &NoopProbe, visit)
    }

    /// Parallel [`Explorer::for_each_run_probed`]. `probe` receives the
    /// exact per-run counter sequence of the serial explorer: workers
    /// stream structural data only, while all accounting, probe flushes,
    /// and visitor calls happen on the calling thread in serial DFS
    /// order. Each worker additionally re-installs the calling thread's
    /// ambient probe (captured via `gem_obs::ambient::snapshot`), so
    /// system-internal instrumentation fans into the same sink.
    pub fn par_for_each_run_probed<S>(
        &self,
        sys: &S,
        probe: &dyn Probe,
        visit: impl FnMut(&S::State, &[S::Action]) -> ControlFlow<()>,
    ) -> ExploreStats
    where
        S: System + Sync,
        S::State: Send,
        S::Action: Send,
    {
        let jobs = self.effective_jobs();
        // Pruning shares a seen-set across the whole schedule order;
        // a zero run budget never reaches a worker. Both take the serial
        // path.
        if jobs <= 1 || self.prune || self.max_runs == 0 {
            return self.for_each_run_probed(sys, probe, visit);
        }
        let (mut items, tail_ops) = build_frontier(self, sys);

        let leads: Vec<Vec<ReplayOp>> = items
            .iter_mut()
            .map(|item| std::mem::take(&mut item.lead))
            .collect();
        let slots: Vec<Mutex<Option<WorkItem<S>>>> = items
            .into_iter()
            .map(|item| Mutex::new(Some(item)))
            .collect();
        let mut senders = Vec::with_capacity(slots.len());
        let mut receivers = Vec::with_capacity(slots.len());
        for _ in 0..slots.len() {
            let (tx, rx) = mpsc::sync_channel::<Msg<S>>(ITEM_CHANNEL_CAP);
            senders.push(Mutex::new(Some(tx)));
            receivers.push(rx);
        }
        let next = AtomicUsize::new(0);
        let cancel = AtomicBool::new(false);
        let ambient_probe = ambient::snapshot();
        let workers = jobs.min(slots.len());
        let telemetry = probe.enabled();
        // The committer's accounting is the serial walk's, fed from the
        // item streams instead of from its own recursion.
        let mut committer = Serial::new(self, sys, probe, visit);

        if telemetry {
            // Frontier-walk attribution: edges the calling thread applied
            // before any worker ran. Together with `worker.<k>.steps`
            // these partition the serial `explore.steps` on exhaustive
            // uncancelled sweeps.
            let frontier_steps =
                leads.iter().map(|ops| op_edges(ops)).sum::<u64>() + op_edges(&tail_ops);
            probe.add("explore.frontier.steps", frontier_steps);
            probe.add("explore.frontier.items", slots.len() as u64);
        }

        std::thread::scope(|scope| {
            for w in 0..workers {
                let slots = &slots;
                let senders = &senders;
                let next = &next;
                let cancel = &cancel;
                let ambient_probe = ambient_probe.clone();
                std::thread::Builder::new()
                    .name(format!("gem-explore-{w}"))
                    .stack_size(WORKER_STACK)
                    .spawn_scoped(scope, move || {
                        set_thread_label(format!("worker-{w}"));
                        // Inherit the ambient probe, holding gauge writes
                        // back: each item ships them with its tail and the
                        // committer replays them in item-commit (serial
                        // DFS) order. On completed sweeps `gauge_set` then
                        // resolves to last-commit-wins in DFS order and
                        // `gauge_max` to the max across workers — the
                        // serial outcome whenever the DFS-final write lies
                        // inside a committed subtree (frontier-walk writes
                        // replay eagerly, on the calling thread). Either
                        // way the result is a deterministic function of
                        // the schedule trie, never of thread timing.
                        let _ambient = ambient_probe.map(|probe| {
                            let guard = ambient::install(probe);
                            ambient::defer_gauges();
                            guard
                        });
                        loop {
                            if cancel.load(Ordering::Relaxed) {
                                break;
                            }
                            let idx = next.fetch_add(1, Ordering::Relaxed);
                            if idx >= slots.len() {
                                break;
                            }
                            let item = slots[idx]
                                .lock()
                                .unwrap()
                                .take()
                                .expect("item claimed once");
                            let tx = senders[idx]
                                .lock()
                                .unwrap()
                                .take()
                                .expect("sender claimed once");
                            Worker {
                                explorer: self,
                                sys,
                                cancel,
                                tx,
                                runs: 0,
                                steps: 0,
                                pending_ops: Vec::new(),
                                worker: w,
                                telemetry,
                                idle_ns: 0,
                                lag_ns: Vec::new(),
                            }
                            .run_item(item);
                        }
                    })
                    .expect("spawn explore worker");
            }

            // Ordered commit: the calling thread drains item streams in
            // index order and replays serial accounting.
            let mut last_unfinished = false;
            let mut stopped = false;
            'items: for (idx, rx) in receivers.into_iter().enumerate() {
                last_unfinished = false;
                if replay_ops(&mut committer, &leads[idx]).is_break() {
                    stopped = true;
                    break 'items;
                }
                loop {
                    match rx.recv() {
                        Ok(Msg::Leaf {
                            pre,
                            depth_limited,
                            path,
                            state,
                        }) => {
                            if replay_ops(&mut committer, &pre).is_break()
                                || committer.leaf(&state, &path, depth_limited).is_break()
                            {
                                stopped = true;
                                break 'items;
                            }
                        }
                        Ok(Msg::Tail {
                            post,
                            finished,
                            telemetry,
                            gauges,
                        }) => {
                            // Deferred gauge writes replay here, in item
                            // order, into the same ambient sink worker
                            // system code targeted.
                            for op in gauges {
                                match op {
                                    GaugeWrite::Set(name, v) => ambient::gauge_set(&name, v),
                                    GaugeWrite::Max(name, v) => ambient::gauge_max(&name, v),
                                }
                            }
                            if let Some(t) = &telemetry {
                                emit_telemetry(probe, t);
                            }
                            if replay_ops(&mut committer, &post).is_break() {
                                stopped = true;
                                break 'items;
                            }
                            last_unfinished = !finished;
                            continue 'items;
                        }
                        // A worker died mid-item (visitor-independent
                        // panic in `System` code); stop committing — the
                        // scope join below re-raises the panic.
                        Err(_) => {
                            stopped = true;
                            break 'items;
                        }
                    }
                }
            }
            if !stopped && last_unfinished {
                // The last worker stopped on a local budget with edges
                // left in its subtree: serial would attempt exactly one
                // more edge there before its own bound fires.
                let _ = replay_edge(&mut committer, 0, 0);
            } else if !stopped {
                // Ops the frontier walk performed after the last item —
                // edges into (and skips at) trailing fully-slept nodes
                // that produced no work item. Serial walks them after the
                // last run; a truncated or aborted commit never gets
                // there.
                let _ = replay_ops(&mut committer, &tail_ops);
            }
            cancel.store(true, Ordering::Relaxed);
            // Unconsumed receivers were dropped by the loop, so blocked
            // workers fail their next send and exit promptly.
        });
        committer.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::find_deadlock;

    /// Asymmetric toy system: counter `i` steps to `i + 1`, so subtree
    /// sizes differ wildly across the frontier — a stress for the
    /// lead/pre/post edge accounting.
    struct Ragged {
        n: usize,
        stuck: bool,
    }

    // POR: conservative — the POR differentials use `PorRagged` below.
    impl System for Ragged {
        type State = Vec<u8>;
        type Action = usize;
        type Checkpoint = ();

        fn initial(&self) -> Vec<u8> {
            vec![0; self.n]
        }

        fn enabled(&self, state: &Vec<u8>) -> Vec<usize> {
            if self.stuck && state.iter().enumerate().any(|(i, &c)| usize::from(c) > i) {
                return Vec::new();
            }
            (0..self.n)
                .filter(|&i| usize::from(state[i]) < i + 1)
                .collect()
        }

        fn apply(&self, state: &mut Vec<u8>, &i: &usize) {
            state[i] += 1;
        }

        fn is_complete(&self, state: &Vec<u8>) -> bool {
            state
                .iter()
                .enumerate()
                .all(|(i, &c)| usize::from(c) == i + 1)
        }
    }

    /// `Ragged` with an independence oracle claiming distinct counters
    /// commute. In the `stuck` variant that claim is *unsound* for the
    /// system's semantics (one counter's step can disable another's), but
    /// the serial-vs-parallel differential only needs both sides to
    /// honour the same oracle — an adversarial stress for the op-stream
    /// replay, since fully-slept nodes then appear mid-frontier.
    struct PorRagged(Ragged);

    impl System for PorRagged {
        type State = Vec<u8>;
        type Action = usize;
        type Checkpoint = ();

        fn initial(&self) -> Vec<u8> {
            self.0.initial()
        }
        fn enabled(&self, state: &Vec<u8>) -> Vec<usize> {
            self.0.enabled(state)
        }
        fn apply(&self, state: &mut Vec<u8>, action: &usize) {
            self.0.apply(state, action);
        }
        fn is_complete(&self, state: &Vec<u8>) -> bool {
            self.0.is_complete(state)
        }
        fn independent(&self, _state: &Vec<u8>, a: &usize, b: &usize) -> bool {
            a != b
        }
    }

    /// Runs serial and parallel exploration and asserts identical stats
    /// and identical visited (state, path) sequences.
    fn assert_equiv<S>(explorer: &Explorer, sys: &S)
    where
        S: System<State = Vec<u8>, Action = usize> + Sync,
    {
        let mut serial_seen: Vec<(Vec<u8>, Vec<usize>)> = Vec::new();
        let serial = explorer.for_each_run(sys, |s, p| {
            serial_seen.push((s.clone(), p.to_vec()));
            ControlFlow::Continue(())
        });
        let mut par_seen: Vec<(Vec<u8>, Vec<usize>)> = Vec::new();
        let par = explorer.par_for_each_run(sys, |s, p| {
            par_seen.push((s.clone(), p.to_vec()));
            ControlFlow::Continue(())
        });
        assert_eq!(serial, par, "stats diverge for {explorer:?}");
        assert_eq!(serial_seen, par_seen, "runs diverge for {explorer:?}");
    }

    #[test]
    fn exhaustive_equivalence_across_jobs_and_splits() {
        let sys = Ragged { n: 3, stuck: false };
        for jobs in [2, 3, 4] {
            for split_depth in [0, 1, 2, 3, 5] {
                assert_equiv(
                    &Explorer {
                        jobs,
                        split_depth,
                        ..Explorer::default()
                    },
                    &sys,
                );
            }
        }
    }

    #[test]
    fn truncated_equivalence_run_and_step_limits() {
        let sys = Ragged { n: 3, stuck: false };
        let total = Explorer::default().for_each_run(&sys, |_, _| ControlFlow::Continue(()));
        // Sweep budgets across the whole range, including the exact
        // budget (no truncation) and off-by-one around it.
        for max_runs in 1..=total.runs + 1 {
            assert_equiv(
                &Explorer {
                    max_runs,
                    jobs: 4,
                    split_depth: 2,
                    ..Explorer::default()
                },
                &sys,
            );
        }
        for max_steps in [1, 2, 3, 5, total.steps - 1, total.steps, total.steps + 1] {
            assert_equiv(
                &Explorer {
                    max_steps,
                    jobs: 4,
                    split_depth: 2,
                    ..Explorer::default()
                },
                &sys,
            );
        }
    }

    #[test]
    fn depth_limited_equivalence() {
        let sys = Ragged { n: 3, stuck: false };
        for max_depth in [1, 2, 3, 4] {
            assert_equiv(
                &Explorer {
                    max_depth,
                    jobs: 4,
                    split_depth: 2,
                    ..Explorer::default()
                },
                &sys,
            );
        }
    }

    #[test]
    fn combined_budgets_equivalence() {
        let sys = Ragged { n: 3, stuck: false };
        for (max_runs, max_steps, max_depth) in
            [(7, usize::MAX, 4), (100, 17, 10_000), (5, 9, 3), (1, 1, 1)]
        {
            assert_equiv(
                &Explorer {
                    max_runs,
                    max_steps,
                    max_depth,
                    jobs: 2,
                    split_depth: 1,
                    ..Explorer::default()
                },
                &sys,
            );
        }
    }

    #[test]
    fn por_equivalence_across_jobs_and_splits() {
        for stuck in [false, true] {
            let sys = PorRagged(Ragged { n: 3, stuck });
            for jobs in [2, 4] {
                for split_depth in [0, 1, 2, 3, 5] {
                    assert_equiv(
                        &Explorer {
                            reduce: true,
                            jobs,
                            split_depth,
                            ..Explorer::default()
                        },
                        &sys,
                    );
                }
            }
        }
    }

    #[test]
    fn por_truncated_equivalence() {
        let sys = PorRagged(Ragged { n: 3, stuck: true });
        let reduce = Explorer {
            reduce: true,
            ..Explorer::default()
        };
        let total = reduce.for_each_run(&sys, |_, _| ControlFlow::Continue(()));
        assert!(total.sleep_skipped > 0, "{total:?}");
        for max_runs in 1..=total.runs + 1 {
            assert_equiv(
                &Explorer {
                    max_runs,
                    jobs: 4,
                    split_depth: 2,
                    ..reduce
                },
                &sys,
            );
        }
        for max_steps in [1, 2, 3, 5, total.steps - 1, total.steps, total.steps + 1] {
            assert_equiv(
                &Explorer {
                    max_steps,
                    jobs: 4,
                    split_depth: 2,
                    ..reduce
                },
                &sys,
            );
        }
        for max_depth in [1, 2, 3, 4] {
            assert_equiv(
                &Explorer {
                    max_depth,
                    jobs: 4,
                    split_depth: 2,
                    ..reduce
                },
                &sys,
            );
        }
    }

    /// Drops the parallel-only attribution (`worker.<k>.*` counters and
    /// histograms, `explore.frontier.*`) a parallel report carries on
    /// top of the serial-identical counter sequence.
    fn strip_attribution(report: &mut gem_obs::Report) {
        report
            .counters
            .retain(|k, _| !k.starts_with("worker.") && !k.starts_with("explore.frontier."));
        report.hists.retain(|k, _| !k.starts_with("worker."));
    }

    /// Sums `worker.<k>.<suffix>` counters across all workers.
    fn worker_sum(report: &gem_obs::Report, suffix: &str) -> u64 {
        report
            .counters
            .iter()
            .filter(|(k, _)| k.starts_with("worker.") && k.ends_with(suffix))
            .map(|(_, v)| *v)
            .sum()
    }

    #[test]
    fn por_probe_counter_sequence_matches_serial() {
        use gem_obs::StatsProbe;
        let sys = PorRagged(Ragged { n: 3, stuck: false });
        let explorer = Explorer {
            reduce: true,
            ..Explorer::default()
        };
        let serial_probe = StatsProbe::new();
        explorer.for_each_run_probed(&sys, &serial_probe, |_, _| ControlFlow::Continue(()));
        let par_probe = StatsProbe::new();
        Explorer {
            jobs: 4,
            split_depth: 2,
            ..explorer
        }
        .par_for_each_run_probed(&sys, &par_probe, |_, _| ControlFlow::Continue(()));
        let serial_report = serial_probe.report();
        let mut par_report = par_probe.report();
        // Exhaustive uncancelled sweep: the attribution partitions the
        // serial totals exactly.
        assert_eq!(
            worker_sum(&par_report, ".leaves"),
            serial_report.counters["explore.runs"]
        );
        assert_eq!(
            par_report.counters["explore.frontier.steps"] + worker_sum(&par_report, ".steps"),
            serial_report.counters["explore.steps"]
        );
        strip_attribution(&mut par_report);
        assert_eq!(serial_report.to_json(), par_report.to_json());
        assert!(serial_probe.counter("explore.sleep_skipped") > 0);
        assert!(
            serial_probe.counter("explore.oracle.grants") > 0,
            "PorRagged's oracle grants across distinct counters"
        );
        assert_eq!(
            par_probe.counter("explore.oracle.grants"),
            serial_probe.counter("explore.oracle.grants")
        );
        assert_eq!(
            par_probe.counter("explore.oracle.denials"),
            serial_probe.counter("explore.oracle.denials")
        );
    }

    #[test]
    fn early_break_stops_parallel_search() {
        let sys = Ragged { n: 3, stuck: false };
        let mut count = 0;
        let stats = Explorer {
            jobs: 4,
            split_depth: 2,
            ..Explorer::default()
        }
        .par_for_each_run(&sys, |_, _| {
            count += 1;
            if count == 3 {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
        assert_eq!(count, 3);
        assert_eq!(stats.runs, 3);
        assert_eq!(stats.truncation, None);
    }

    #[test]
    fn parallel_deadlock_witness_matches_serial() {
        let sys = Ragged { n: 3, stuck: true };
        let serial = find_deadlock(&sys, &Explorer::default());
        let par = find_deadlock(
            &sys,
            &Explorer {
                jobs: 4,
                split_depth: 2,
                ..Explorer::default()
            },
        );
        assert!(serial.is_some());
        assert_eq!(serial, par);
    }

    #[test]
    fn probe_counter_sequence_matches_serial() {
        use gem_obs::StatsProbe;
        let sys = Ragged { n: 3, stuck: false };
        for max_steps in [usize::MAX, 25] {
            let explorer = Explorer {
                max_steps,
                ..Explorer::default()
            };
            let serial_probe = StatsProbe::new();
            explorer.for_each_run_probed(&sys, &serial_probe, |_, _| ControlFlow::Continue(()));
            let par_probe = StatsProbe::new();
            Explorer {
                jobs: 4,
                split_depth: 2,
                ..explorer
            }
            .par_for_each_run_probed(
                &sys,
                &par_probe,
                |_, _| ControlFlow::Continue(()),
            );
            let serial_report = serial_probe.report();
            let mut par_report = par_probe.report();
            if max_steps == usize::MAX {
                // Exhaustive: worker leaves/steps partition the serial
                // totals (truncated sweeps leave speculation
                // uncommitted, so no sum identity there).
                assert_eq!(
                    worker_sum(&par_report, ".leaves"),
                    serial_report.counters["explore.runs"]
                );
                assert_eq!(
                    par_report.counters["explore.frontier.steps"]
                        + worker_sum(&par_report, ".steps"),
                    serial_report.counters["explore.steps"]
                );
                assert!(
                    par_report
                        .hists
                        .keys()
                        .any(|k| k.ends_with(".commit_lag_ns")),
                    "leaf sends record a commit-lag histogram: {:?}",
                    par_report.hists.keys().collect::<Vec<_>>()
                );
            }
            strip_attribution(&mut par_report);
            assert_eq!(serial_report.to_json(), par_report.to_json());
        }
    }

    #[test]
    fn zero_jobs_resolves_to_available_parallelism() {
        let explorer = Explorer {
            jobs: 0,
            ..Explorer::default()
        };
        assert!(explorer.effective_jobs() >= 1);
        // And exploration still works through the auto-resolved pool.
        let sys = Ragged { n: 2, stuck: false };
        let serial = Explorer::default().for_each_run(&sys, |_, _| ControlFlow::Continue(()));
        let par = explorer.par_for_each_run(&sys, |_, _| ControlFlow::Continue(()));
        assert_eq!(serial, par);
    }

    #[test]
    fn prune_falls_back_to_serial() {
        // Ragged has no control key, but the fallback must not change
        // results either way.
        let sys = Ragged { n: 3, stuck: false };
        let explorer = Explorer {
            prune: true,
            jobs: 4,
            ..Explorer::default()
        };
        let serial = Explorer {
            jobs: 1,
            ..explorer
        }
        .for_each_run(&sys, |_, _| ControlFlow::Continue(()));
        let par = explorer.par_for_each_run(&sys, |_, _| ControlFlow::Continue(()));
        assert_eq!(serial, par);
    }

    #[test]
    fn ambient_probe_is_inherited_by_workers() {
        use gem_obs::StatsProbe;
        use std::sync::Arc;

        /// A system that reports through the ambient probe from inside
        /// `apply` — i.e. from worker threads in parallel mode.
        struct Chatty;
        // POR: conservative — probe-inheritance toy, no oracle needed.
        impl System for Chatty {
            type State = Vec<u8>;
            type Action = usize;
            type Checkpoint = ();
            fn initial(&self) -> Vec<u8> {
                vec![0; 2]
            }
            fn enabled(&self, state: &Vec<u8>) -> Vec<usize> {
                (0..2).filter(|&i| state[i] < 2).collect()
            }
            fn apply(&self, state: &mut Vec<u8>, &i: &usize) {
                ambient::add("chatty.applies", 1);
                state[i] += 1;
            }
            fn is_complete(&self, state: &Vec<u8>) -> bool {
                state.iter().all(|&c| c == 2)
            }
        }

        let probe = Arc::new(StatsProbe::new());
        let _guard = ambient::install(probe.clone());
        Explorer {
            jobs: 4,
            split_depth: 1,
            ..Explorer::default()
        }
        .par_for_each_run(&Chatty, |_, _| ControlFlow::Continue(()));
        // Exhaustive, uncancelled exploration applies every trie edge
        // exactly once across the frontier walk and all workers.
        let serial_probe = Arc::new(StatsProbe::new());
        {
            let _g = ambient::install(serial_probe.clone());
            Explorer::default().for_each_run(&Chatty, |_, _| ControlFlow::Continue(()));
        }
        assert_eq!(
            probe.counter("chatty.applies"),
            serial_probe.counter("chatty.applies")
        );
    }

    #[test]
    fn worker_gauge_writes_commit_in_dfs_order() {
        use gem_obs::StatsProbe;
        use std::sync::Arc;

        /// Reports order-sensitive gauges from inside `apply` — the
        /// racy-fan-in case `ambient::defer_gauges` exists for.
        struct Gaugey;
        // POR: conservative — gauge fan-in toy, no oracle needed.
        impl System for Gaugey {
            type State = Vec<u8>;
            type Action = usize;
            type Checkpoint = ();
            fn initial(&self) -> Vec<u8> {
                vec![0; 3]
            }
            fn enabled(&self, state: &Vec<u8>) -> Vec<usize> {
                (0..3).filter(|&i| state[i] < 2).collect()
            }
            fn apply(&self, state: &mut Vec<u8>, &i: &usize) {
                state[i] += 1;
                ambient::gauge_set("gaugey.last_action", i as u64);
                ambient::gauge_max("gaugey.max_action", i as u64);
            }
            fn is_complete(&self, state: &Vec<u8>) -> bool {
                state.iter().all(|&c| c == 2)
            }
        }

        let serial_probe = Arc::new(StatsProbe::new());
        {
            let _g = ambient::install(serial_probe.clone());
            Explorer::default().for_each_run(&Gaugey, |_, _| ControlFlow::Continue(()));
        }
        let serial = serial_probe.report();
        for (jobs, split_depth) in [(2, 1), (4, 2), (3, 3)] {
            let par_probe = Arc::new(StatsProbe::new());
            {
                let _g = ambient::install(par_probe.clone());
                Explorer {
                    jobs,
                    split_depth,
                    ..Explorer::default()
                }
                .par_for_each_run(&Gaugey, |_, _| ControlFlow::Continue(()));
            }
            let par = par_probe.report();
            // Deferred replay in commit order makes both gauges
            // scheduling-independent and serial-identical.
            assert_eq!(
                par.gauges["gaugey.last_action"], serial.gauges["gaugey.last_action"],
                "gauge_set must be last-commit-wins in DFS order (jobs={jobs})"
            );
            assert_eq!(
                par.gauges["gaugey.max_action"], serial.gauges["gaugey.max_action"],
                "gauge_max must be the max across workers (jobs={jobs})"
            );
        }
    }

    #[test]
    fn workers_label_their_trace_lanes() {
        use gem_obs::EventLog;
        use std::sync::Arc;

        /// Emits a timer from inside `apply` so worker threads show up
        /// in the trace.
        struct Timed;
        // POR: conservative — trace-label toy, no oracle needed.
        impl System for Timed {
            type State = Vec<u8>;
            type Action = usize;
            type Checkpoint = ();
            fn initial(&self) -> Vec<u8> {
                vec![0; 2]
            }
            fn enabled(&self, state: &Vec<u8>) -> Vec<usize> {
                (0..2).filter(|&i| state[i] < 2).collect()
            }
            fn apply(&self, state: &mut Vec<u8>, &i: &usize) {
                ambient::time_ns("timed.apply", 10);
                state[i] += 1;
            }
            fn is_complete(&self, state: &Vec<u8>) -> bool {
                state.iter().all(|&c| c == 2)
            }
        }

        let log = Arc::new(EventLog::new(64));
        let _g = ambient::install(log.clone());
        Explorer {
            jobs: 2,
            split_depth: 1,
            ..Explorer::default()
        }
        .par_for_each_run(&Timed, |_, _| ControlFlow::Continue(()));
        let labels = log.labels();
        assert!(
            labels.values().any(|l| l.starts_with("worker-")),
            "worker lanes carry worker-<k> labels: {labels:?}"
        );
    }
}
