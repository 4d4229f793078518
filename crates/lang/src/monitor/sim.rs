//! Execution of monitor programs into GEM computations.
//!
//! [`MonitorSystem`] implements [`System`](crate::System): scheduler
//! choices are (a) which user process takes its next script step and
//! (b) which pending caller acquires the free monitor. Monitor entry code
//! runs to its next blocking point within one action — the monitor lock
//! excludes all other monitor activity anyway, and user-level events of
//! other processes remain concurrent *in the generated computation*, so
//! event-level interleavings are fully represented even though entries are
//! scheduler-atomic.
//!
//! Signal semantics are Hoare's with an urgent stack: `SIGNAL` on a
//! non-empty condition passes the monitor to the first waiter immediately
//! and parks the signaller; on release, parked signallers resume before
//! any new entry. This is the discipline §9's readers-priority proof
//! assumes ("all waiting readers will be signalled before any other
//! process executes in the monitor").
//!
//! ## Event vocabulary
//!
//! | Element | Classes (params) |
//! |---------|------------------|
//! | each user process | `Call(entry)`, `Return(entry)`, plus declared user classes |
//! | `<m>.lock` | `Req(entry, pid)`, `Acquire(pid)`, `Release(pid)` — `Req` is the monitor group's port |
//! | `<m>.entry.<e>` | `Begin(pid)`, `End(pid)` |
//! | `<m>.var.<v>`, shared `<v>` | `Assign(newval, entry, pid)`, `Getval(oldval, entry, pid)` |
//! | `<m>.cond.<c>` | `Wait(pid)`, `Signal(pid)`, `Resume(pid)` |
//! | `<m>.init` | `Init()` |

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use std::time::Instant;

use gem_core::{
    BuildError, ClassId, Computation, ComputationBuilder, ElementId, EventId, Structure, Value,
};

use crate::code::{CodeStats, CondKind, ExprId, ExprPool, SlotLayout};
use crate::explore::System;
use crate::monitor::def::{MonitorProgram, ScriptStep, SignalSemantics, Stmt};
use crate::rewind::{Rewind, SimCheckpoint};

/// Sentinel `pid` parameter for initialization events.
const INIT_PID: i64 = -1;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Classes {
    call: ClassId,
    ret: ClassId,
    req: ClassId,
    acquire: ClassId,
    release: ClassId,
    begin: ClassId,
    end: ClassId,
    assign: ClassId,
    getval: ClassId,
    wait: ClassId,
    signal: ClassId,
    resume: ClassId,
    init: ClassId,
}

/// A monitor program compiled against a GEM structure, ready to execute.
#[derive(Clone, Debug)]
pub struct MonitorSystem {
    program: MonitorProgram,
    structure: Arc<Structure>,
    cls: Classes,
    user_cls: BTreeMap<String, ClassId>,
    user_els: Vec<ElementId>,
    lock_el: ElementId,
    init_el: ElementId,
    entry_els: Vec<ElementId>,
    var_els: BTreeMap<String, ElementId>,
    cond_els: BTreeMap<String, ElementId>,
    /// Commutativity class of every script step, per (process, position):
    /// the independence oracle's lookup table, precomputed so the hot
    /// path never re-inspects script text.
    step_class: Vec<Vec<StepClass>>,
    /// Per-entry variable footprint `(reads, writes)` of each entry body
    /// (IF/WHILE conditions and assignment right-hand sides for reads,
    /// all branches for both), indexed by entry index. The independence
    /// oracle unions the footprints of exactly the entries a monitor
    /// action can execute — the acting entry plus, under Hoare
    /// semantics, any parked continuation a signal chain can run — so
    /// entries over disjoint variables commute with unrelated script
    /// steps instead of conflicting through a global union.
    entry_footprints: Vec<(BTreeSet<String>, BTreeSet<String>)>,
    /// Compiled form of every entry body, script step, and expression,
    /// built once at construction.
    code: Arc<MonitorCode>,
}

/// Everything step execution needs, built once per system: slot
/// layouts, postfix expression code, flat entry-body programs with jump
/// targets, per-step codes, and pre-materialized event parameters.
#[derive(Clone, Debug)]
struct MonitorCode {
    pool: ExprPool,
    globals: SlotLayout,
    /// Initial global-scope values in slot order.
    init_gslots: Vec<Value>,
    /// Condition elements in declaration order; the condition index an
    /// `MOp` carries indexes this and the wait queues.
    cond_els: Vec<ElementId>,
    entries: Vec<EntryProg>,
    /// Per (process, script position) compiled step.
    steps: Vec<Vec<StepCode>>,
    /// `[entry][pid]` → `[Str(entry_name), Int(pid)]` event parameters.
    entry_params: Vec<Vec<[Value; 2]>>,
    /// `[pid]` → `[Str(""), Int(pid)]` for shared-variable accesses
    /// outside any entry.
    shared_params: Vec<[Value; 2]>,
    /// Initial assignments to monitor variables, in declaration order:
    /// `(element, [value, Str("init"), Int(INIT_PID)])`.
    init_monitor: Vec<(ElementId, [Value; 3])>,
    /// Initial assignments to shared variables, in the same form.
    init_shared: Vec<(ElementId, [Value; 3])>,
    stats: CodeStats,
}

/// One entry body as a flat basic-block program.
#[derive(Clone, Debug)]
struct EntryProg {
    ops: Vec<MOp>,
    /// Local scope: the entry's parameters.
    params: SlotLayout,
    /// Slot of each declared parameter, positionally (duplicates share a
    /// slot; binding in order reproduces last-wins `VarStore` semantics).
    param_slots: Vec<u32>,
}

/// One flat monitor-entry instruction; `IF`/`WHILE` become jumps.
#[derive(Clone, Debug)]
enum MOp {
    /// Evaluate and store to a global slot, emitting `Assign`.
    Assign {
        gslot: u32,
        el: ElementId,
        expr: ExprId,
    },
    /// Assignment to an undeclared variable: evaluate (surfacing any
    /// expression error first), then panic.
    AssignUnknown {
        name: String,
        expr: ExprId,
    },
    /// `IF`/`WHILE` condition: fall through when true, jump when false.
    JumpIfFalse {
        cond: ExprId,
        target: u32,
        kind: CondKind,
    },
    Jump(u32),
    /// `WAIT` on condition `conds[cond]` (element precomputed).
    Wait {
        cond: u32,
        el: ElementId,
    },
    /// `SIGNAL` on condition `conds[cond]`.
    Signal {
        cond: u32,
        el: ElementId,
    },
    /// `IF queue`: fall through when the queue is non-empty.
    JumpIfQueueEmpty {
        cond: u32,
        target: u32,
    },
    /// A statement naming an undeclared condition — panics at execution
    /// (`queue_probe` distinguishes the `IF queue` probe from
    /// `WAIT`/`SIGNAL` element lookup).
    UnknownCond {
        name: String,
        queue_probe: bool,
    },
    /// Entry body finished.
    End,
}

/// Compiled form of one script step. `Call`/`Event` carry pre-evaluated
/// values in the program text; a call resolves its entry index.
#[derive(Clone, Copy, Debug)]
enum StepCode {
    Call {
        entry: usize,
    },
    Event,
    Read {
        gslot: u32,
        el: ElementId,
    },
    Write {
        gslot: u32,
        el: ElementId,
        expr: ExprId,
    },
}

fn patch_jump(ops: &mut [MOp], at: usize, to: u32) {
    match &mut ops[at] {
        MOp::JumpIfFalse { target, .. }
        | MOp::Jump(target)
        | MOp::JumpIfQueueEmpty { target, .. } => *target = to,
        other => unreachable!("patching non-jump {other:?}"),
    }
}

/// Compiles entry-body statements into flat [`MOp`] programs.
struct EntryCompiler<'a> {
    pool: &'a mut ExprPool,
    params: &'a SlotLayout,
    globals: &'a SlotLayout,
    var_els: &'a BTreeMap<String, ElementId>,
    conds: &'a [String],
    cond_els: &'a BTreeMap<String, ElementId>,
    ops: Vec<MOp>,
}

impl EntryCompiler<'_> {
    fn cond(&self, name: &str) -> Option<(u32, ElementId)> {
        let idx = self.conds.iter().position(|c| c == name)?;
        Some((idx as u32, self.cond_els[name]))
    }

    fn expr(&mut self, e: &crate::ast::Expr) -> ExprId {
        self.pool.compile(e, self.params, self.globals)
    }

    fn compile(&mut self, stmts: &[Stmt]) {
        for stmt in stmts {
            match stmt {
                Stmt::Assign(var, expr) => {
                    let expr = self.expr(expr);
                    match (self.globals.get(var), self.var_els.get(var)) {
                        (Some(gslot), Some(&el)) => {
                            self.ops.push(MOp::Assign { gslot, el, expr });
                        }
                        _ => self.ops.push(MOp::AssignUnknown {
                            name: var.clone(),
                            expr,
                        }),
                    }
                }
                Stmt::If(cond, then_branch, else_branch) => {
                    let cond = self.expr(cond);
                    let jf = self.ops.len();
                    self.ops.push(MOp::JumpIfFalse {
                        cond,
                        target: 0,
                        kind: CondKind::If,
                    });
                    self.compile(then_branch);
                    if else_branch.is_empty() {
                        let end = self.ops.len() as u32;
                        patch_jump(&mut self.ops, jf, end);
                    } else {
                        let j = self.ops.len();
                        self.ops.push(MOp::Jump(0));
                        let else_start = self.ops.len() as u32;
                        patch_jump(&mut self.ops, jf, else_start);
                        self.compile(else_branch);
                        let end = self.ops.len() as u32;
                        patch_jump(&mut self.ops, j, end);
                    }
                }
                Stmt::While(cond, body) => {
                    let head = self.ops.len() as u32;
                    let cond = self.expr(cond);
                    let jf = self.ops.len();
                    self.ops.push(MOp::JumpIfFalse {
                        cond,
                        target: 0,
                        kind: CondKind::While,
                    });
                    self.compile(body);
                    self.ops.push(MOp::Jump(head));
                    let end = self.ops.len() as u32;
                    patch_jump(&mut self.ops, jf, end);
                }
                Stmt::Wait(name) => match self.cond(name) {
                    Some((cond, el)) => self.ops.push(MOp::Wait { cond, el }),
                    None => self.ops.push(MOp::UnknownCond {
                        name: name.clone(),
                        queue_probe: false,
                    }),
                },
                Stmt::Signal(name) => match self.cond(name) {
                    Some((cond, el)) => self.ops.push(MOp::Signal { cond, el }),
                    None => self.ops.push(MOp::UnknownCond {
                        name: name.clone(),
                        queue_probe: false,
                    }),
                },
                Stmt::IfQueue(name, then_branch, else_branch) => match self.cond(name) {
                    Some((cond, _)) => {
                        let jq = self.ops.len();
                        self.ops.push(MOp::JumpIfQueueEmpty { cond, target: 0 });
                        self.compile(then_branch);
                        if else_branch.is_empty() {
                            let end = self.ops.len() as u32;
                            patch_jump(&mut self.ops, jq, end);
                        } else {
                            let j = self.ops.len();
                            self.ops.push(MOp::Jump(0));
                            let else_start = self.ops.len() as u32;
                            patch_jump(&mut self.ops, jq, else_start);
                            self.compile(else_branch);
                            let end = self.ops.len() as u32;
                            patch_jump(&mut self.ops, j, end);
                        }
                    }
                    None => self.ops.push(MOp::UnknownCond {
                        name: name.clone(),
                        queue_probe: true,
                    }),
                },
            }
        }
    }
}

/// Commutativity class of one script step, for the independence oracle.
/// `Call` arguments and `Event` parameters are pre-evaluated [`Value`]s,
/// so neither reads any variable.
#[derive(Clone, Debug)]
enum StepClass {
    /// Entry request: emits on the caller's element *and* the lock.
    Call,
    /// Local event on the caller's own element only.
    Event,
    /// `Getval` of one variable (reads it, emits at its element).
    Read(String),
    /// `Assign` of one variable; `reads` is the value expression's
    /// read footprint.
    Write {
        var: String,
        reads: BTreeSet<String>,
    },
}

/// Commutativity class of one enabled [`MonitorAction`], resolved against
/// the current state.
enum ActionClass<'a> {
    /// `Enter`/`Resume`: runs monitor code under the lock.
    Entry,
    /// `Step`: performs the process's next script step.
    Step(&'a StepClass),
}

/// Accumulates the variable read/write footprint of entry-body statements
/// (recursing through all branches; `WAIT`/`SIGNAL`/`IF queue` name
/// conditions, not variables).
fn stmt_footprint(stmts: &[Stmt], reads: &mut BTreeSet<String>, writes: &mut BTreeSet<String>) {
    for stmt in stmts {
        match stmt {
            Stmt::Assign(var, expr) => {
                writes.insert(var.clone());
                expr.collect_vars(reads);
            }
            Stmt::If(cond, then_branch, else_branch) => {
                cond.collect_vars(reads);
                stmt_footprint(then_branch, reads, writes);
                stmt_footprint(else_branch, reads, writes);
            }
            Stmt::While(cond, body) => {
                cond.collect_vars(reads);
                stmt_footprint(body, reads, writes);
            }
            Stmt::Wait(_) | Stmt::Signal(_) => {}
            Stmt::IfQueue(_, then_branch, else_branch) => {
                stmt_footprint(then_branch, reads, writes);
                stmt_footprint(else_branch, reads, writes);
            }
        }
    }
}

/// Status of a user process between scheduler actions.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
enum Status {
    /// Ready to take its next script step.
    Ready,
    /// Requested an entry; waiting for the monitor lock.
    Pending,
    /// Blocked in `WAIT` on a condition.
    Waiting,
    /// Signalled under Mesa semantics: eligible to re-acquire the lock.
    ReAcquire,
    /// Parked on the urgent stack after `SIGNAL` (Hoare semantics).
    Urgent,
    /// Script exhausted.
    Done,
}

#[derive(Debug)]
struct ProcRuntime {
    script_pos: usize,
    status: Status,
    entry: Option<usize>,
    /// Entry-parameter slots (`None` = unbound, global shows through).
    lslots: Vec<Option<Value>>,
    /// Program counter into the entry's flat ops.
    pc: u32,
    pending_args: Vec<Value>,
    last: Option<EventId>,
    wait_event: Option<EventId>,
    /// Mesa: the signal that woke this process, pending its re-acquire.
    pending_signal: Option<EventId>,
    /// Mesa: the index of the condition this process is resuming from.
    resume_cond: Option<u32>,
}

/// `clone_from` refills the slot vectors in place, which a derived impl
/// would reallocate.
impl Clone for ProcRuntime {
    fn clone(&self) -> Self {
        Self {
            lslots: self.lslots.clone(),
            pending_args: self.pending_args.clone(),
            ..*self
        }
    }

    fn clone_from(&mut self, src: &Self) {
        let mut lslots = std::mem::take(&mut self.lslots);
        let mut pending_args = std::mem::take(&mut self.pending_args);
        lslots.clone_from(&src.lslots);
        pending_args.clone_from(&src.pending_args);
        *self = Self {
            lslots,
            pending_args,
            ..*src
        };
    }
}

/// Full execution state of a monitor program, including the computation
/// built so far.
#[derive(Clone, Debug)]
pub struct MonitorState {
    builder: ComputationBuilder,
    ctl: MonitorCtl,
    /// Pre-images of the applies since the state was created or cloned,
    /// for [`System::undo`].
    rewind: Rewind<MonitorCtl>,
}

/// The control state of a monitor program: everything but the trace.
#[derive(Debug)]
struct MonitorCtl {
    /// Global scope (monitor and shared variables), read and written in
    /// place by slot.
    gslots: Vec<Value>,
    procs: Vec<ProcRuntime>,
    lock: Option<usize>,
    /// Last initialization event inside the monitor; enables the first
    /// acquisition (the monitor cannot run before it is initialized).
    init_done: Option<EventId>,
    urgent: Vec<usize>,
    /// Wait queue per condition, in declaration order.
    queues: Vec<VecDeque<usize>>,
}

/// `clone_from` refills every buffer in place, which a derived impl
/// would reallocate.
impl Clone for MonitorCtl {
    fn clone(&self) -> Self {
        Self {
            gslots: self.gslots.clone(),
            procs: self.procs.clone(),
            lock: self.lock,
            init_done: self.init_done,
            urgent: self.urgent.clone(),
            queues: self.queues.clone(),
        }
    }

    fn clone_from(&mut self, src: &Self) {
        self.gslots.clone_from(&src.gslots);
        self.procs.clone_from(&src.procs);
        self.lock = src.lock;
        self.init_done = src.init_done;
        self.urgent.clone_from(&src.urgent);
        self.queues.clone_from(&src.queues);
    }
}

/// A scheduler choice for a monitor program.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MonitorAction {
    /// Process `pid` performs its next script step (a local event, shared
    /// access, or an entry request).
    Step(usize),
    /// Pending process `pid` acquires the free monitor and runs its entry
    /// to the next blocking point.
    Enter(usize),
    /// Mesa semantics: signalled process `pid` re-acquires the free
    /// monitor and resumes after its `WAIT`.
    Resume(usize),
}

impl MonitorSystem {
    /// Compiles `program` into a system: builds the GEM structure (the
    /// Monitor group with `PORTS(lock.Req)`, per §9) and caches ids.
    ///
    /// # Panics
    ///
    /// Panics if the program is ill-formed (duplicate names, a script
    /// referencing an unknown entry/variable/class). These are
    /// program-text errors, reported eagerly.
    pub fn new(program: MonitorProgram) -> Self {
        let mut s = Structure::new();
        let m = &program.monitor.name;
        let cls = Classes {
            call: s.add_class("Call", &["entry"]).expect("fresh class"),
            ret: s.add_class("Return", &["entry"]).expect("fresh class"),
            req: s.add_class("Req", &["entry", "pid"]).expect("fresh class"),
            acquire: s.add_class("Acquire", &["pid"]).expect("fresh class"),
            release: s.add_class("Release", &["pid"]).expect("fresh class"),
            begin: s.add_class("Begin", &["pid"]).expect("fresh class"),
            end: s.add_class("End", &["pid"]).expect("fresh class"),
            assign: s
                .add_class("Assign", &["newval", "entry", "pid"])
                .expect("fresh class"),
            getval: s
                .add_class("Getval", &["oldval", "entry", "pid"])
                .expect("fresh class"),
            wait: s.add_class("Wait", &["pid"]).expect("fresh class"),
            signal: s.add_class("Signal", &["pid"]).expect("fresh class"),
            resume: s.add_class("Resume", &["pid"]).expect("fresh class"),
            init: s.add_class("Init", &[]).expect("fresh class"),
        };
        let mut user_cls = BTreeMap::new();
        for (name, params) in &program.user_classes {
            let ps: Vec<&str> = params.iter().map(String::as_str).collect();
            user_cls.insert(
                name.clone(),
                s.add_class(name.clone(), &ps).expect("user class"),
            );
        }
        let user_els: Vec<ElementId> = program
            .processes
            .iter()
            .map(|p| {
                let mut classes = vec![cls.call, cls.ret];
                classes.extend(user_cls.values().copied());
                s.add_element(p.name.clone(), &classes)
                    .expect("user element")
            })
            .collect();
        let lock_el = s
            .add_element(format!("{m}.lock"), &[cls.req, cls.acquire, cls.release])
            .expect("lock element");
        let init_el = s
            .add_element(format!("{m}.init"), &[cls.init])
            .expect("init element");
        let entry_els: Vec<ElementId> = program
            .monitor
            .entries
            .iter()
            .map(|e| {
                s.add_element(format!("{m}.entry.{}", e.name), &[cls.begin, cls.end])
                    .expect("entry element")
            })
            .collect();
        let mut var_els = BTreeMap::new();
        for (v, _) in &program.monitor.vars {
            var_els.insert(
                v.clone(),
                s.add_element(format!("{m}.var.{v}"), &[cls.assign, cls.getval])
                    .expect("var element"),
            );
        }
        for (v, _) in &program.shared_vars {
            var_els.insert(
                v.clone(),
                s.add_element(v.clone(), &[cls.assign, cls.getval])
                    .expect("shared var element"),
            );
        }
        let mut cond_els = BTreeMap::new();
        for c in &program.monitor.conditions {
            cond_els.insert(
                c.clone(),
                s.add_element(format!("{m}.cond.{c}"), &[cls.wait, cls.signal, cls.resume])
                    .expect("cond element"),
            );
        }
        // Monitor = GROUP(lock, init, {entry}, {cond}, {var}) PORTS(lock.Req)
        let mut members: Vec<gem_core::NodeRef> = vec![lock_el.into(), init_el.into()];
        members.extend(entry_els.iter().map(|&e| gem_core::NodeRef::from(e)));
        members.extend(cond_els.values().map(|&e| gem_core::NodeRef::from(e)));
        for (v, _) in &program.monitor.vars {
            members.push(var_els[v].into());
        }
        let group = s.add_group(m.clone(), &members).expect("monitor group");
        s.add_port(group, lock_el, cls.req).expect("lock.Req port");

        // Validate scripts eagerly.
        for p in &program.processes {
            for step in &p.script {
                match step {
                    ScriptStep::Call { entry, .. } => {
                        assert!(
                            program.monitor.entry_index(entry).is_some(),
                            "process {:?} calls unknown entry {entry:?}",
                            p.name
                        );
                    }
                    ScriptStep::Event { class, .. } => {
                        assert!(
                            user_cls.contains_key(class),
                            "process {:?} emits undeclared user class {class:?}",
                            p.name
                        );
                    }
                    ScriptStep::ReadShared { var } | ScriptStep::WriteShared { var, .. } => {
                        assert!(
                            program.shared_vars.iter().any(|(v, _)| v == var),
                            "process {:?} accesses unknown shared variable {var:?}",
                            p.name
                        );
                    }
                }
            }
        }

        // Precompute the independence oracle's lookup tables.
        let step_class: Vec<Vec<StepClass>> = program
            .processes
            .iter()
            .map(|p| {
                p.script
                    .iter()
                    .map(|step| match step {
                        ScriptStep::Call { .. } => StepClass::Call,
                        ScriptStep::Event { .. } => StepClass::Event,
                        ScriptStep::ReadShared { var } => StepClass::Read(var.clone()),
                        ScriptStep::WriteShared { var, value } => {
                            let mut reads = BTreeSet::new();
                            value.collect_vars(&mut reads);
                            StepClass::Write {
                                var: var.clone(),
                                reads,
                            }
                        }
                    })
                    .collect()
            })
            .collect();
        let entry_footprints: Vec<(BTreeSet<String>, BTreeSet<String>)> = program
            .monitor
            .entries
            .iter()
            .map(|entry| {
                let mut reads = BTreeSet::new();
                let mut writes = BTreeSet::new();
                stmt_footprint(&entry.body, &mut reads, &mut writes);
                (reads, writes)
            })
            .collect();

        // Compile once: slot layouts, expression IR, flat entry programs.
        let t0 = Instant::now();
        let mut pool = ExprPool::new();
        let mut globals = SlotLayout::new();
        for (v, _) in &program.monitor.vars {
            globals.intern(v);
        }
        for (v, _) in &program.shared_vars {
            globals.intern(v);
        }
        let mut init_gslots = vec![Value::Int(0); globals.len()];
        for (v, value) in program.monitor.vars.iter().chain(&program.shared_vars) {
            init_gslots[globals.get(v).expect("interned above") as usize] = *value;
        }
        let conds = &program.monitor.conditions;
        let entries: Vec<EntryProg> = program
            .monitor
            .entries
            .iter()
            .map(|e| {
                let mut params = SlotLayout::new();
                let param_slots: Vec<u32> = e.params.iter().map(|p| params.intern(p)).collect();
                let mut c = EntryCompiler {
                    pool: &mut pool,
                    params: &params,
                    globals: &globals,
                    var_els: &var_els,
                    conds,
                    cond_els: &cond_els,
                    ops: Vec::new(),
                };
                c.compile(&e.body);
                let mut ops = c.ops;
                ops.push(MOp::End);
                EntryProg {
                    ops,
                    params,
                    param_slots,
                }
            })
            .collect();
        let empty_layout = SlotLayout::new();
        let steps: Vec<Vec<StepCode>> = program
            .processes
            .iter()
            .map(|p| {
                p.script
                    .iter()
                    .map(|step| match step {
                        ScriptStep::Call { entry, .. } => StepCode::Call {
                            entry: program.monitor.entry_index(entry).expect("validated above"),
                        },
                        ScriptStep::Event { .. } => StepCode::Event,
                        ScriptStep::ReadShared { var } => StepCode::Read {
                            gslot: globals.get(var).expect("validated above"),
                            el: var_els[var],
                        },
                        ScriptStep::WriteShared { var, value } => StepCode::Write {
                            gslot: globals.get(var).expect("validated above"),
                            el: var_els[var],
                            expr: pool.compile(value, &empty_layout, &globals),
                        },
                    })
                    .collect()
            })
            .collect();
        let n_procs = program.processes.len();
        let entry_params: Vec<Vec<[Value; 2]>> = program
            .monitor
            .entries
            .iter()
            .map(|e| {
                let name = Value::from(e.name.as_str());
                (0..n_procs)
                    .map(|pid| [name, Value::Int(pid as i64)])
                    .collect()
            })
            .collect();
        let no_entry = Value::from("");
        let shared_params: Vec<[Value; 2]> = (0..n_procs)
            .map(|pid| [no_entry, Value::Int(pid as i64)])
            .collect();
        let init_tag = Value::from("init");
        let init_assigns = |vars: &[(String, Value)]| -> Vec<(ElementId, [Value; 3])> {
            vars.iter()
                .map(|(name, value)| (var_els[name], [*value, init_tag, Value::Int(INIT_PID)]))
                .collect()
        };
        let init_monitor = init_assigns(&program.monitor.vars);
        let init_shared = init_assigns(&program.shared_vars);
        let stats = CodeStats {
            exprs: pool.expr_count() as u64,
            ops: pool.op_count() as u64 + entries.iter().map(|e| e.ops.len() as u64).sum::<u64>(),
            consts: pool.const_count() as u64,
            programs: entries.len() as u64,
            slots: globals.len() as u64
                + entries.iter().map(|e| e.params.len() as u64).sum::<u64>(),
            compile_ns: t0.elapsed().as_nanos() as u64,
        };
        let code = Arc::new(MonitorCode {
            pool,
            globals,
            init_gslots,
            cond_els: conds.iter().map(|c| cond_els[c]).collect(),
            entries,
            steps,
            entry_params,
            shared_params,
            init_monitor,
            init_shared,
            stats,
        });

        Self {
            program,
            structure: Arc::new(s),
            cls,
            user_cls,
            user_els,
            lock_el,
            init_el,
            entry_els,
            var_els,
            cond_els,
            step_class,
            entry_footprints,
            code,
        }
    }

    /// Build-time statistics of the compiled code (the `code.*` and
    /// `explore.compile_ns` observability counters).
    pub fn code_stats(&self) -> CodeStats {
        self.code.stats
    }

    /// Reads monitor/shared variable `name` from `state`.
    pub fn global<'a>(&self, state: &'a MonitorState, name: &str) -> Option<&'a Value> {
        self.code
            .globals
            .get(name)
            .map(|s| &state.ctl.gslots[s as usize])
    }

    /// The program being executed.
    pub fn program(&self) -> &MonitorProgram {
        &self.program
    }

    /// The GEM structure computations of this system use.
    pub fn structure(&self) -> &Structure {
        &self.structure
    }

    /// Shared handle to the structure.
    pub fn structure_arc(&self) -> Arc<Structure> {
        Arc::clone(&self.structure)
    }

    /// The element of user process `pid`.
    pub fn user_element(&self, pid: usize) -> ElementId {
        self.user_els[pid]
    }

    /// The monitor lock element.
    pub fn lock_element(&self) -> ElementId {
        self.lock_el
    }

    /// The element of entry `name`.
    ///
    /// # Panics
    ///
    /// Panics if no such entry exists.
    pub fn entry_element(&self, name: &str) -> ElementId {
        let i = self
            .program
            .monitor
            .entry_index(name)
            .unwrap_or_else(|| panic!("unknown entry {name:?}"));
        self.entry_els[i]
    }

    /// The element of monitor or shared variable `name`.
    ///
    /// # Panics
    ///
    /// Panics if no such variable exists.
    pub fn var_element(&self, name: &str) -> ElementId {
        *self
            .var_els
            .get(name)
            .unwrap_or_else(|| panic!("unknown variable {name:?}"))
    }

    /// The element of condition `name`.
    ///
    /// # Panics
    ///
    /// Panics if no such condition exists.
    pub fn cond_element(&self, name: &str) -> ElementId {
        *self
            .cond_els
            .get(name)
            .unwrap_or_else(|| panic!("unknown condition {name:?}"))
    }

    /// Class id of a built-in monitor event class (`"Call"`, `"Req"`,
    /// `"Assign"`, …) or a declared user class.
    ///
    /// # Panics
    ///
    /// Panics if the class is unknown.
    pub fn class(&self, name: &str) -> ClassId {
        match name {
            "Call" => self.cls.call,
            "Return" => self.cls.ret,
            "Req" => self.cls.req,
            "Acquire" => self.cls.acquire,
            "Release" => self.cls.release,
            "Begin" => self.cls.begin,
            "End" => self.cls.end,
            "Assign" => self.cls.assign,
            "Getval" => self.cls.getval,
            "Wait" => self.cls.wait,
            "Signal" => self.cls.signal,
            "Resume" => self.cls.resume,
            "Init" => self.cls.init,
            other => *self
                .user_cls
                .get(other)
                .unwrap_or_else(|| panic!("unknown class {other:?}")),
        }
    }

    /// Seals the computation accumulated in `state`.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError`] if the trace is cyclic — which would indicate
    /// a simulator bug, as emitted edges always point forward in time.
    pub fn computation(&self, state: &MonitorState) -> Result<Computation, BuildError> {
        state.builder.seal_ref()
    }

    fn emit(
        &self,
        state: &mut MonitorState,
        pid: Option<usize>,
        element: ElementId,
        class: ClassId,
        params: impl IntoIterator<Item = Value>,
        extra_enablers: impl IntoIterator<Item = EventId>,
    ) -> EventId {
        let e = state
            .builder
            .add_event(element, class, params)
            .expect("ids are from this structure");
        if let Some(p) = pid {
            if let Some(last) = state.ctl.procs[p].last {
                state.builder.enable(last, e).expect("known events");
            }
            state.ctl.procs[p].last = Some(e);
        }
        for x in extra_enablers {
            state.builder.enable(x, e).expect("known events");
        }
        e
    }

    /// Resolves the commutativity class of `action` in `state`: monitor
    /// code (`Enter`/`Resume`) or the script step a `Step` will perform.
    fn action_class<'a>(&'a self, state: &MonitorState, action: &MonitorAction) -> ActionClass<'a> {
        match *action {
            MonitorAction::Enter(_) | MonitorAction::Resume(_) => ActionClass::Entry,
            MonitorAction::Step(pid) => {
                ActionClass::Step(&self.step_class[pid][state.ctl.procs[pid].script_pos])
            }
        }
    }

    /// Entry indices whose bodies the monitor action `action` can execute
    /// within one scheduler action: the acting process's entry plus,
    /// under Hoare semantics, every parked continuation a signal chain or
    /// urgent-stack pop could run before the action returns (processes
    /// `Waiting` on a condition or parked `Urgent`). Under Mesa
    /// signal-and-continue, no other process's code runs within the
    /// action, so only the acting entry is involved.
    fn involved_entries<'a>(
        &'a self,
        state: &'a MonitorState,
        action: &MonitorAction,
    ) -> impl Iterator<Item = usize> + 'a {
        let acting = match *action {
            // The entry index is not in `ProcRuntime::entry` yet (that is
            // set by `apply`); resolve it from the call step.
            MonitorAction::Enter(pid) => {
                match self.code.steps[pid][state.ctl.procs[pid].script_pos] {
                    StepCode::Call { entry } => Some(entry),
                    _ => None,
                }
            }
            MonitorAction::Resume(pid) => state.ctl.procs[pid].entry,
            MonitorAction::Step(_) => None,
        };
        let hoare = self.program.semantics == SignalSemantics::Hoare;
        let parked = state
            .ctl
            .procs
            .iter()
            .filter(move |p| hoare && matches!(p.status, Status::Waiting | Status::Urgent))
            .filter_map(|p| p.entry);
        acting.into_iter().chain(parked)
    }

    /// Whether monitor code (an entry execution, including any signal
    /// chain) commutes with the given script step. Entry code emits on
    /// the lock, entry, condition, and monitor-variable elements plus the
    /// acting processes' own user elements — never on another *enabled*
    /// process's element — so the only conflicts are lock traffic and
    /// variable footprint overlap. The footprint is the union over
    /// exactly the entries `action` can run in `state`
    /// ([`MonitorSystem::involved_entries`]), so entries over disjoint
    /// variables commute with unrelated shared accesses.
    fn entry_commutes_with(
        &self,
        state: &MonitorState,
        action: &MonitorAction,
        s: &StepClass,
    ) -> bool {
        match s {
            // A call emits `Req` on the lock element: its order against
            // the entry's `Acquire`/`Release` is part of the computation.
            StepClass::Call => false,
            StepClass::Event => true,
            // Entry reads are silent (no event), so a `Getval` commutes
            // unless the entry can change the value it observes.
            StepClass::Read(v) => self
                .involved_entries(state, action)
                .all(|e| !self.entry_footprints[e].1.contains(v)),
            StepClass::Write { var, reads } => self.involved_entries(state, action).all(|e| {
                let (entry_reads, entry_writes) = &self.entry_footprints[e];
                !entry_writes.contains(var)
                    && !entry_reads.contains(var)
                    && reads.iter().all(|r| !entry_writes.contains(r))
            }),
        }
    }

    /// Whether two script steps of *distinct* processes commute. Calls
    /// and local events carry pre-evaluated values and emit only on the
    /// acting process's own element (plus, for calls, the lock — handled
    /// by the `(Call, Call)` arm); shared accesses conflict exactly on
    /// variable overlap.
    fn steps_commute(s: &StepClass, t: &StepClass) -> bool {
        use StepClass::*;
        match (s, t) {
            // Request order on the lock element is observable.
            (Call, Call) => false,
            (Call | Event, _) | (_, Call | Event) => true,
            // Same variable ⇒ same element ⇒ the per-element event order
            // (and hence the canonical key) would change.
            (Read(v), Read(w)) => v != w,
            (Read(v), Write { var, .. }) | (Write { var, .. }, Read(v)) => v != var,
            (Write { var: v1, reads: r1 }, Write { var: v2, reads: r2 }) => {
                v1 != v2 && !r1.contains(v2.as_str()) && !r2.contains(v1.as_str())
            }
        }
    }

    /// Runs process `pid` (which holds the monitor) through its entry's
    /// flat program from its saved `pc` until it waits, hands off on a
    /// signal to a waiter, or finishes the entry.
    fn run(&self, state: &mut MonitorState, pid: usize) {
        loop {
            let entry_idx = state.ctl.procs[pid].entry.expect("running inside an entry");
            let prog = &self.code.entries[entry_idx];
            let pc = state.ctl.procs[pid].pc as usize;
            match &prog.ops[pc] {
                MOp::Assign { gslot, el, expr } => {
                    let v = self
                        .code
                        .pool
                        .eval(*expr, &state.ctl.gslots, &state.ctl.procs[pid].lslots)
                        .unwrap_or_else(|e| panic!("monitor runtime error: {e}"));
                    state.ctl.gslots[*gslot as usize] = v;
                    let pair = &self.code.entry_params[entry_idx][pid];
                    self.emit(
                        state,
                        Some(pid),
                        *el,
                        self.cls.assign,
                        [v, pair[0], pair[1]],
                        [],
                    );
                    state.ctl.procs[pid].pc = pc as u32 + 1;
                }
                MOp::AssignUnknown { name, expr } => {
                    // The expression error (if any) surfaces before the
                    // unknown-variable panic.
                    let _ = self
                        .code
                        .pool
                        .eval(*expr, &state.ctl.gslots, &state.ctl.procs[pid].lslots)
                        .unwrap_or_else(|e| panic!("monitor runtime error: {e}"));
                    panic!("unknown variable {name:?}");
                }
                MOp::JumpIfFalse { cond, target, kind } => {
                    let b = self
                        .code
                        .pool
                        .eval(*cond, &state.ctl.gslots, &state.ctl.procs[pid].lslots)
                        .unwrap_or_else(|e| panic!("monitor runtime error: {e}"))
                        .as_bool()
                        .unwrap_or_else(|| panic!("{}", kind.expect_msg()));
                    state.ctl.procs[pid].pc = if b { pc as u32 + 1 } else { *target };
                }
                MOp::Jump(target) => state.ctl.procs[pid].pc = *target,
                MOp::Wait { cond, el } => {
                    let wait_ev = self.emit(
                        state,
                        Some(pid),
                        *el,
                        self.cls.wait,
                        [Value::Int(pid as i64)],
                        [],
                    );
                    state.ctl.procs[pid].wait_event = Some(wait_ev);
                    self.emit(
                        state,
                        Some(pid),
                        self.lock_el,
                        self.cls.release,
                        [Value::Int(pid as i64)],
                        [],
                    );
                    state.ctl.queues[*cond as usize].push_back(pid);
                    state.ctl.procs[pid].status = Status::Waiting;
                    // Resume point: the op after the WAIT.
                    state.ctl.procs[pid].pc = pc as u32 + 1;
                    state.ctl.lock = None;
                    self.pop_urgent(state);
                    return;
                }
                MOp::Signal { cond, el } => {
                    let sig = self.emit(
                        state,
                        Some(pid),
                        *el,
                        self.cls.signal,
                        [Value::Int(pid as i64)],
                        [],
                    );
                    let waiter = state.ctl.queues[*cond as usize].pop_front();
                    state.ctl.procs[pid].pc = pc as u32 + 1;
                    if let Some(w) = waiter {
                        match self.program.semantics {
                            SignalSemantics::Hoare => {
                                state.ctl.urgent.push(pid);
                                state.ctl.procs[pid].status = Status::Urgent;
                                state.ctl.lock = Some(w);
                                state.ctl.procs[w].status = Status::Ready;
                                let we = state.ctl.procs[w].wait_event.take();
                                self.emit(
                                    state,
                                    Some(w),
                                    *el,
                                    self.cls.resume,
                                    [Value::Int(w as i64)],
                                    [Some(sig), we].into_iter().flatten(),
                                );
                                self.run(state, w);
                                return;
                            }
                            SignalSemantics::Mesa => {
                                state.ctl.procs[w].status = Status::ReAcquire;
                                state.ctl.procs[w].pending_signal = Some(sig);
                                state.ctl.procs[w].resume_cond = Some(*cond);
                            }
                        }
                    }
                }
                MOp::JumpIfQueueEmpty { cond, target } => {
                    let nonempty = !state.ctl.queues[*cond as usize].is_empty();
                    state.ctl.procs[pid].pc = if nonempty { pc as u32 + 1 } else { *target };
                }
                MOp::UnknownCond { name, queue_probe } => {
                    if *queue_probe {
                        // The queue lookup's `expect` message.
                        panic!("known condition");
                    }
                    panic!("unknown condition {name:?}");
                }
                MOp::End => {
                    self.finish_entry(state, pid);
                    return;
                }
            }
        }
    }

    fn finish_entry(&self, state: &mut MonitorState, pid: usize) {
        let entry_idx = state.ctl.procs[pid]
            .entry
            .expect("finishing inside an entry");
        let entry_name = self.code.entry_params[entry_idx][pid][0];
        self.emit(
            state,
            Some(pid),
            self.entry_els[entry_idx],
            self.cls.end,
            [Value::Int(pid as i64)],
            [],
        );
        let rel = self.emit(
            state,
            Some(pid),
            self.lock_el,
            self.cls.release,
            [Value::Int(pid as i64)],
            [],
        );
        self.emit(
            state,
            Some(pid),
            self.user_els[pid],
            self.cls.ret,
            [entry_name],
            [],
        );
        let proc = &mut state.ctl.procs[pid];
        proc.entry = None;
        proc.lslots.clear();
        proc.pc = 0;
        proc.script_pos += 1;
        proc.status = if proc.script_pos >= self.program.processes[pid].script.len() {
            Status::Done
        } else {
            Status::Ready
        };
        let _ = rel;
        state.ctl.lock = None;
        self.pop_urgent(state);
    }

    fn advance_script(&self, state: &mut MonitorState, pid: usize) {
        let proc = &mut state.ctl.procs[pid];
        proc.script_pos += 1;
        if proc.script_pos >= self.program.processes[pid].script.len() {
            proc.status = Status::Done;
        }
    }

    fn pop_urgent(&self, state: &mut MonitorState) {
        if let Some(s) = state.ctl.urgent.pop() {
            state.ctl.lock = Some(s);
            state.ctl.procs[s].status = Status::Ready;
            self.emit(
                state,
                Some(s),
                self.lock_el,
                self.cls.acquire,
                [Value::Int(s as i64)],
                [],
            );
            self.run(state, s);
        }
    }
}

impl System for MonitorSystem {
    type State = MonitorState;
    type Action = MonitorAction;
    type Checkpoint = SimCheckpoint;

    fn initial(&self) -> MonitorState {
        let ctl = MonitorCtl {
            gslots: self.code.init_gslots.clone(),
            procs: self
                .program
                .processes
                .iter()
                .map(|p| ProcRuntime {
                    script_pos: 0,
                    status: if p.script.is_empty() {
                        Status::Done
                    } else {
                        Status::Ready
                    },
                    entry: None,
                    lslots: Vec::new(),
                    pc: 0,
                    pending_args: Vec::new(),
                    last: None,
                    wait_event: None,
                    pending_signal: None,
                    resume_cond: None,
                })
                .collect(),
            lock: None,
            init_done: None,
            urgent: Vec::new(),
            queues: vec![VecDeque::new(); self.code.cond_els.len()],
        };
        let mut state = MonitorState {
            builder: ComputationBuilder::new(self.structure_arc()),
            ctl,
            rewind: Rewind::default(),
        };
        // Initialization code: an Init event followed by the initial
        // assignments. Monitor variables form one chain inside the
        // monitor (its tail enables the first acquisition); shared
        // variables form a separate chain off the Init event, since a
        // monitor-internal variable element may not enable events at a
        // top-level shared element's neighbours.
        let init_ev = self.emit(&mut state, None, self.init_el, self.cls.init, [], []);
        let mut last_internal = init_ev;
        for &(el, params) in &self.code.init_monitor {
            last_internal = self.emit(
                &mut state,
                None,
                el,
                self.cls.assign,
                params,
                [last_internal],
            );
        }
        let mut last_shared = init_ev;
        for &(el, params) in &self.code.init_shared {
            last_shared = self.emit(&mut state, None, el, self.cls.assign, params, [last_shared]);
        }
        state.ctl.init_done = Some(last_internal);
        state
    }

    fn enabled(&self, state: &MonitorState) -> Vec<MonitorAction> {
        let mut actions = Vec::new();
        for (pid, proc) in state.ctl.procs.iter().enumerate() {
            match proc.status {
                Status::Ready => actions.push(MonitorAction::Step(pid)),
                Status::Pending if state.ctl.lock.is_none() => {
                    actions.push(MonitorAction::Enter(pid));
                }
                Status::ReAcquire if state.ctl.lock.is_none() => {
                    actions.push(MonitorAction::Resume(pid));
                }
                _ => {}
            }
        }
        crate::explore::record_enabled_width(actions.len());
        actions
    }

    fn apply(&self, state: &mut MonitorState, action: &MonitorAction) {
        debug_assert!(state.ctl.lock.is_none(), "lock is free between actions");
        let t0 = crate::explore::apply_timer();
        state.rewind.save(&mut state.ctl);
        match *action {
            MonitorAction::Step(pid) => {
                let pos = state.ctl.procs[pid].script_pos;
                match &self.program.processes[pid].script[pos] {
                    ScriptStep::Call { args, .. } => {
                        let StepCode::Call { entry } = self.code.steps[pid][pos] else {
                            unreachable!("step codes mirror the script");
                        };
                        let [name, p_pid] = &self.code.entry_params[entry][pid];
                        self.emit(
                            state,
                            Some(pid),
                            self.user_els[pid],
                            self.cls.call,
                            [*name],
                            [],
                        );
                        self.emit(
                            state,
                            Some(pid),
                            self.lock_el,
                            self.cls.req,
                            [*name, *p_pid],
                            [],
                        );
                        state.ctl.procs[pid].pending_args.clone_from(args);
                        state.ctl.procs[pid].status = Status::Pending;
                    }
                    ScriptStep::Event { class, params } => {
                        let cid = self.class(class);
                        self.emit(
                            state,
                            Some(pid),
                            self.user_els[pid],
                            cid,
                            params.iter().copied(),
                            [],
                        );
                        self.advance_script(state, pid);
                    }
                    ScriptStep::ReadShared { .. } => {
                        let StepCode::Read { gslot, el } = self.code.steps[pid][pos] else {
                            unreachable!("step codes mirror the script");
                        };
                        let value = state.ctl.gslots[gslot as usize];
                        let [p_empty, p_pid] = self.code.shared_params[pid];
                        self.emit(
                            state,
                            Some(pid),
                            el,
                            self.cls.getval,
                            [value, p_empty, p_pid],
                            [],
                        );
                        self.advance_script(state, pid);
                    }
                    ScriptStep::WriteShared { .. } => {
                        let StepCode::Write { gslot, el, expr } = self.code.steps[pid][pos] else {
                            unreachable!("step codes mirror the script");
                        };
                        let v = self
                            .code
                            .pool
                            .eval(expr, &state.ctl.gslots, &[])
                            .unwrap_or_else(|e| panic!("monitor runtime error: {e}"));
                        state.ctl.gslots[gslot as usize] = v;
                        let [p_empty, p_pid] = self.code.shared_params[pid];
                        self.emit(
                            state,
                            Some(pid),
                            el,
                            self.cls.assign,
                            [v, p_empty, p_pid],
                            [],
                        );
                        self.advance_script(state, pid);
                    }
                }
            }
            MonitorAction::Enter(pid) => {
                let StepCode::Call { entry: entry_idx } =
                    self.code.steps[pid][state.ctl.procs[pid].script_pos]
                else {
                    panic!("Enter on a non-call step");
                };
                state.ctl.lock = Some(pid);
                // Lock handoff is ordering, not causality: the acquire is
                // ordered after the previous release by the lock element
                // order; no enable edge is drawn across transactions. The
                // one genuine cross edge is initialization enabling the
                // very first acquisition.
                let init_done = state.ctl.init_done.take();
                self.emit(
                    state,
                    Some(pid),
                    self.lock_el,
                    self.cls.acquire,
                    [Value::Int(pid as i64)],
                    init_done,
                );
                self.emit(
                    state,
                    Some(pid),
                    self.entry_els[entry_idx],
                    self.cls.begin,
                    [Value::Int(pid as i64)],
                    [],
                );
                let prog = &self.code.entries[entry_idx];
                let proc = &mut state.ctl.procs[pid];
                proc.lslots.clear();
                proc.lslots.resize(prog.params.len(), None);
                // Positional bind; a short args list leaves trailing
                // params unbound (the global scope shows through).
                for (&slot, arg) in prog.param_slots.iter().zip(proc.pending_args.drain(..)) {
                    proc.lslots[slot as usize] = Some(arg);
                }
                proc.pc = 0;
                proc.entry = Some(entry_idx);
                proc.status = Status::Ready; // running now
                self.run(state, pid);
            }
            MonitorAction::Resume(pid) => {
                // Mesa re-acquisition: the waiter takes the free lock and
                // resumes after its WAIT (without re-checking anything —
                // the program text must use WHILE for that).
                debug_assert_eq!(self.program.semantics, SignalSemantics::Mesa);
                state.ctl.lock = Some(pid);
                self.emit(
                    state,
                    Some(pid),
                    self.lock_el,
                    self.cls.acquire,
                    [Value::Int(pid as i64)],
                    [],
                );
                let cond = state.ctl.procs[pid]
                    .resume_cond
                    .take()
                    .expect("resuming from a condition");
                let sig = state.ctl.procs[pid].pending_signal.take();
                let we = state.ctl.procs[pid].wait_event.take();
                state.ctl.procs[pid].status = Status::Ready;
                self.emit(
                    state,
                    Some(pid),
                    self.code.cond_els[cond as usize],
                    self.cls.resume,
                    [Value::Int(pid as i64)],
                    [sig, we].into_iter().flatten(),
                );
                self.run(state, pid);
            }
        }
        crate::explore::record_apply_ns(t0);
    }

    fn is_complete(&self, state: &MonitorState) -> bool {
        state.ctl.procs.iter().all(|p| p.status == Status::Done)
    }

    fn control_key(&self, state: &MonitorState) -> Option<u64> {
        let mut h = DefaultHasher::new();
        // Slot order is a fixed function of the program, so hashing
        // slots positionally is as stable as hashing names.
        state.ctl.gslots.hash(&mut h);
        for p in &state.ctl.procs {
            p.script_pos.hash(&mut h);
            p.status.hash(&mut h);
            p.entry.hash(&mut h);
            p.pc.hash(&mut h);
            p.lslots.hash(&mut h);
        }
        state.ctl.lock.hash(&mut h);
        state.ctl.urgent.hash(&mut h);
        state.ctl.queues.hash(&mut h);
        Some(h.finish())
    }

    fn checkpoint(&self, state: &MonitorState) -> Option<SimCheckpoint> {
        Some(state.rewind.checkpoint(&state.builder))
    }

    fn undo(&self, state: &mut MonitorState, cp: SimCheckpoint) {
        let MonitorState {
            builder,
            ctl,
            rewind,
        } = state;
        crate::explore::record_undo_depth(rewind.undo(builder, ctl, cp));
    }

    /// Independence oracle for sleep-set POR. Each process contributes at
    /// most one enabled action per state, so the two actions always
    /// belong to distinct processes; they commute when their
    /// commutativity classes touch disjoint elements and variables (see
    /// `MonitorSystem::entry_commutes_with` /
    /// `MonitorSystem::steps_commute`).
    fn trace_builder<'a>(&self, state: &'a MonitorState) -> Option<&'a ComputationBuilder> {
        // Every edge the simulation emits targets the event it just
        // added, so the builder satisfies the monotone-journal contract.
        Some(&state.builder)
    }

    fn independent(&self, state: &MonitorState, a: &MonitorAction, b: &MonitorAction) -> bool {
        let pid = |action: &MonitorAction| match *action {
            MonitorAction::Step(p) | MonitorAction::Enter(p) | MonitorAction::Resume(p) => p,
        };
        if pid(a) == pid(b) {
            return false;
        }
        match (self.action_class(state, a), self.action_class(state, b)) {
            // Two monitor executions serialize on the lock element.
            (ActionClass::Entry, ActionClass::Entry) => false,
            (ActionClass::Entry, ActionClass::Step(s)) => self.entry_commutes_with(state, a, s),
            (ActionClass::Step(s), ActionClass::Entry) => self.entry_commutes_with(state, b, s),
            (ActionClass::Step(s), ActionClass::Step(t)) => Self::steps_commute(s, t),
        }
    }
}

impl MonitorState {
    /// The number of events emitted so far.
    pub fn event_count(&self) -> usize {
        self.builder.event_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::{find_deadlock, Explorer};
    use crate::monitor::def::{readers_writers_monitor, MonitorDef, ProcessDef};
    use crate::Expr;
    use gem_core::{check_legality, is_legal};
    use gem_obs::NoopProbe;
    use std::ops::ControlFlow;

    fn call(entry: &str) -> ScriptStep {
        ScriptStep::Call {
            entry: entry.into(),
            args: vec![],
        }
    }

    /// A counter monitor: one entry incrementing a variable.
    fn counter_program(n_procs: usize, incs_each: usize) -> MonitorProgram {
        let monitor = MonitorDef::new("Counter").var("count", 0i64).entry(
            "Inc",
            &[],
            vec![Stmt::assign("count", Expr::var("count").add(Expr::int(1)))],
        );
        let mut prog = MonitorProgram::new(monitor);
        for i in 0..n_procs {
            prog = prog.process(ProcessDef::new(
                format!("p{i}"),
                vec![call("Inc"); incs_each],
            ));
        }
        prog
    }

    #[test]
    fn counter_single_run() {
        let sys = MonitorSystem::new(counter_program(2, 2));
        let explorer = Explorer::default();
        let mut runs = 0;
        explorer.for_each_run(&sys, |state, _| {
            runs += 1;
            assert!(sys.is_complete(state));
            assert_eq!(sys.global(state, "count"), Some(&Value::Int(4)));
            ControlFlow::Continue(())
        });
        assert!(runs > 1, "multiple schedules explored: {runs}");
    }

    #[test]
    fn computations_are_legal() {
        let sys = MonitorSystem::new(counter_program(2, 1));
        Explorer::default().for_each_run(&sys, |state, _| {
            let c = sys.computation(state).expect("acyclic");
            let violations = check_legality(&c);
            assert!(
                violations.is_empty(),
                "{:?}",
                violations
                    .iter()
                    .map(|v| v.describe(&c))
                    .collect::<Vec<_>>()
            );
            ControlFlow::Continue(())
        });
    }

    #[test]
    fn monitor_events_mutually_exclusive_in_time() {
        // All Begin/End events are totally ordered by the temporal order —
        // the paper's "sequential execution of monitor entries".
        let sys = MonitorSystem::new(counter_program(3, 1));
        Explorer::default().for_each_run(&sys, |state, _| {
            let c = sys.computation(state).unwrap();
            let begins: Vec<_> = c.events_of_class(sys.class("Begin")).collect();
            let ends: Vec<_> = c.events_of_class(sys.class("End")).collect();
            let all: Vec<_> = begins.iter().chain(ends.iter()).copied().collect();
            for (i, &a) in all.iter().enumerate() {
                for &b in &all[i + 1..] {
                    assert!(
                        !c.concurrent(a, b),
                        "monitor-internal events must be ordered"
                    );
                }
            }
            ControlFlow::Continue(())
        });
    }

    #[test]
    fn wait_and_signal_produce_resume_chain() {
        // One-slot buffer style: consumer waits until producer signals.
        let monitor = MonitorDef::new("Gate")
            .var("ready", Value::Bool(false))
            .condition("go")
            .entry(
                "Open",
                &[],
                vec![Stmt::assign("ready", Expr::bool(true)), Stmt::signal("go")],
            )
            .entry(
                "Pass",
                &[],
                vec![Stmt::if_then(
                    Expr::var("ready").not(),
                    vec![Stmt::wait("go")],
                )],
            );
        let prog = MonitorProgram::new(monitor)
            .process(ProcessDef::new("consumer", vec![call("Pass")]))
            .process(ProcessDef::new("producer", vec![call("Open")]));
        let sys = MonitorSystem::new(prog);
        let mut saw_resume = false;
        Explorer::default().for_each_run(&sys, |state, _| {
            assert!(sys.is_complete(state), "no deadlock");
            let c = sys.computation(state).unwrap();
            assert!(is_legal(&c));
            let resumes: Vec<_> = c.events_of_class(sys.class("Resume")).collect();
            if !resumes.is_empty() {
                saw_resume = true;
                // Resume is enabled by exactly one Signal (§8.2's Monitor
                // prerequisite).
                for &r in &resumes {
                    let signal_enablers = c
                        .enablers_of(r)
                        .iter()
                        .filter(|&&e| c.event(e).class() == sys.class("Signal"))
                        .count();
                    assert_eq!(signal_enablers, 1);
                }
            }
            ControlFlow::Continue(())
        });
        assert!(saw_resume, "some schedule makes the consumer wait");
    }

    #[test]
    fn deadlock_detected_when_nobody_signals() {
        let monitor = MonitorDef::new("Stuck")
            .var("ready", Value::Bool(false))
            .condition("go")
            .entry(
                "Pass",
                &[],
                vec![Stmt::if_then(
                    Expr::var("ready").not(),
                    vec![Stmt::wait("go")],
                )],
            );
        let prog =
            MonitorProgram::new(monitor).process(ProcessDef::new("consumer", vec![call("Pass")]));
        let sys = MonitorSystem::new(prog);
        let witness = find_deadlock(&sys, &Explorer::default(), &NoopProbe);
        assert!(witness.is_some(), "waiting with no signaller deadlocks");
    }

    #[test]
    fn rw_monitor_runs_and_counts() {
        let prog = MonitorProgram::new(readers_writers_monitor())
            .process(ProcessDef::new(
                "r0",
                vec![call("StartRead"), call("EndRead")],
            ))
            .process(ProcessDef::new(
                "w0",
                vec![call("StartWrite"), call("EndWrite")],
            ));
        let sys = MonitorSystem::new(prog);
        let stats = Explorer::default().for_each_run(&sys, |state, _| {
            assert!(sys.is_complete(state), "RW monitor must not deadlock");
            assert_eq!(sys.global(state, "readernum"), Some(&Value::Int(0)));
            ControlFlow::Continue(())
        });
        assert!(stats.runs >= 2, "read-first and write-first schedules");
        assert!(!stats.truncated());
    }

    #[test]
    fn entry_params_bound() {
        let monitor = MonitorDef::new("Store").var("x", 0i64).entry(
            "Set",
            &["v"],
            vec![Stmt::assign("x", Expr::var("v"))],
        );
        let prog = MonitorProgram::new(monitor).process(ProcessDef::new(
            "p",
            vec![ScriptStep::Call {
                entry: "Set".into(),
                args: vec![Value::Int(42)],
            }],
        ));
        let sys = MonitorSystem::new(prog);
        Explorer::default().for_each_run(&sys, |state, _| {
            assert_eq!(sys.global(state, "x"), Some(&Value::Int(42)));
            ControlFlow::Continue(())
        });
    }

    #[test]
    fn while_loop_executes() {
        let monitor = MonitorDef::new("Loop").var("x", 0i64).entry(
            "Count",
            &[],
            vec![Stmt::While(
                Expr::var("x").lt(Expr::int(3)),
                vec![Stmt::assign("x", Expr::var("x").add(Expr::int(1)))],
            )],
        );
        let prog = MonitorProgram::new(monitor).process(ProcessDef::new("p", vec![call("Count")]));
        let sys = MonitorSystem::new(prog);
        Explorer::default().for_each_run(&sys, |state, _| {
            assert_eq!(sys.global(state, "x"), Some(&Value::Int(3)));
            ControlFlow::Continue(())
        });
    }

    #[test]
    fn shared_variable_events_outside_monitor() {
        let monitor = MonitorDef::new("M").entry("Nop", &[], vec![]);
        let prog = MonitorProgram::new(monitor)
            .shared_var("data", 5i64)
            .process(ProcessDef::new(
                "p",
                vec![
                    ScriptStep::WriteShared {
                        var: "data".into(),
                        value: Expr::int(9),
                    },
                    ScriptStep::ReadShared { var: "data".into() },
                ],
            ));
        let sys = MonitorSystem::new(prog);
        Explorer::default().for_each_run(&sys, |state, _| {
            let c = sys.computation(state).unwrap();
            assert!(is_legal(&c));
            let getvals: Vec<_> = c.events_of_class(sys.class("Getval")).collect();
            assert_eq!(getvals.len(), 1);
            assert_eq!(c.event(getvals[0]).param(0), Some(&Value::Int(9)));
            ControlFlow::Continue(())
        });
    }

    #[test]
    #[should_panic(expected = "unknown entry")]
    fn unknown_entry_rejected_eagerly() {
        let monitor = MonitorDef::new("M").entry("E", &[], vec![]);
        let prog = MonitorProgram::new(monitor).process(ProcessDef::new("p", vec![call("Nope")]));
        let _ = MonitorSystem::new(prog);
    }

    /// Every run of these programs, in DFS order and including every
    /// event parameter, matches what the tree-walking interpreter this
    /// execution path replaced produced (the `unit/monitor/*` rows of
    /// `tests/golden/step_semantics.json`). The gate program parks and
    /// resumes through a Hoare handoff.
    #[test]
    fn compiled_matches_interpreted() {
        let gate = MonitorDef::new("Gate")
            .var("ready", Value::Bool(false))
            .condition("go")
            .entry(
                "Open",
                &[],
                vec![Stmt::assign("ready", Expr::bool(true)), Stmt::signal("go")],
            )
            .entry(
                "Pass",
                &[],
                vec![Stmt::While(
                    Expr::var("ready").not(),
                    vec![Stmt::wait("go")],
                )],
            );
        let programs = [
            ("unit/monitor/counter", counter_program(2, 2)),
            (
                "unit/monitor/readers-writers",
                MonitorProgram::new(readers_writers_monitor())
                    .process(ProcessDef::new(
                        "r0",
                        vec![call("StartRead"), call("EndRead")],
                    ))
                    .process(ProcessDef::new(
                        "w0",
                        vec![call("StartWrite"), call("EndWrite")],
                    )),
            ),
            (
                "unit/monitor/wait-signal",
                MonitorProgram::new(gate)
                    .process(ProcessDef::new("consumer", vec![call("Pass")]))
                    .process(ProcessDef::new("producer", vec![call("Open")])),
            ),
        ];
        for (name, prog) in programs {
            let sys = MonitorSystem::new(prog);
            crate::golden::assert_golden(name, &sys, |s| sys.computation(s).expect("acyclic"));
        }
    }

    #[test]
    fn code_stats_populated() {
        let sys = MonitorSystem::new(counter_program(2, 1));
        let stats = sys.code_stats();
        assert!(stats.exprs >= 1, "{stats:?}");
        assert!(stats.ops >= 2, "{stats:?}");
        assert_eq!(stats.programs, 1, "{stats:?}");
        assert!(stats.slots >= 1, "{stats:?}");
    }

    #[test]
    fn lock_port_is_registered() {
        let sys = MonitorSystem::new(counter_program(1, 1));
        let s = sys.structure();
        let g = s.group("Counter").unwrap();
        assert!(s
            .group_info(g)
            .has_port(sys.lock_element(), sys.class("Req")));
    }
}
