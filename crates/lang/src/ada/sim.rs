//! Execution of ADA tasking programs into GEM computations.
//!
//! Event vocabulary per task `t`:
//!
//! | Element | Classes (params) |
//! |---------|------------------|
//! | `<t>.flow` | `CallSent(callee, entry)`, `Returned(callee, entry)` |
//! | `<t>.entry.<e>` | `Call(caller)`, `Accept(caller)`, `Complete(caller)` |
//! | `<t>.var.<v>` | `Assign(newval)` |
//!
//! Each task is a GEM group; its entry `Call` classes and its flow
//! `Returned` class are ports — calls arrive from outside, and the
//! rendezvous completion re-enables the caller across the firewall.
//!
//! A rendezvous produces `CallSent ⊳ Call ⊳ Accept ⊳ (body) ⊳ Complete ⊳
//! Returned`, with the caller suspended between `Call` and `Returned` —
//! GEM's picture of ADA's extended rendezvous. Entry queues are FIFO in
//! call-arrival order, and arrival order is a scheduler choice, so all
//! service orders are explored.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use gem_core::{
    BuildError, ClassId, Computation, ComputationBuilder, ElementId, EventId, NodeRef, Structure,
    Sym, Value,
};

use crate::ada::def::{AcceptArm, AdaProgram, AdaStmt};
use crate::code::{CodeStats, CondKind, ExprId, ExprPool, SlotLayout};
use crate::explore::System;
use crate::rewind::{Rewind, SimCheckpoint};
use std::time::Instant;

/// A compiled ADA program ready to execute.
#[derive(Clone, Debug)]
pub struct AdaSystem {
    program: AdaProgram,
    structure: Arc<Structure>,
    call_sent: ClassId,
    returned: ClassId,
    call: ClassId,
    accept: ClassId,
    complete: ClassId,
    assign: ClassId,
    flow_els: Vec<ElementId>,
    entry_els: Vec<BTreeMap<String, ElementId>>,
    /// Compiled per-task programs, built once at construction.
    code: Arc<AdaCode>,
}

/// Compiled form of an ADA program: slot-resolved task-local scopes,
/// postfix expression code, flat statement programs with rendezvous-body
/// regions, and interned task-name values.
#[derive(Clone, Debug)]
struct AdaCode {
    pool: ExprPool,
    progs: Vec<AProg>,
    /// `Value::Str(task_name)` per task, copied into `Call` / `Accept` /
    /// `Complete` params; the name is interned once here.
    name_values: Vec<Value>,
    /// Number of `(task, entry)` queue slots (every task's entries, in
    /// task then declaration order).
    queue_slots: usize,
    stats: CodeStats,
}

/// One task body as a flat program.
#[derive(Clone, Debug)]
struct AProg {
    ops: Vec<AOp>,
    /// Local scope: declared locals plus every accept-arm formal.
    locals: SlotLayout,
    /// Initial slot values (declared locals bound, formals unbound).
    init: Vec<Option<Value>>,
    /// Every accept arm of the task, indexed by [`AOp::Accept`] /
    /// [`AOp::Select`].
    arms: Vec<ArmTpl>,
}

/// A compiled accept arm: everything a rendezvous needs without touching
/// the statement tree.
#[derive(Clone, Debug)]
struct ArmTpl {
    entry: Sym,
    entry_el: ElementId,
    /// Queue slot of `(this task, entry)`.
    slot: u32,
    /// Slots the queued call's arguments bind to.
    param_slots: Vec<u32>,
    /// Start of the body region (runs to [`AOp::EndBody`]).
    body_pc: u32,
    /// Where the callee resumes once the rendezvous completes.
    cont_pc: u32,
}

/// One flat ADA instruction.
#[derive(Clone, Debug)]
enum AOp {
    /// Evaluate and bind a declared local, emitting `Assign`.
    Assign {
        slot: u32,
        el: ElementId,
        expr: ExprId,
    },
    /// Assignment to an undeclared local: evaluate (surfacing expression
    /// errors first), then panic.
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
    /// An entry call. The pc parks here through `ReadyToCall` and
    /// `InCall`; the rendezvous advances it when `Returned` fires.
    Call {
        callee: usize,
        entry: String,
        entry_el: ElementId,
        /// Queue slot of `(callee, entry)`.
        slot: u32,
        args: Vec<ExprId>,
        /// `[Str(callee_name), Str(entry)]`, the params of both the
        /// `CallSent` and the `Returned` events.
        callee_params: [Value; 2],
    },
    /// Block on one accept arm.
    Accept(u32),
    /// Evaluate guards, block on the open arms.
    Select(Vec<(Option<ExprId>, u32)>),
    /// End of a rendezvous-body region.
    EndBody,
    /// Task body finished.
    End,
}

fn patch_ajump(ops: &mut [AOp], at: usize, to: u32) {
    match &mut ops[at] {
        AOp::JumpIfFalse { target, .. } | AOp::Jump(target) => *target = to,
        other => unreachable!("patching non-jump {other:?}"),
    }
}

/// Interns every accept-arm formal of `stmts` into `layout`, so formals
/// have slots before any expression referencing them compiles.
fn collect_arm_params(stmts: &[AdaStmt], layout: &mut SlotLayout) {
    for st in stmts {
        match st {
            AdaStmt::Accept(arm) => {
                for p in &arm.params {
                    layout.intern(p);
                }
                collect_arm_params(&arm.body, layout);
            }
            AdaStmt::Select(branches) => {
                for b in branches {
                    for p in &b.accept.params {
                        layout.intern(p);
                    }
                    collect_arm_params(&b.accept.body, layout);
                }
            }
            AdaStmt::If(_, a, b) => {
                collect_arm_params(a, layout);
                collect_arm_params(b, layout);
            }
            AdaStmt::While(_, b) => collect_arm_params(b, layout),
            AdaStmt::Assign(..) | AdaStmt::EntryCall { .. } => {}
        }
    }
}

/// Compiles one task body into a flat [`AOp`] program.
struct AdaCompiler<'a> {
    pool: &'a mut ExprPool,
    locals: &'a SlotLayout,
    /// Empty: ADA tasks share no variables.
    globals: &'a SlotLayout,
    var_els: &'a BTreeMap<String, ElementId>,
    entry_els: &'a [BTreeMap<String, ElementId>],
    /// First queue slot of each task.
    slot_base: &'a [u32],
    program: &'a AdaProgram,
    tid: usize,
    ops: Vec<AOp>,
    arms: Vec<ArmTpl>,
    /// Arm bodies compiled into regions after `End` (validation already
    /// rejected nested rendezvous, so this drains in one pass).
    pending: Vec<(usize, &'a [AdaStmt])>,
}

impl<'a> AdaCompiler<'a> {
    fn expr(&mut self, e: &crate::ast::Expr) -> ExprId {
        self.pool.compile(e, self.locals, self.globals)
    }

    /// The queue slot of `(task, entry)`.
    fn slot(&self, task: usize, entry: &str) -> u32 {
        let pos = self.program.tasks[task]
            .entries
            .iter()
            .position(|e| e == entry)
            .expect("validated");
        self.slot_base[task] + pos as u32
    }

    fn arm(&mut self, arm: &'a AcceptArm, cont_pc: u32) -> u32 {
        let idx = self.arms.len() as u32;
        let param_slots = arm
            .params
            .iter()
            .map(|p| self.locals.get(p).expect("formals interned"))
            .collect();
        self.arms.push(ArmTpl {
            entry: arm.entry.as_str().into(),
            entry_el: self.entry_els[self.tid][&arm.entry],
            slot: self.slot(self.tid, &arm.entry),
            param_slots,
            body_pc: 0, // patched in finish()
            cont_pc,
        });
        self.pending.push((idx as usize, &arm.body));
        idx
    }

    fn compile(&mut self, stmts: &'a [AdaStmt]) {
        for st in stmts {
            match st {
                AdaStmt::Assign(var, expr) => {
                    let expr = self.expr(expr);
                    match (self.locals.get(var), self.var_els.get(var)) {
                        (Some(slot), Some(&el)) => {
                            self.ops.push(AOp::Assign { slot, el, expr });
                        }
                        _ => self.ops.push(AOp::AssignUnknown {
                            name: var.clone(),
                            expr,
                        }),
                    }
                }
                AdaStmt::If(cond, then_branch, else_branch) => {
                    let cond = self.expr(cond);
                    let jf = self.ops.len();
                    self.ops.push(AOp::JumpIfFalse {
                        cond,
                        target: 0,
                        kind: CondKind::If,
                    });
                    self.compile(then_branch);
                    if else_branch.is_empty() {
                        let end = self.ops.len() as u32;
                        patch_ajump(&mut self.ops, jf, end);
                    } else {
                        let j = self.ops.len();
                        self.ops.push(AOp::Jump(0));
                        let else_start = self.ops.len() as u32;
                        patch_ajump(&mut self.ops, jf, else_start);
                        self.compile(else_branch);
                        let end = self.ops.len() as u32;
                        patch_ajump(&mut self.ops, j, end);
                    }
                }
                AdaStmt::While(cond, body) => {
                    let head = self.ops.len() as u32;
                    let cond = self.expr(cond);
                    let jf = self.ops.len();
                    self.ops.push(AOp::JumpIfFalse {
                        cond,
                        target: 0,
                        kind: CondKind::While,
                    });
                    self.compile(body);
                    self.ops.push(AOp::Jump(head));
                    let end = self.ops.len() as u32;
                    patch_ajump(&mut self.ops, jf, end);
                }
                AdaStmt::EntryCall { task, entry, args } => {
                    let callee = self.program.task_index(task).expect("validated");
                    let args = args.iter().map(|a| self.expr(a)).collect();
                    self.ops.push(AOp::Call {
                        callee,
                        entry: entry.clone(),
                        entry_el: self.entry_els[callee][entry],
                        slot: self.slot(callee, entry),
                        args,
                        callee_params: [Value::from(task.as_str()), Value::from(entry.as_str())],
                    });
                }
                AdaStmt::Accept(arm) => {
                    let cont = self.ops.len() as u32 + 1;
                    let idx = self.arm(arm, cont);
                    self.ops.push(AOp::Accept(idx));
                }
                AdaStmt::Select(branches) => {
                    let cont = self.ops.len() as u32 + 1;
                    let arms = branches
                        .iter()
                        .map(|b| {
                            let guard = b.guard.as_ref().map(|g| self.expr(g));
                            (guard, self.arm(&b.accept, cont))
                        })
                        .collect();
                    self.ops.push(AOp::Select(arms));
                }
            }
        }
    }

    fn finish(mut self) -> (Vec<AOp>, Vec<ArmTpl>) {
        self.ops.push(AOp::End);
        let pending = std::mem::take(&mut self.pending);
        for (idx, body) in pending {
            let body_pc = self.ops.len() as u32;
            self.compile(body);
            self.ops.push(AOp::EndBody);
            self.arms[idx].body_pc = body_pc;
        }
        (self.ops, self.arms)
    }
}

#[derive(Clone, Copy, Debug)]
enum TStatus {
    /// Stopped at an [`AdaStmt::EntryCall`], waiting for the scheduler to
    /// issue it.
    ReadyToCall,
    /// Call issued; suspended in the callee's entry queue / rendezvous.
    InCall,
    /// Blocked at accept/select with the open arms in
    /// [`TaskState::open`].
    AtAccept,
    /// Task body finished.
    Done,
}

#[derive(Debug)]
struct TaskState {
    /// Slot-indexed locals (unbound = `None`).
    lslots: Vec<Option<Value>>,
    /// Program counter into the task's [`AProg`].
    pc: u32,
    status: TStatus,
    /// Open arm indices into the task's [`AProg::arms`] while
    /// [`TStatus::AtAccept`]; stale otherwise.
    open: Vec<u32>,
    /// Arguments of the task's outstanding entry call, evaluated when it
    /// was issued; stale once the call has returned. A task has at most
    /// one call outstanding, so its queue entry needs no copy.
    call_args: Vec<Value>,
    last: Option<EventId>,
}

/// `clone_from` refills the vectors in place, which a derived impl would
/// reallocate.
impl Clone for TaskState {
    fn clone(&self) -> Self {
        Self {
            lslots: self.lslots.clone(),
            open: self.open.clone(),
            call_args: self.call_args.clone(),
            ..*self
        }
    }

    fn clone_from(&mut self, src: &Self) {
        let mut lslots = std::mem::take(&mut self.lslots);
        let mut open = std::mem::take(&mut self.open);
        let mut call_args = std::mem::take(&mut self.call_args);
        lslots.clone_from(&src.lslots);
        open.clone_from(&src.open);
        call_args.clone_from(&src.call_args);
        *self = Self {
            lslots,
            open,
            call_args,
            ..*src
        };
    }
}

/// A queued entry call; its arguments are the caller's
/// [`TaskState::call_args`].
#[derive(Clone, Copy, Debug)]
struct QueuedCall {
    caller: usize,
    call_event: EventId,
}

/// Execution state of an ADA program.
#[derive(Clone, Debug)]
pub struct AdaState {
    builder: ComputationBuilder,
    ctl: AdaCtl,
    /// Pre-images of the applies since the state was created or cloned,
    /// for [`System::undo`].
    rewind: Rewind<AdaCtl>,
    /// Shared handle to the compiled code, so accessors can translate
    /// names to slots without the system in hand.
    code: Arc<AdaCode>,
}

/// The control state of an ADA program: everything but the trace.
#[derive(Debug)]
struct AdaCtl {
    tasks: Vec<TaskState>,
    /// Entry queues: FIFO of queued calls per `(task, entry)` slot.
    queues: Vec<VecDeque<QueuedCall>>,
}

/// `clone_from` refills every buffer in place, which a derived impl
/// would reallocate.
impl Clone for AdaCtl {
    fn clone(&self) -> Self {
        Self {
            tasks: self.tasks.clone(),
            queues: self.queues.clone(),
        }
    }

    fn clone_from(&mut self, src: &Self) {
        self.tasks.clone_from(&src.tasks);
        self.queues.clone_from(&src.queues);
    }
}

/// A scheduler choice for an ADA program.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AdaAction {
    /// Task `tid` issues its pending entry call (joins the callee queue).
    IssueCall(usize),
    /// Callee `tid` rendezvouses on `entry` with the queue-front caller.
    Rendezvous {
        /// The accepting task.
        tid: usize,
        /// The entry accepted.
        entry: Sym,
    },
}

impl AdaSystem {
    /// Compiles `program`: one GEM group per task with flow, entry, and
    /// variable elements; entry `Call`s and flow `Returned` as ports.
    ///
    /// # Panics
    ///
    /// Panics if a call references an unknown task/entry or an accept
    /// names an undeclared entry, or an accept body contains a nested
    /// rendezvous.
    pub fn new(program: AdaProgram) -> Self {
        let mut s = Structure::new();
        let call_sent = s
            .add_class("CallSent", &["callee", "entry"])
            .expect("fresh class");
        let returned = s
            .add_class("Returned", &["callee", "entry"])
            .expect("fresh class");
        let call = s.add_class("Call", &["caller"]).expect("fresh class");
        let accept = s.add_class("Accept", &["caller"]).expect("fresh class");
        let complete = s.add_class("Complete", &["caller"]).expect("fresh class");
        let assign = s.add_class("Assign", &["newval"]).expect("fresh class");

        let mut flow_els = Vec::new();
        let mut entry_els = Vec::new();
        let mut var_els = Vec::new();
        for t in &program.tasks {
            let flow = s
                .add_element(format!("{}.flow", t.name), &[call_sent, returned])
                .expect("flow element");
            let mut members: Vec<NodeRef> = vec![flow.into()];
            let mut entries = BTreeMap::new();
            for e in &t.entries {
                let el = s
                    .add_element(format!("{}.entry.{e}", t.name), &[call, accept, complete])
                    .expect("entry element");
                entries.insert(e.clone(), el);
                members.push(el.into());
            }
            let mut vars = BTreeMap::new();
            for (v, _) in &t.locals {
                let el = s
                    .add_element(format!("{}.var.{v}", t.name), &[assign])
                    .expect("var element");
                vars.insert(v.clone(), el);
                members.push(el.into());
            }
            let g = s.add_group(t.name.clone(), &members).expect("task group");
            for &el in entries.values() {
                s.add_port(g, el, call).expect("entry port");
            }
            s.add_port(g, flow, returned).expect("flow port");
            flow_els.push(flow);
            entry_els.push(entries);
            var_els.push(vars);
        }

        // Eager validation.
        fn check(program: &AdaProgram, tname: &str, stmts: &[AdaStmt], in_body: bool) {
            for st in stmts {
                match st {
                    AdaStmt::EntryCall { task, entry, .. } => {
                        assert!(!in_body, "task {tname:?}: nested rendezvous in accept body");
                        let ti = program.task_index(task).unwrap_or_else(|| {
                            panic!("task {tname:?} calls unknown task {task:?}")
                        });
                        assert!(
                            program.tasks[ti].entries.contains(entry),
                            "task {tname:?} calls unknown entry {task}.{entry}"
                        );
                    }
                    AdaStmt::Accept(arm) => {
                        assert!(!in_body, "task {tname:?}: nested accept in accept body");
                        let ti = program.task_index(tname).expect("own task");
                        assert!(
                            program.tasks[ti].entries.contains(&arm.entry),
                            "task {tname:?} accepts undeclared entry {:?}",
                            arm.entry
                        );
                        check(program, tname, &arm.body, true);
                    }
                    AdaStmt::Select(branches) => {
                        assert!(!in_body, "task {tname:?}: select in accept body");
                        for b in branches {
                            let ti = program.task_index(tname).expect("own task");
                            assert!(
                                program.tasks[ti].entries.contains(&b.accept.entry),
                                "task {tname:?} selects undeclared entry {:?}",
                                b.accept.entry
                            );
                            check(program, tname, &b.accept.body, true);
                        }
                    }
                    AdaStmt::If(_, a, b) => {
                        check(program, tname, a, in_body);
                        check(program, tname, b, in_body);
                    }
                    AdaStmt::While(_, b) => check(program, tname, b, in_body),
                    AdaStmt::Assign(..) => {}
                }
            }
        }
        for t in &program.tasks {
            check(&program, &t.name, &t.body, false);
        }

        // Compile: slot-resolve each task's locals and flatten its body
        // (plus rendezvous-body regions) into a jump-threaded program.
        let t0 = Instant::now();
        let empty = SlotLayout::new();
        let mut pool = ExprPool::default();
        let mut progs = Vec::with_capacity(program.tasks.len());
        let mut slot_base = Vec::with_capacity(program.tasks.len());
        let mut queue_slots = 0;
        for t in &program.tasks {
            slot_base.push(queue_slots as u32);
            queue_slots += t.entries.len();
        }
        for (tid, t) in program.tasks.iter().enumerate() {
            let mut locals = SlotLayout::new();
            for (n, _) in &t.locals {
                locals.intern(n);
            }
            collect_arm_params(&t.body, &mut locals);
            let mut init = vec![None; locals.len()];
            for (n, v) in &t.locals {
                init[locals.get(n).expect("interned") as usize] = Some(*v);
            }
            let mut c = AdaCompiler {
                pool: &mut pool,
                locals: &locals,
                globals: &empty,
                var_els: &var_els[tid],
                entry_els: &entry_els,
                slot_base: &slot_base,
                program: &program,
                tid,
                ops: Vec::new(),
                arms: Vec::new(),
                pending: Vec::new(),
            };
            c.compile(&t.body);
            let (ops, arms) = c.finish();
            progs.push(AProg {
                ops,
                locals,
                init,
                arms,
            });
        }
        let name_values: Vec<Value> = program
            .tasks
            .iter()
            .map(|t| Value::from(t.name.as_str()))
            .collect();
        let stats = CodeStats {
            exprs: pool.expr_count() as u64,
            ops: (pool.op_count() + progs.iter().map(|p| p.ops.len()).sum::<usize>()) as u64,
            consts: pool.const_count() as u64,
            programs: progs.len() as u64,
            slots: progs.iter().map(|p| p.locals.len()).sum::<usize>() as u64,
            compile_ns: t0.elapsed().as_nanos() as u64,
        };
        let code = Arc::new(AdaCode {
            pool,
            progs,
            name_values,
            queue_slots,
            stats,
        });

        Self {
            program,
            structure: Arc::new(s),
            call_sent,
            returned,
            call,
            accept,
            complete,
            assign,
            flow_els,
            entry_els,
            code,
        }
    }

    /// Compilation statistics for this system's [code](crate::code).
    pub fn code_stats(&self) -> CodeStats {
        self.code.stats
    }

    /// The program being executed.
    pub fn program(&self) -> &AdaProgram {
        &self.program
    }

    /// The GEM structure of this system's computations.
    pub fn structure(&self) -> &Structure {
        &self.structure
    }

    /// Shared handle to the structure.
    pub fn structure_arc(&self) -> Arc<Structure> {
        Arc::clone(&self.structure)
    }

    /// Class id by name (`"CallSent"`, `"Returned"`, `"Call"`,
    /// `"Accept"`, `"Complete"`, `"Assign"`).
    ///
    /// # Panics
    ///
    /// Panics on an unknown name.
    pub fn class(&self, name: &str) -> ClassId {
        match name {
            "CallSent" => self.call_sent,
            "Returned" => self.returned,
            "Call" => self.call,
            "Accept" => self.accept,
            "Complete" => self.complete,
            "Assign" => self.assign,
            other => panic!("unknown ADA class {other:?}"),
        }
    }

    /// The entry element of `task.entry`.
    ///
    /// # Panics
    ///
    /// Panics on unknown names.
    pub fn entry_element(&self, task: &str, entry: &str) -> ElementId {
        let ti = self
            .program
            .task_index(task)
            .unwrap_or_else(|| panic!("unknown task {task:?}"));
        *self.entry_els[ti]
            .get(entry)
            .unwrap_or_else(|| panic!("unknown entry {task}.{entry}"))
    }

    /// The flow element of `task`.
    ///
    /// # Panics
    ///
    /// Panics on an unknown task.
    pub fn flow_element(&self, task: &str) -> ElementId {
        let ti = self
            .program
            .task_index(task)
            .unwrap_or_else(|| panic!("unknown task {task:?}"));
        self.flow_els[ti]
    }

    /// Seals the computation accumulated in `state`.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError`] only on a simulator bug (cyclic trace).
    pub fn computation(&self, state: &AdaState) -> Result<Computation, BuildError> {
        state.builder.seal_ref()
    }

    fn emit(
        &self,
        state: &mut AdaState,
        tid: usize,
        element: ElementId,
        class: ClassId,
        params: impl IntoIterator<Item = Value>,
        extra: impl IntoIterator<Item = EventId>,
    ) -> EventId {
        let e = state
            .builder
            .add_event(element, class, params)
            .expect("ids are from this structure");
        if let Some(last) = state.ctl.tasks[tid].last {
            state.builder.enable(last, e).expect("known events");
        }
        state.ctl.tasks[tid].last = Some(e);
        for x in extra {
            state.builder.enable(x, e).expect("known events");
        }
        e
    }

    fn eval(&self, state: &AdaState, tid: usize, id: ExprId) -> Value {
        self.code
            .pool
            .eval(id, &[], &state.ctl.tasks[tid].lslots)
            .unwrap_or_else(|e| panic!("ADA runtime error: {e}"))
    }

    /// Runs task `tid` through its flat program until it blocks at a
    /// `Call` (pc parked on the op through `ReadyToCall` and `InCall`; the
    /// rendezvous advances it when `Returned` fires) or an
    /// `Accept`/`Select`, or hits `End`.
    fn run(&self, state: &mut AdaState, tid: usize) {
        let prog = &self.code.progs[tid];
        let mut pc = state.ctl.tasks[tid].pc as usize;
        loop {
            match &prog.ops[pc] {
                AOp::Assign { slot, el, expr } => {
                    let v = self.eval(state, tid, *expr);
                    state.ctl.tasks[tid].lslots[*slot as usize] = Some(v);
                    self.emit(state, tid, *el, self.assign, [v], []);
                    pc += 1;
                }
                AOp::AssignUnknown { name, expr } => {
                    // Evaluate first so expression errors surface before
                    // the undeclared-local panic.
                    let _ = self.eval(state, tid, *expr);
                    panic!("undeclared local {name:?}");
                }
                AOp::JumpIfFalse { cond, target, kind } => {
                    let b = self
                        .eval(state, tid, *cond)
                        .as_bool()
                        .unwrap_or_else(|| panic!("{}", kind.expect_msg()));
                    pc = if b { pc + 1 } else { *target as usize };
                }
                AOp::Jump(t) => pc = *t as usize,
                AOp::Call { .. } => {
                    state.ctl.tasks[tid].pc = pc as u32;
                    state.ctl.tasks[tid].status = TStatus::ReadyToCall;
                    return;
                }
                AOp::Accept(arm) => {
                    let task = &mut state.ctl.tasks[tid];
                    task.pc = pc as u32;
                    task.status = TStatus::AtAccept;
                    task.open.clear();
                    task.open.push(*arm);
                    return;
                }
                AOp::Select(arms) => {
                    state.ctl.tasks[tid].open.clear();
                    for (guard, idx) in arms {
                        let is_open = match guard {
                            None => true,
                            Some(g) => self
                                .eval(state, tid, *g)
                                .as_bool()
                                .expect("guard must be boolean"),
                        };
                        if is_open {
                            state.ctl.tasks[tid].open.push(*idx);
                        }
                    }
                    assert!(
                        !state.ctl.tasks[tid].open.is_empty(),
                        "select with all guards closed (task {:?})",
                        self.program.tasks[tid].name
                    );
                    state.ctl.tasks[tid].pc = pc as u32;
                    state.ctl.tasks[tid].status = TStatus::AtAccept;
                    return;
                }
                AOp::EndBody => unreachable!("EndBody outside a rendezvous"),
                AOp::End => {
                    state.ctl.tasks[tid].pc = pc as u32;
                    state.ctl.tasks[tid].status = TStatus::Done;
                    return;
                }
            }
        }
    }

    /// Executes a rendezvous-body region from `body_pc` to its `EndBody`.
    /// Validation guarantees the region is local-only.
    fn run_body(&self, state: &mut AdaState, tid: usize, body_pc: u32) {
        let prog = &self.code.progs[tid];
        let mut pc = body_pc as usize;
        loop {
            match &prog.ops[pc] {
                AOp::Assign { slot, el, expr } => {
                    let v = self.eval(state, tid, *expr);
                    state.ctl.tasks[tid].lslots[*slot as usize] = Some(v);
                    self.emit(state, tid, *el, self.assign, [v], []);
                    pc += 1;
                }
                AOp::AssignUnknown { name, expr } => {
                    let _ = self.eval(state, tid, *expr);
                    panic!("undeclared local {name:?}");
                }
                AOp::JumpIfFalse { cond, target, kind } => {
                    let b = self
                        .eval(state, tid, *cond)
                        .as_bool()
                        .unwrap_or_else(|| panic!("{}", kind.expect_msg()));
                    pc = if b { pc + 1 } else { *target as usize };
                }
                AOp::Jump(t) => pc = *t as usize,
                AOp::EndBody => return,
                other => {
                    unreachable!("validated: rendezvous body is local-only, found {other:?}")
                }
            }
        }
    }
}

impl System for AdaSystem {
    type State = AdaState;
    type Action = AdaAction;
    type Checkpoint = SimCheckpoint;

    fn initial(&self) -> AdaState {
        let ctl = AdaCtl {
            tasks: self
                .code
                .progs
                .iter()
                .map(|prog| TaskState {
                    lslots: prog.init.clone(),
                    pc: 0,
                    status: TStatus::Done,
                    open: Vec::new(),
                    call_args: Vec::new(),
                    last: None,
                })
                .collect(),
            queues: vec![VecDeque::new(); self.code.queue_slots],
        };
        let mut state = AdaState {
            builder: ComputationBuilder::new(self.structure_arc()),
            ctl,
            rewind: Rewind::default(),
            code: Arc::clone(&self.code),
        };
        for tid in 0..self.program.tasks.len() {
            self.run(&mut state, tid);
        }
        state
    }

    fn enabled(&self, state: &AdaState) -> Vec<AdaAction> {
        let mut actions = Vec::new();
        for (tid, t) in state.ctl.tasks.iter().enumerate() {
            match t.status {
                TStatus::ReadyToCall => actions.push(AdaAction::IssueCall(tid)),
                TStatus::AtAccept => {
                    let arms = &self.code.progs[tid].arms;
                    for &i in &t.open {
                        let arm = &arms[i as usize];
                        if !state.ctl.queues[arm.slot as usize].is_empty() {
                            actions.push(AdaAction::Rendezvous {
                                tid,
                                entry: arm.entry,
                            });
                        }
                    }
                }
                _ => {}
            }
        }
        crate::explore::record_enabled_width(actions.len());
        actions
    }

    fn apply(&self, state: &mut AdaState, action: &AdaAction) {
        let t0 = crate::explore::apply_timer();
        state.rewind.save(&mut state.ctl);
        match action {
            AdaAction::IssueCall(tid) => {
                let tid = *tid;
                let pc = state.ctl.tasks[tid].pc as usize;
                let AOp::Call {
                    entry_el,
                    slot,
                    args,
                    callee_params,
                    ..
                } = &self.code.progs[tid].ops[pc]
                else {
                    panic!("IssueCall on a non-call statement");
                };
                state.ctl.tasks[tid].call_args.clear();
                for &a in args {
                    let v = self.eval(state, tid, a);
                    state.ctl.tasks[tid].call_args.push(v);
                }
                self.emit(
                    state,
                    tid,
                    self.flow_els[tid],
                    self.call_sent,
                    *callee_params,
                    [],
                );
                let call_ev = self.emit(
                    state,
                    tid,
                    *entry_el,
                    self.call,
                    [self.code.name_values[tid]],
                    [],
                );
                state.ctl.queues[*slot as usize].push_back(QueuedCall {
                    caller: tid,
                    call_event: call_ev,
                });
                // pc stays parked on the Call op until Returned.
                state.ctl.tasks[tid].status = TStatus::InCall;
            }
            AdaAction::Rendezvous { tid, entry } => {
                let tid = *tid;
                let task = &mut state.ctl.tasks[tid];
                let TStatus::AtAccept = std::mem::replace(&mut task.status, TStatus::Done) else {
                    panic!("Rendezvous on a non-accepting task");
                };
                let arms = &self.code.progs[tid].arms;
                let arm = task
                    .open
                    .iter()
                    .map(|&i| &arms[i as usize])
                    .find(|a| a.entry == *entry)
                    .expect("entry among open arms");
                let queued = state.ctl.queues[arm.slot as usize]
                    .pop_front()
                    .expect("queue non-empty");
                let caller_param = self.code.name_values[queued.caller];
                // Accept: enabled by the call and the callee's chain.
                self.emit(
                    state,
                    tid,
                    arm.entry_el,
                    self.accept,
                    [caller_param],
                    [queued.call_event],
                );
                // Bind formals into slots and run the body region inline:
                // it may not block (validated). The caller is suspended in
                // this call, so it is not the accepting task.
                let n = arm
                    .param_slots
                    .len()
                    .min(state.ctl.tasks[queued.caller].call_args.len());
                for (i, &slot) in arm.param_slots[..n].iter().enumerate() {
                    let v = state.ctl.tasks[queued.caller].call_args[i];
                    state.ctl.tasks[tid].lslots[slot as usize] = Some(v);
                }
                self.run_body(state, tid, arm.body_pc);
                let complete_ev =
                    self.emit(state, tid, arm.entry_el, self.complete, [caller_param], []);
                // Caller resumes: Returned enabled by its Call (chain) and
                // the Complete; params come off its parked Call op.
                let caller = queued.caller;
                let caller_pc = state.ctl.tasks[caller].pc as usize;
                let AOp::Call { callee_params, .. } = &self.code.progs[caller].ops[caller_pc]
                else {
                    unreachable!("caller parked on its call op");
                };
                self.emit(
                    state,
                    caller,
                    self.flow_els[caller],
                    self.returned,
                    *callee_params,
                    [complete_ev],
                );
                state.ctl.tasks[caller].pc += 1;
                state.ctl.tasks[tid].pc = arm.cont_pc;
                self.run(state, caller);
                self.run(state, tid);
            }
        }
        crate::explore::record_apply_ns(t0);
    }

    fn is_complete(&self, state: &AdaState) -> bool {
        state
            .ctl
            .tasks
            .iter()
            .all(|t| matches!(t.status, TStatus::Done))
    }

    fn control_key(&self, state: &AdaState) -> Option<u64> {
        let mut h = DefaultHasher::new();
        for t in &state.ctl.tasks {
            // Slot-indexed locals plus pc key control state exactly.
            t.lslots.hash(&mut h);
            t.pc.hash(&mut h);
            std::mem::discriminant(&t.status).hash(&mut h);
        }
        for q in &state.ctl.queues {
            q.len().hash(&mut h);
            for c in q {
                c.caller.hash(&mut h);
            }
        }
        Some(h.finish())
    }

    fn checkpoint(&self, state: &AdaState) -> Option<SimCheckpoint> {
        Some(state.rewind.checkpoint(&state.builder))
    }

    fn undo(&self, state: &mut AdaState, cp: SimCheckpoint) {
        let AdaState {
            builder,
            ctl,
            rewind,
            ..
        } = state;
        crate::explore::record_undo_depth(rewind.undo(builder, ctl, cp));
    }

    /// Independence oracle for sleep-set POR.
    ///
    /// * Two call issues commute iff they target different `(callee,
    ///   entry)` queues: same target means both emit `Call` on the same
    ///   entry element (FIFO order and element order both observable).
    /// * A call issue commutes with a rendezvous iff it targets a
    ///   different queue. The issuer is never a rendezvous participant:
    ///   it is `ReadyToCall`, while the rendezvous's caller is `InCall`
    ///   and its callee `AtAccept`. Issuing into the same queue would
    ///   reorder that entry element's events against `Accept`/`Complete`.
    /// * Two rendezvous commute iff their callees differ (the same callee
    ///   consumes its accept state in either one). Their callers are
    ///   automatically distinct — a task has at most one outstanding call
    ///   — so all four participants touch disjoint elements and task
    ///   states, and `run` never modifies entry queues.
    fn trace_builder<'a>(&self, state: &'a AdaState) -> Option<&'a ComputationBuilder> {
        Some(&state.builder)
    }

    fn independent(&self, state: &AdaState, a: &AdaAction, b: &AdaAction) -> bool {
        match (a, b) {
            (AdaAction::IssueCall(t1), AdaAction::IssueCall(t2)) => {
                if t1 == t2 {
                    return false;
                }
                match (
                    self.pending_call_target(state, *t1),
                    self.pending_call_target(state, *t2),
                ) {
                    (Some(ta), Some(tb)) => ta != tb,
                    _ => false,
                }
            }
            (AdaAction::IssueCall(t), AdaAction::Rendezvous { tid, entry })
            | (AdaAction::Rendezvous { tid, entry }, AdaAction::IssueCall(t)) => {
                match self.pending_call_target(state, *t) {
                    Some((callee, e)) => callee != *tid || e != &**entry,
                    None => false,
                }
            }
            (AdaAction::Rendezvous { tid: t1, .. }, AdaAction::Rendezvous { tid: t2, .. }) => {
                t1 != t2
            }
        }
    }
}

impl AdaSystem {
    /// The `(callee index, entry name)` a `ReadyToCall` task's pending
    /// call targets, read off the call op its pc is parked on.
    fn pending_call_target(&self, state: &AdaState, tid: usize) -> Option<(usize, &str)> {
        match &self.code.progs[tid].ops[state.ctl.tasks[tid].pc as usize] {
            AOp::Call { callee, entry, .. } => Some((*callee, entry.as_str())),
            _ => None,
        }
    }
}

impl AdaState {
    /// The number of events emitted so far.
    pub fn event_count(&self) -> usize {
        self.builder.event_count()
    }

    /// A local variable of task `tid`.
    pub fn local(&self, tid: usize, var: &str) -> Option<&Value> {
        let slot = self.code.progs[tid].locals.get(var)?;
        self.ctl.tasks[tid].lslots[slot as usize].as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ada::def::{AdaTask, SelectBranch};
    use crate::explore::{find_deadlock, Explorer};
    use crate::Expr;
    use gem_core::is_legal;
    use gem_obs::NoopProbe;
    use std::ops::ControlFlow;

    fn put_get_server() -> AdaProgram {
        let server = AdaTask::new(
            "server",
            vec![
                AdaStmt::accept_with("Put", &["x"], vec![AdaStmt::assign("slot", Expr::var("x"))]),
                AdaStmt::accept(
                    "Bump",
                    vec![AdaStmt::assign("slot", Expr::var("slot").add(Expr::int(1)))],
                ),
            ],
        )
        .entry("Put")
        .entry("Bump")
        .local("slot", 0i64);
        let client = AdaTask::new(
            "client",
            vec![
                AdaStmt::call("server", "Put", vec![Expr::int(41)]),
                AdaStmt::call("server", "Bump", vec![]),
            ],
        );
        AdaProgram::new().task(server).task(client)
    }

    #[test]
    fn rendezvous_transfers_and_orders() {
        let sys = AdaSystem::new(put_get_server());
        let stats = Explorer::default().for_each_run(&sys, |state, _| {
            assert!(sys.is_complete(state));
            assert_eq!(state.local(0, "slot"), Some(&Value::Int(42)));
            let c = sys.computation(state).unwrap();
            assert!(is_legal(&c), "{:?}", gem_core::check_legality(&c));
            ControlFlow::Continue(())
        });
        assert_eq!(stats.runs, 1, "single caller, deterministic");
    }

    #[test]
    fn rendezvous_event_chain() {
        let sys = AdaSystem::new(put_get_server());
        Explorer::default().for_each_run(&sys, |state, _| {
            let c = sys.computation(state).unwrap();
            for acc in c.events_of_class(sys.class("Accept")) {
                // Each Accept enabled by exactly one Call.
                let calls = c
                    .enablers_of(acc)
                    .iter()
                    .filter(|&&e| c.event(e).class() == sys.class("Call"))
                    .count();
                assert_eq!(calls, 1);
            }
            for ret in c.events_of_class(sys.class("Returned")) {
                let completes = c
                    .enablers_of(ret)
                    .iter()
                    .filter(|&&e| c.event(e).class() == sys.class("Complete"))
                    .count();
                assert_eq!(completes, 1);
            }
            ControlFlow::Continue(())
        });
    }

    #[test]
    fn select_serves_both_orders() {
        let server = AdaTask::new(
            "server",
            vec![AdaStmt::While(
                Expr::var("served").lt(Expr::int(2)),
                vec![AdaStmt::Select(vec![
                    SelectBranch {
                        guard: None,
                        accept: AcceptArm {
                            entry: "A".into(),
                            params: vec![],
                            body: vec![AdaStmt::assign(
                                "served",
                                Expr::var("served").add(Expr::int(1)),
                            )],
                        },
                    },
                    SelectBranch {
                        guard: None,
                        accept: AcceptArm {
                            entry: "B".into(),
                            params: vec![],
                            body: vec![AdaStmt::assign(
                                "served",
                                Expr::var("served").add(Expr::int(1)),
                            )],
                        },
                    },
                ])],
            )],
        )
        .entry("A")
        .entry("B")
        .local("served", 0i64);
        let ca = AdaTask::new("ca", vec![AdaStmt::call("server", "A", vec![])]);
        let cb = AdaTask::new("cb", vec![AdaStmt::call("server", "B", vec![])]);
        let sys = AdaSystem::new(AdaProgram::new().task(server).task(ca).task(cb));
        let mut orders = std::collections::HashSet::new();
        Explorer::default().for_each_run(&sys, |state, path| {
            assert!(sys.is_complete(state));
            let rendezvous: Vec<String> = path
                .iter()
                .filter_map(|a| match a {
                    AdaAction::Rendezvous { entry, .. } => Some(entry.to_string()),
                    AdaAction::IssueCall(_) => None,
                })
                .collect();
            orders.insert(rendezvous);
            ControlFlow::Continue(())
        });
        assert!(orders.contains(&vec!["A".to_owned(), "B".to_owned()]));
        assert!(orders.contains(&vec!["B".to_owned(), "A".to_owned()]));
    }

    #[test]
    fn guarded_select_closes_branches() {
        let server = AdaTask::new(
            "server",
            vec![AdaStmt::Select(vec![
                SelectBranch {
                    guard: Some(Expr::bool(false)),
                    accept: AcceptArm {
                        entry: "A".into(),
                        params: vec![],
                        body: vec![],
                    },
                },
                SelectBranch {
                    guard: Some(Expr::bool(true)),
                    accept: AcceptArm {
                        entry: "B".into(),
                        params: vec![],
                        body: vec![],
                    },
                },
            ])],
        )
        .entry("A")
        .entry("B");
        let client = AdaTask::new("client", vec![AdaStmt::call("server", "B", vec![])]);
        let sys = AdaSystem::new(AdaProgram::new().task(server).task(client));
        assert!(find_deadlock(&sys, &Explorer::default(), &NoopProbe).is_none());
    }

    #[test]
    fn missing_accept_deadlocks() {
        let server = AdaTask::new("server", vec![]).entry("E");
        let client = AdaTask::new("client", vec![AdaStmt::call("server", "E", vec![])]);
        let sys = AdaSystem::new(AdaProgram::new().task(server).task(client));
        assert!(find_deadlock(&sys, &Explorer::default(), &NoopProbe).is_some());
    }

    #[test]
    fn fifo_entry_queue() {
        // Two clients call the same entry; service order follows arrival
        // order, and both arrival orders are explored.
        let server = AdaTask::new(
            "server",
            vec![
                AdaStmt::accept_with("E", &["x"], vec![AdaStmt::assign("first", Expr::var("x"))]),
                AdaStmt::accept_with("E", &["x"], vec![AdaStmt::assign("second", Expr::var("x"))]),
            ],
        )
        .entry("E")
        .local("first", 0i64)
        .local("second", 0i64);
        let c1 = AdaTask::new("c1", vec![AdaStmt::call("server", "E", vec![Expr::int(1)])]);
        let c2 = AdaTask::new("c2", vec![AdaStmt::call("server", "E", vec![Expr::int(2)])]);
        let sys = AdaSystem::new(AdaProgram::new().task(server).task(c1).task(c2));
        let mut outcomes = std::collections::HashSet::new();
        Explorer::default().for_each_run(&sys, |state, _| {
            assert!(sys.is_complete(state));
            outcomes.insert((
                state.local(0, "first").cloned(),
                state.local(0, "second").cloned(),
            ));
            ControlFlow::Continue(())
        });
        assert!(outcomes.contains(&(Some(Value::Int(1)), Some(Value::Int(2)))));
        assert!(outcomes.contains(&(Some(Value::Int(2)), Some(Value::Int(1)))));
    }

    /// Every run of these programs, in DFS order and including every
    /// event parameter, matches what the tree-walking interpreter this
    /// execution path replaced produced (the `unit/ada/*` rows of
    /// `tests/golden/step_semantics.json`).
    #[test]
    fn compiled_matches_interpreted() {
        let select_server = || {
            let server = AdaTask::new(
                "server",
                vec![AdaStmt::While(
                    Expr::var("served").lt(Expr::int(2)),
                    vec![AdaStmt::Select(vec![
                        SelectBranch {
                            guard: Some(Expr::var("served").lt(Expr::int(2))),
                            accept: AcceptArm {
                                entry: "A".into(),
                                params: vec!["x".into()],
                                body: vec![AdaStmt::assign(
                                    "served",
                                    Expr::var("served").add(Expr::var("x")),
                                )],
                            },
                        },
                        SelectBranch {
                            guard: None,
                            accept: AcceptArm {
                                entry: "B".into(),
                                params: vec![],
                                body: vec![AdaStmt::assign(
                                    "served",
                                    Expr::var("served").add(Expr::int(1)),
                                )],
                            },
                        },
                    ])],
                )],
            )
            .entry("A")
            .entry("B")
            .local("served", 0i64);
            let ca = AdaTask::new("ca", vec![AdaStmt::call("server", "A", vec![Expr::int(1)])]);
            let cb = AdaTask::new("cb", vec![AdaStmt::call("server", "B", vec![])]);
            AdaProgram::new().task(server).task(ca).task(cb)
        };
        let fifo = || {
            let server = AdaTask::new(
                "server",
                vec![
                    AdaStmt::accept_with(
                        "E",
                        &["x"],
                        vec![AdaStmt::assign("first", Expr::var("x"))],
                    ),
                    AdaStmt::accept_with(
                        "E",
                        &["x"],
                        vec![AdaStmt::assign("second", Expr::var("x"))],
                    ),
                ],
            )
            .entry("E")
            .local("first", 0i64)
            .local("second", 0i64);
            let c1 = AdaTask::new("c1", vec![AdaStmt::call("server", "E", vec![Expr::int(1)])]);
            let c2 = AdaTask::new("c2", vec![AdaStmt::call("server", "E", vec![Expr::int(2)])]);
            AdaProgram::new().task(server).task(c1).task(c2)
        };
        // Deadlocking: the call is never accepted.
        let stuck = || {
            let server = AdaTask::new("server", vec![]).entry("E");
            let client = AdaTask::new("client", vec![AdaStmt::call("server", "E", vec![])]);
            AdaProgram::new().task(server).task(client)
        };
        for (name, prog) in [
            ("unit/ada/put-get", put_get_server()),
            ("unit/ada/select", select_server()),
            ("unit/ada/fifo", fifo()),
            ("unit/ada/stuck", stuck()),
        ] {
            let sys = AdaSystem::new(prog);
            crate::golden::assert_golden(name, &sys, |s| sys.computation(s).expect("acyclic"));
        }
    }

    #[test]
    fn code_stats_populated() {
        let sys = AdaSystem::new(put_get_server());
        let stats = sys.code_stats();
        assert!(stats.programs == 2 && stats.ops > 0 && stats.slots >= 2);
    }

    #[test]
    #[should_panic(expected = "unknown task")]
    fn unknown_callee_rejected() {
        let t = AdaTask::new("a", vec![AdaStmt::call("ghost", "E", vec![])]);
        let _ = AdaSystem::new(AdaProgram::new().task(t));
    }

    #[test]
    #[should_panic(expected = "nested rendezvous")]
    fn nested_rendezvous_rejected() {
        let t = AdaTask::new(
            "a",
            vec![AdaStmt::Accept(AcceptArm {
                entry: "E".into(),
                params: vec![],
                body: vec![AdaStmt::call("a", "E", vec![])],
            })],
        )
        .entry("E");
        let _ = AdaSystem::new(AdaProgram::new().task(t));
    }
}
