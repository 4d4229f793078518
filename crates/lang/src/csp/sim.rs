//! Execution of CSP programs into GEM computations.
//!
//! Event vocabulary per process `p`, following the paper's §8.2 sketch of
//! CSP input/output elements:
//!
//! | Element | Classes (params) |
//! |---------|------------------|
//! | `<p>.out` (the `!` element) | `OutReq(partner)`, `OutEnd(val, partner)` |
//! | `<p>.in` (the `?` element) | `InReq(partner)`, `InEnd(val, partner)` |
//! | `<p>.var.<v>` | `Assign(newval)` |
//!
//! Each process is a GEM group; the `OutEnd`/`InEnd` classes are its
//! ports, since an exchange enables them *across* process boundaries: for
//! a matched pair the edges are `OutReq ⊳ OutEnd`, `InReq ⊳ OutEnd`,
//! `InReq ⊳ InEnd`, `OutReq ⊳ InEnd` — which yields the paper's
//! simultaneity restriction `inp.req ⊳ out.end ⇔ out.req ⊳ inp.end`.
//!
//! Local computation is deterministic and private to each process (no
//! shared variables in CSP), so processes auto-run to their next
//! communication point; the only scheduler choices are *which matched
//! exchange happens next*. An `Alt` publishes a request event per open
//! branch (the offers); branches not chosen leave dangling requests that
//! never enable an `End` — CSP offer withdrawal.

use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use gem_core::{
    BuildError, ClassId, Computation, ComputationBuilder, ElementId, EventId, NodeRef, Structure,
    Value,
};

use crate::code::{CodeStats, CondKind, ExprId, ExprPool, SlotLayout};
use crate::csp::def::{Comm, CspProgram, CspStmt};
use crate::explore::System;
use crate::rewind::{Rewind, SimCheckpoint};
use std::time::Instant;

/// A compiled CSP program ready to execute.
#[derive(Clone, Debug)]
pub struct CspSystem {
    program: CspProgram,
    structure: Arc<Structure>,
    out_req: ClassId,
    out_end: ClassId,
    in_req: ClassId,
    in_end: ClassId,
    assign: ClassId,
    out_els: Vec<ElementId>,
    in_els: Vec<ElementId>,
    /// Compiled per-process programs, built once at construction.
    code: Arc<CspCode>,
}

/// Compiled form of a CSP program: slot-resolved per-process local
/// scopes, postfix expression code, flat statement programs, and
/// interned partner-name values.
#[derive(Clone, Debug)]
struct CspCode {
    pool: ExprPool,
    progs: Vec<CProg>,
    /// `Value::Str(process_name)` per process, copied into `OutReq` /
    /// `InReq` / `OutEnd` / `InEnd` params; the name is interned once
    /// here.
    name_values: Vec<Value>,
    stats: CodeStats,
}

/// One process body as a flat program.
#[derive(Clone, Debug)]
struct CProg {
    ops: Vec<COp>,
    /// Local scope: declared locals plus every receive-target name (a
    /// receive may bind an undeclared name, which is then readable).
    locals: SlotLayout,
    /// Initial slot values (declared locals bound, receive-only slots
    /// unbound).
    init: Vec<Option<Value>>,
}

/// A compiled communication: everything `publish_offer` needs, plus the
/// continuation pc to resume at once the offer commits.
#[derive(Clone, Debug)]
struct CommTpl {
    is_send: bool,
    partner: usize,
    /// Send: the offered expression.
    expr: Option<ExprId>,
    /// Receive: the slot to bind.
    var_slot: Option<u32>,
    cont_pc: u32,
}

/// One guarded alternative arm.
#[derive(Clone, Debug)]
struct CAltArm {
    guard: Option<ExprId>,
    tpl: CommTpl,
}

/// One flat CSP instruction.
#[derive(Clone, Debug)]
enum COp {
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
    /// Block on a single communication offer.
    Comm(CommTpl),
    /// Block on the open arms of an alternative.
    Alt(Vec<CAltArm>),
    /// Body finished.
    End,
}

fn patch_cjump(ops: &mut [COp], at: usize, to: u32) {
    match &mut ops[at] {
        COp::JumpIfFalse { target, .. } | COp::Jump(target) => *target = to,
        other => unreachable!("patching non-jump {other:?}"),
    }
}

/// Interns every receive-target variable of `stmts` into `layout`, so
/// expression compilation sees a complete local scope up front (a read
/// before the receive binds stays an `UndefinedVariable` at evaluation).
fn collect_recv_targets(stmts: &[CspStmt], layout: &mut SlotLayout) {
    for st in stmts {
        match st {
            CspStmt::Comm(Comm::Recv { var, .. }) => {
                layout.intern(var);
            }
            CspStmt::Comm(Comm::Send { .. }) | CspStmt::Assign(..) => {}
            CspStmt::Alt(branches) => {
                for b in branches {
                    if let Comm::Recv { var, .. } = &b.comm {
                        layout.intern(var);
                    }
                    collect_recv_targets(&b.body, layout);
                }
            }
            CspStmt::If(_, t, e) => {
                collect_recv_targets(t, layout);
                collect_recv_targets(e, layout);
            }
            CspStmt::While(_, b) => collect_recv_targets(b, layout),
        }
    }
}

/// Compiles one process body into a flat [`COp`] program.
struct CspCompiler<'a> {
    pool: &'a mut ExprPool,
    locals: &'a SlotLayout,
    /// Empty: CSP has no shared variables.
    globals: &'a SlotLayout,
    var_els: &'a BTreeMap<String, ElementId>,
    program: &'a CspProgram,
    ops: Vec<COp>,
}

impl CspCompiler<'_> {
    fn expr(&mut self, e: &crate::ast::Expr) -> ExprId {
        self.pool.compile(e, self.locals, self.globals)
    }

    fn comm_tpl(&mut self, comm: &Comm, cont_pc: u32) -> CommTpl {
        match comm {
            Comm::Send { to, expr } => CommTpl {
                is_send: true,
                partner: self.program.process_index(to).expect("validated"),
                expr: Some(self.expr(expr)),
                var_slot: None,
                cont_pc,
            },
            Comm::Recv { from, var } => CommTpl {
                is_send: false,
                partner: self.program.process_index(from).expect("validated"),
                expr: None,
                var_slot: Some(self.locals.get(var).expect("recv targets interned")),
                cont_pc,
            },
        }
    }

    fn compile(&mut self, stmts: &[CspStmt]) {
        for st in stmts {
            match st {
                CspStmt::Assign(var, expr) => {
                    let expr = self.expr(expr);
                    match (self.locals.get(var), self.var_els.get(var)) {
                        (Some(slot), Some(&el)) => {
                            self.ops.push(COp::Assign { slot, el, expr });
                        }
                        _ => self.ops.push(COp::AssignUnknown {
                            name: var.clone(),
                            expr,
                        }),
                    }
                }
                CspStmt::If(cond, then_branch, else_branch) => {
                    let cond = self.expr(cond);
                    let jf = self.ops.len();
                    self.ops.push(COp::JumpIfFalse {
                        cond,
                        target: 0,
                        kind: CondKind::If,
                    });
                    self.compile(then_branch);
                    if else_branch.is_empty() {
                        let end = self.ops.len() as u32;
                        patch_cjump(&mut self.ops, jf, end);
                    } else {
                        let j = self.ops.len();
                        self.ops.push(COp::Jump(0));
                        let else_start = self.ops.len() as u32;
                        patch_cjump(&mut self.ops, jf, else_start);
                        self.compile(else_branch);
                        let end = self.ops.len() as u32;
                        patch_cjump(&mut self.ops, j, end);
                    }
                }
                CspStmt::While(cond, body) => {
                    let head = self.ops.len() as u32;
                    let cond = self.expr(cond);
                    let jf = self.ops.len();
                    self.ops.push(COp::JumpIfFalse {
                        cond,
                        target: 0,
                        kind: CondKind::While,
                    });
                    self.compile(body);
                    self.ops.push(COp::Jump(head));
                    let end = self.ops.len() as u32;
                    patch_cjump(&mut self.ops, jf, end);
                }
                CspStmt::Comm(c) => {
                    let at = self.ops.len();
                    let tpl = self.comm_tpl(c, at as u32 + 1);
                    self.ops.push(COp::Comm(tpl));
                }
                CspStmt::Alt(branches) => {
                    let alt_idx = self.ops.len();
                    let arms: Vec<CAltArm> = branches
                        .iter()
                        .map(|b| CAltArm {
                            guard: b.guard.as_ref().map(|g| self.expr(g)),
                            tpl: self.comm_tpl(&b.comm, 0),
                        })
                        .collect();
                    self.ops.push(COp::Alt(arms));
                    // Branch-body regions follow the op; each ends with a
                    // jump to the common continuation. Empty bodies point
                    // straight at the continuation.
                    let mut body_starts: Vec<Option<u32>> = Vec::new();
                    let mut region_jumps = Vec::new();
                    for b in branches {
                        if b.body.is_empty() {
                            body_starts.push(None);
                            continue;
                        }
                        body_starts.push(Some(self.ops.len() as u32));
                        self.compile(&b.body);
                        region_jumps.push(self.ops.len());
                        self.ops.push(COp::Jump(0));
                    }
                    let cont = self.ops.len() as u32;
                    for j in region_jumps {
                        patch_cjump(&mut self.ops, j, cont);
                    }
                    let COp::Alt(arms) = &mut self.ops[alt_idx] else {
                        unreachable!("alt op at recorded index");
                    };
                    for (arm, start) in arms.iter_mut().zip(body_starts) {
                        arm.tpl.cont_pc = start.unwrap_or(cont);
                    }
                }
            }
        }
    }
}

/// A published communication offer of a blocked process.
#[derive(Clone, PartialEq, Debug)]
pub struct Offer {
    /// True for a send offer, false for a receive offer.
    pub is_send: bool,
    /// Partner process index.
    pub partner: usize,
    /// For sends: the value offered (evaluated at offer time).
    pub value: Option<Value>,
    /// The request event published for this offer.
    pub req_event: EventId,
    /// The pc to resume at when this offer commits.
    pub(crate) cont_pc: u32,
    /// For receives: the slot of the variable to bind.
    pub(crate) var_slot: Option<u32>,
}

#[derive(Debug)]
struct ProcState {
    /// Slot-indexed locals (unbound = `None`).
    lslots: Vec<Option<Value>>,
    /// Program counter into the process's [`CProg`].
    pc: u32,
    /// The offers published while blocked at a communication or an
    /// alternative, never empty there; empty once the process is done.
    offers: Vec<Offer>,
    last: Option<EventId>,
}

/// `clone_from` refills the vectors in place, which a derived impl would
/// reallocate.
impl Clone for ProcState {
    fn clone(&self) -> Self {
        Self {
            lslots: self.lslots.clone(),
            offers: self.offers.clone(),
            ..*self
        }
    }

    fn clone_from(&mut self, src: &Self) {
        let mut lslots = std::mem::take(&mut self.lslots);
        let mut offers = std::mem::take(&mut self.offers);
        lslots.clone_from(&src.lslots);
        offers.clone_from(&src.offers);
        *self = Self {
            lslots,
            offers,
            ..*src
        };
    }
}

/// Execution state of a CSP program.
#[derive(Clone, Debug)]
pub struct CspState {
    builder: ComputationBuilder,
    /// The control state: everything but the trace.
    procs: Vec<ProcState>,
    /// Pre-images of the applies since the state was created or cloned,
    /// for [`System::undo`].
    rewind: Rewind<Vec<ProcState>>,
    /// Shared handle to the compiled code, so accessors can translate
    /// names to slots without the system in hand.
    code: Arc<CspCode>,
}

/// A scheduler choice: commit a matched exchange.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CspAction {
    /// Sending process index.
    pub sender: usize,
    /// Index of the send offer within the sender's offers.
    pub send_offer: usize,
    /// Receiving process index.
    pub receiver: usize,
    /// Index of the receive offer within the receiver's offers.
    pub recv_offer: usize,
}

impl CspSystem {
    /// Compiles `program`: builds one GEM group per process with `in`,
    /// `out`, and variable elements, end-classes as ports.
    ///
    /// # Panics
    ///
    /// Panics if a communication names an unknown partner process.
    pub fn new(program: CspProgram) -> Self {
        let mut s = Structure::new();
        let out_req = s.add_class("OutReq", &["partner"]).expect("fresh class");
        let out_end = s
            .add_class("OutEnd", &["val", "partner"])
            .expect("fresh class");
        let in_req = s.add_class("InReq", &["partner"]).expect("fresh class");
        let in_end = s
            .add_class("InEnd", &["val", "partner"])
            .expect("fresh class");
        let assign = s.add_class("Assign", &["newval"]).expect("fresh class");

        let mut out_els = Vec::new();
        let mut in_els = Vec::new();
        let mut var_els = Vec::new();
        for p in &program.processes {
            let out_el = s
                .add_element(format!("{}.out", p.name), &[out_req, out_end])
                .expect("out element");
            let in_el = s
                .add_element(format!("{}.in", p.name), &[in_req, in_end])
                .expect("in element");
            let mut vars = BTreeMap::new();
            let mut members: Vec<NodeRef> = vec![out_el.into(), in_el.into()];
            for (v, _) in &p.locals {
                let el = s
                    .add_element(format!("{}.var.{v}", p.name), &[assign])
                    .expect("var element");
                vars.insert(v.clone(), el);
                members.push(el.into());
            }
            let g = s
                .add_group(p.name.clone(), &members)
                .expect("process group");
            s.add_port(g, out_el, out_end).expect("out port");
            s.add_port(g, in_el, in_end).expect("in port");
            out_els.push(out_el);
            in_els.push(in_el);
            var_els.push(vars);
        }

        // Validate partner names eagerly.
        fn check_stmts(program: &CspProgram, pname: &str, stmts: &[CspStmt]) {
            for st in stmts {
                match st {
                    CspStmt::Comm(c) => check_comm(program, pname, c),
                    CspStmt::Alt(branches) => {
                        for b in branches {
                            check_comm(program, pname, &b.comm);
                            check_stmts(program, pname, &b.body);
                        }
                    }
                    CspStmt::If(_, t, e) => {
                        check_stmts(program, pname, t);
                        check_stmts(program, pname, e);
                    }
                    CspStmt::While(_, b) => check_stmts(program, pname, b),
                    CspStmt::Assign(..) => {}
                }
            }
        }
        fn check_comm(program: &CspProgram, pname: &str, c: &Comm) {
            let partner = match c {
                Comm::Send { to, .. } => to,
                Comm::Recv { from, .. } => from,
            };
            assert!(
                program.process_index(partner).is_some(),
                "process {pname:?} communicates with unknown process {partner:?}"
            );
        }
        for p in &program.processes {
            check_stmts(&program, &p.name, &p.body);
        }

        // Compile: slot-resolve each process's locals and flatten its body
        // into a jump-threaded program over a shared expression pool.
        let t0 = Instant::now();
        let empty = SlotLayout::new();
        let mut pool = ExprPool::default();
        let mut progs = Vec::with_capacity(program.processes.len());
        for (pid, p) in program.processes.iter().enumerate() {
            let mut locals = SlotLayout::new();
            for (n, _) in &p.locals {
                locals.intern(n);
            }
            collect_recv_targets(&p.body, &mut locals);
            let mut init = vec![None; locals.len()];
            for (n, v) in &p.locals {
                init[locals.get(n).expect("interned") as usize] = Some(*v);
            }
            let mut c = CspCompiler {
                pool: &mut pool,
                locals: &locals,
                globals: &empty,
                var_els: &var_els[pid],
                program: &program,
                ops: Vec::new(),
            };
            c.compile(&p.body);
            let mut ops = c.ops;
            ops.push(COp::End);
            progs.push(CProg { ops, locals, init });
        }
        let name_values: Vec<Value> = program
            .processes
            .iter()
            .map(|p| Value::from(p.name.as_str()))
            .collect();
        let stats = CodeStats {
            exprs: pool.expr_count() as u64,
            ops: (pool.op_count() + progs.iter().map(|p| p.ops.len()).sum::<usize>()) as u64,
            consts: pool.const_count() as u64,
            programs: progs.len() as u64,
            slots: progs.iter().map(|p| p.locals.len()).sum::<usize>() as u64,
            compile_ns: t0.elapsed().as_nanos() as u64,
        };
        let code = Arc::new(CspCode {
            pool,
            progs,
            name_values,
            stats,
        });

        Self {
            program,
            structure: Arc::new(s),
            out_req,
            out_end,
            in_req,
            in_end,
            assign,
            out_els,
            in_els,
            code,
        }
    }

    /// Compilation statistics for this system's [code](crate::code).
    pub fn code_stats(&self) -> CodeStats {
        self.code.stats
    }

    /// The program being executed.
    pub fn program(&self) -> &CspProgram {
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

    /// Class id by name (`"OutReq"`, `"OutEnd"`, `"InReq"`, `"InEnd"`,
    /// `"Assign"`).
    ///
    /// # Panics
    ///
    /// Panics on an unknown name.
    pub fn class(&self, name: &str) -> ClassId {
        match name {
            "OutReq" => self.out_req,
            "OutEnd" => self.out_end,
            "InReq" => self.in_req,
            "InEnd" => self.in_end,
            "Assign" => self.assign,
            other => panic!("unknown CSP class {other:?}"),
        }
    }

    /// The `!` element of process `pid`.
    pub fn out_element(&self, pid: usize) -> ElementId {
        self.out_els[pid]
    }

    /// The `?` element of process `pid`.
    pub fn in_element(&self, pid: usize) -> ElementId {
        self.in_els[pid]
    }

    /// Seals the computation accumulated in `state`.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError`] only on a simulator bug (cyclic trace).
    pub fn computation(&self, state: &CspState) -> Result<Computation, BuildError> {
        state.builder.seal_ref()
    }

    fn emit(
        &self,
        state: &mut CspState,
        pid: usize,
        element: ElementId,
        class: ClassId,
        params: impl IntoIterator<Item = Value>,
        extra: impl IntoIterator<Item = EventId>,
    ) -> EventId {
        let e = state
            .builder
            .add_event(element, class, params)
            .expect("ids are from this structure");
        if let Some(last) = state.procs[pid].last {
            state.builder.enable(last, e).expect("known events");
        }
        state.procs[pid].last = Some(e);
        for x in extra {
            state.builder.enable(x, e).expect("known events");
        }
        e
    }

    fn eval(&self, state: &CspState, pid: usize, id: ExprId) -> Value {
        self.code
            .pool
            .eval(id, &[], &state.procs[pid].lslots)
            .unwrap_or_else(|e| panic!("CSP runtime error: {e}"))
    }

    /// Runs process `pid` through its flat program until it blocks at a
    /// `Comm`/`Alt` (pc parked on the op, offer request events published;
    /// `apply` resumes at the committed offer's `cont_pc`) or hits `End`.
    fn run(&self, state: &mut CspState, pid: usize) {
        let prog = &self.code.progs[pid];
        let mut pc = state.procs[pid].pc as usize;
        loop {
            match &prog.ops[pc] {
                COp::Assign { slot, el, expr } => {
                    let v = self.eval(state, pid, *expr);
                    state.procs[pid].lslots[*slot as usize] = Some(v);
                    self.emit(state, pid, *el, self.assign, [v], []);
                    pc += 1;
                }
                COp::AssignUnknown { name, expr } => {
                    // Evaluate first so expression errors surface before
                    // the undeclared-local panic.
                    let _ = self.eval(state, pid, *expr);
                    panic!("undeclared local {name:?}");
                }
                COp::JumpIfFalse { cond, target, kind } => {
                    let b = self
                        .eval(state, pid, *cond)
                        .as_bool()
                        .unwrap_or_else(|| panic!("{}", kind.expect_msg()));
                    pc = if b { pc + 1 } else { *target as usize };
                }
                COp::Jump(t) => pc = *t as usize,
                COp::Comm(tpl) => {
                    let offer = self.publish_offer(state, pid, tpl);
                    state.procs[pid].pc = pc as u32;
                    state.procs[pid].offers.push(offer);
                    return;
                }
                COp::Alt(arms) => {
                    for arm in arms {
                        let open = match arm.guard {
                            None => true,
                            Some(g) => self
                                .eval(state, pid, g)
                                .as_bool()
                                .expect("guard must be boolean"),
                        };
                        if open {
                            let offer = self.publish_offer(state, pid, &arm.tpl);
                            state.procs[pid].offers.push(offer);
                        }
                    }
                    assert!(
                        !state.procs[pid].offers.is_empty(),
                        "alternative with all guards closed (process {:?})",
                        self.program.processes[pid].name
                    );
                    state.procs[pid].pc = pc as u32;
                    return;
                }
                COp::End => {
                    state.procs[pid].pc = pc as u32;
                    return;
                }
            }
        }
    }

    /// Publishes the request event of one communication offer.
    fn publish_offer(&self, state: &mut CspState, pid: usize, tpl: &CommTpl) -> Offer {
        if tpl.is_send {
            let value = self.eval(state, pid, tpl.expr.expect("send offer has expr"));
            let req = self.emit(
                state,
                pid,
                self.out_els[pid],
                self.out_req,
                [self.code.name_values[tpl.partner]],
                [],
            );
            Offer {
                is_send: true,
                partner: tpl.partner,
                value: Some(value),
                req_event: req,
                cont_pc: tpl.cont_pc,
                var_slot: None,
            }
        } else {
            let req = self.emit(
                state,
                pid,
                self.in_els[pid],
                self.in_req,
                [self.code.name_values[tpl.partner]],
                [],
            );
            Offer {
                is_send: false,
                partner: tpl.partner,
                value: None,
                req_event: req,
                cont_pc: tpl.cont_pc,
                var_slot: tpl.var_slot,
            }
        }
    }
}

impl System for CspSystem {
    type State = CspState;
    type Action = CspAction;
    type Checkpoint = SimCheckpoint;

    fn initial(&self) -> CspState {
        let mut state = CspState {
            builder: ComputationBuilder::new(self.structure_arc()),
            procs: self
                .code
                .progs
                .iter()
                .map(|prog| ProcState {
                    lslots: prog.init.clone(),
                    pc: 0,
                    offers: Vec::new(), // published by run below
                    last: None,
                })
                .collect(),
            rewind: Rewind::default(),
            code: Arc::clone(&self.code),
        };
        for pid in 0..self.program.processes.len() {
            self.run(&mut state, pid);
        }
        state
    }

    fn enabled(&self, state: &CspState) -> Vec<CspAction> {
        let mut actions = Vec::new();
        for (p, ps) in state.procs.iter().enumerate() {
            for (si, so) in ps.offers.iter().enumerate() {
                if !so.is_send {
                    continue;
                }
                let q = so.partner;
                if q == p {
                    // Self-communication can never complete in CSP.
                    continue;
                }
                for (ri, ro) in state.procs[q].offers.iter().enumerate() {
                    if !ro.is_send && ro.partner == p {
                        actions.push(CspAction {
                            sender: p,
                            send_offer: si,
                            receiver: q,
                            recv_offer: ri,
                        });
                    }
                }
            }
        }
        crate::explore::record_enabled_width(actions.len());
        actions
    }

    fn apply(&self, state: &mut CspState, action: &CspAction) {
        let t0 = crate::explore::apply_timer();
        state.rewind.save(&mut state.procs);
        let (p, q) = (action.sender, action.receiver);
        // Take what the committed offers carry; the withdrawn offers are
        // dropped with the rest, and the emptied vectors wait for the
        // offers `run` publishes next.
        let sender = &mut state.procs[p].offers;
        assert!(!sender.is_empty(), "sender not blocked");
        let so = &mut sender[action.send_offer];
        let value = so.value.take().expect("send offer carries a value");
        let (s_req, s_cont) = (so.req_event, so.cont_pc);
        sender.clear();
        let receiver = &mut state.procs[q].offers;
        assert!(!receiver.is_empty(), "receiver not blocked");
        let ro = &receiver[action.recv_offer];
        let (r_req, r_cont, r_slot) = (ro.req_event, ro.cont_pc, ro.var_slot);
        receiver.clear();

        // The exchange: OutEnd enabled by {OutReq (chain), InReq}; InEnd
        // enabled by {InReq (chain), OutReq} — the paper's simultaneity.
        self.emit(
            state,
            p,
            self.out_els[p],
            self.out_end,
            [value, self.code.name_values[q]],
            [r_req],
        );
        self.emit(
            state,
            q,
            self.in_els[q],
            self.in_end,
            [value, self.code.name_values[p]],
            [s_req],
        );
        if let Some(slot) = r_slot {
            state.procs[q].lslots[slot as usize] = Some(value);
        }
        state.procs[p].pc = s_cont;
        state.procs[q].pc = r_cont;
        self.run(state, p);
        self.run(state, q);
        crate::explore::record_apply_ns(t0);
    }

    fn is_complete(&self, state: &CspState) -> bool {
        state.procs.iter().all(|p| p.offers.is_empty())
    }

    fn control_key(&self, state: &CspState) -> Option<u64> {
        let mut h = DefaultHasher::new();
        for p in &state.procs {
            // Slot-indexed locals plus pc key control state exactly.
            p.lslots.hash(&mut h);
            p.pc.hash(&mut h);
            if p.offers.is_empty() {
                0u8.hash(&mut h);
            } else {
                1u8.hash(&mut h);
                p.offers.len().hash(&mut h);
            }
        }
        Some(h.finish())
    }

    fn checkpoint(&self, state: &CspState) -> Option<SimCheckpoint> {
        Some(state.rewind.checkpoint(&state.builder))
    }

    fn undo(&self, state: &mut CspState, cp: SimCheckpoint) {
        let CspState {
            builder,
            procs,
            rewind,
            ..
        } = state;
        crate::explore::record_undo_depth(rewind.undo(builder, procs, cp));
    }

    /// Independence oracle for sleep-set POR: two exchanges commute iff
    /// their endpoint sets are disjoint. An exchange touches exactly its
    /// two participants — their `<p>.out`/`<p>.in`/`<p>.var.*` elements,
    /// offer sets, and continuations — so disjoint endpoints mean
    /// disjoint state and disjoint element footprints, while a shared
    /// endpoint consumes that process's offer set (each exchange disables
    /// the other). Offer *indices* stay valid across an independent
    /// exchange because untouched processes keep their offer vectors.
    fn trace_builder<'a>(&self, state: &'a CspState) -> Option<&'a ComputationBuilder> {
        Some(&state.builder)
    }

    fn independent(&self, _state: &CspState, a: &CspAction, b: &CspAction) -> bool {
        a.sender != b.sender
            && a.sender != b.receiver
            && a.receiver != b.sender
            && a.receiver != b.receiver
    }
}

impl CspState {
    /// The number of events emitted so far.
    pub fn event_count(&self) -> usize {
        self.builder.event_count()
    }

    /// The offers currently published by process `pid` (empty when
    /// running or done).
    pub fn offers(&self, pid: usize) -> &[Offer] {
        &self.procs[pid].offers
    }

    /// A local variable of process `pid`.
    pub fn local(&self, pid: usize, var: &str) -> Option<&Value> {
        let slot = self.code.progs[pid].locals.get(var)?;
        self.procs[pid].lslots[slot as usize].as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csp::def::{AltBranch, CspProcess};
    use crate::explore::{find_deadlock, Explorer};
    use crate::Expr;
    use gem_core::is_legal;
    use gem_obs::NoopProbe;
    use std::ops::ControlFlow;

    fn ping_pong() -> CspProgram {
        CspProgram::new()
            .process(
                CspProcess::new(
                    "ping",
                    vec![
                        CspStmt::send("pong", Expr::int(7)),
                        CspStmt::recv("pong", "reply"),
                    ],
                )
                .local("reply", 0i64),
            )
            .process(
                CspProcess::new(
                    "pong",
                    vec![
                        CspStmt::recv("ping", "x"),
                        CspStmt::send("ping", Expr::var("x").add(Expr::int(1))),
                    ],
                )
                .local("x", 0i64),
            )
    }

    #[test]
    fn ping_pong_exchanges_values() {
        let sys = CspSystem::new(ping_pong());
        let stats = Explorer::default().for_each_run(&sys, |state, _| {
            assert!(sys.is_complete(state));
            assert_eq!(state.local(1, "x"), Some(&Value::Int(7)));
            assert_eq!(state.local(0, "reply"), Some(&Value::Int(8)));
            ControlFlow::Continue(())
        });
        assert_eq!(stats.runs, 1, "fully deterministic exchange order");
    }

    #[test]
    fn computations_are_legal_and_paired() {
        let sys = CspSystem::new(ping_pong());
        Explorer::default().for_each_run(&sys, |state, _| {
            let c = sys.computation(state).unwrap();
            assert!(is_legal(&c), "{:?}", gem_core::check_legality(&c));
            // Cross edges: each OutEnd enabled by an InReq and vice versa.
            for oe in c.events_of_class(sys.class("OutEnd")) {
                assert!(c
                    .enablers_of(oe)
                    .iter()
                    .any(|&e| c.event(e).class() == sys.class("InReq")));
                assert!(c
                    .enablers_of(oe)
                    .iter()
                    .any(|&e| c.event(e).class() == sys.class("OutReq")));
            }
            for ie in c.events_of_class(sys.class("InEnd")) {
                assert!(c
                    .enablers_of(ie)
                    .iter()
                    .any(|&e| c.event(e).class() == sys.class("OutReq")));
            }
            ControlFlow::Continue(())
        });
    }

    #[test]
    fn mismatched_processes_deadlock() {
        let prog = CspProgram::new()
            .process(
                CspProcess::new("a", vec![CspStmt::recv("b", "x")].into_iter().collect())
                    .local("x", 0i64),
            )
            .process(CspProcess::new("b", vec![CspStmt::recv("a", "y")]).local("y", 0i64));
        let sys = CspSystem::new(prog);
        assert!(find_deadlock(&sys, &Explorer::default(), &NoopProbe).is_some());
    }

    #[test]
    fn alt_allows_either_order() {
        // A merger accepting one value from each of two producers, in
        // either order, via guarded alternatives.
        let merger = CspProcess::new(
            "m",
            vec![CspStmt::Alt(vec![
                AltBranch {
                    guard: None,
                    comm: Comm::Recv {
                        from: "p1".into(),
                        var: "a".into(),
                    },
                    body: vec![CspStmt::recv("p2", "b")],
                },
                AltBranch {
                    guard: None,
                    comm: Comm::Recv {
                        from: "p2".into(),
                        var: "b".into(),
                    },
                    body: vec![CspStmt::recv("p1", "a")],
                },
            ])],
        )
        .local("a", 0i64)
        .local("b", 0i64);
        let prog = CspProgram::new()
            .process(merger)
            .process(CspProcess::new(
                "p1",
                vec![CspStmt::send("m", Expr::int(1))],
            ))
            .process(CspProcess::new(
                "p2",
                vec![CspStmt::send("m", Expr::int(2))],
            ));
        let sys = CspSystem::new(prog);
        let stats = Explorer::default().for_each_run(&sys, |state, _| {
            assert!(sys.is_complete(state), "alt must not deadlock");
            assert_eq!(state.local(0, "a"), Some(&Value::Int(1)));
            assert_eq!(state.local(0, "b"), Some(&Value::Int(2)));
            ControlFlow::Continue(())
        });
        assert_eq!(stats.runs, 2, "two commit orders");
    }

    #[test]
    fn closed_guards_filtered() {
        let prog = CspProgram::new()
            .process(
                CspProcess::new(
                    "m",
                    vec![CspStmt::Alt(vec![
                        AltBranch {
                            guard: Some(Expr::bool(false)),
                            comm: Comm::Recv {
                                from: "p".into(),
                                var: "x".into(),
                            },
                            body: vec![CspStmt::assign("x", Expr::int(99))],
                        },
                        AltBranch {
                            guard: Some(Expr::bool(true)),
                            comm: Comm::Recv {
                                from: "p".into(),
                                var: "x".into(),
                            },
                            body: vec![],
                        },
                    ])],
                )
                .local("x", 0i64),
            )
            .process(CspProcess::new("p", vec![CspStmt::send("m", Expr::int(5))]));
        let sys = CspSystem::new(prog);
        Explorer::default().for_each_run(&sys, |state, _| {
            assert_eq!(state.local(0, "x"), Some(&Value::Int(5)));
            ControlFlow::Continue(())
        });
    }

    #[test]
    fn local_loops_and_ifs() {
        let prog = CspProgram::new()
            .process(
                CspProcess::new(
                    "w",
                    vec![
                        CspStmt::While(
                            Expr::var("i").lt(Expr::int(3)),
                            vec![CspStmt::assign("i", Expr::var("i").add(Expr::int(1)))],
                        ),
                        CspStmt::If(
                            Expr::var("i").eq(Expr::int(3)),
                            vec![CspStmt::send("sink", Expr::var("i"))],
                            vec![],
                        ),
                    ],
                )
                .local("i", 0i64),
            )
            .process(CspProcess::new("sink", vec![CspStmt::recv("w", "got")]).local("got", 0i64));
        let sys = CspSystem::new(prog);
        Explorer::default().for_each_run(&sys, |state, _| {
            assert_eq!(state.local(1, "got"), Some(&Value::Int(3)));
            ControlFlow::Continue(())
        });
    }

    #[test]
    fn state_accessors() {
        let sys = CspSystem::new(ping_pong());
        let state = sys.initial();
        // Both processes publish their first offers at start.
        assert_eq!(sys.offers_len(&state), (1, 1));
        assert!(state.event_count() >= 2, "requests were published");
        assert!(state.offers(0)[0].is_send);
        assert!(!state.offers(1)[0].is_send);
        assert_eq!(state.local(1, "x"), Some(&Value::Int(0)));
        assert_eq!(state.local(1, "missing"), None);
    }

    impl CspSystem {
        /// Test helper: offer counts for the two ping-pong processes.
        fn offers_len(&self, s: &CspState) -> (usize, usize) {
            (s.offers(0).len(), s.offers(1).len())
        }
    }

    /// Every run of these programs, in DFS order and including every
    /// event parameter, matches what the tree-walking interpreter this
    /// execution path replaced produced (the `unit/csp/*` rows of
    /// `tests/golden/step_semantics.json`).
    #[test]
    fn compiled_matches_interpreted() {
        let merger = || {
            CspProgram::new()
                .process(
                    CspProcess::new(
                        "m",
                        vec![CspStmt::Alt(vec![
                            AltBranch {
                                guard: Some(Expr::var("a").eq(Expr::int(0))),
                                comm: Comm::Recv {
                                    from: "p1".into(),
                                    var: "a".into(),
                                },
                                body: vec![CspStmt::recv("p2", "b")],
                            },
                            AltBranch {
                                guard: None,
                                comm: Comm::Recv {
                                    from: "p2".into(),
                                    var: "b".into(),
                                },
                                body: vec![CspStmt::recv("p1", "a")],
                            },
                        ])],
                    )
                    .local("a", 0i64)
                    .local("b", 0i64),
                )
                .process(CspProcess::new(
                    "p1",
                    vec![CspStmt::send("m", Expr::int(1))],
                ))
                .process(CspProcess::new(
                    "p2",
                    vec![CspStmt::send("m", Expr::int(2))],
                ))
        };
        let loops = || {
            CspProgram::new()
                .process(
                    CspProcess::new(
                        "w",
                        vec![
                            CspStmt::While(
                                Expr::var("i").lt(Expr::int(3)),
                                vec![CspStmt::assign("i", Expr::var("i").add(Expr::int(1)))],
                            ),
                            CspStmt::If(
                                Expr::var("i").eq(Expr::int(3)),
                                vec![CspStmt::send("sink", Expr::var("i"))],
                                vec![CspStmt::send("sink", Expr::int(-1))],
                            ),
                        ],
                    )
                    .local("i", 0i64),
                )
                .process(
                    CspProcess::new("sink", vec![CspStmt::recv("w", "got")]).local("got", 0i64),
                )
        };
        // Deadlocking mismatch: the run stops at the first exchange.
        let mismatch = || {
            CspProgram::new()
                .process(CspProcess::new("a", vec![CspStmt::recv("b", "x")]).local("x", 0i64))
                .process(CspProcess::new("b", vec![CspStmt::recv("a", "y")]).local("y", 0i64))
        };
        for (name, prog) in [
            ("unit/csp/ping-pong", ping_pong()),
            ("unit/csp/merger", merger()),
            ("unit/csp/loops", loops()),
            ("unit/csp/mismatch", mismatch()),
        ] {
            let sys = CspSystem::new(prog);
            crate::golden::assert_golden(name, &sys, |s| sys.computation(s).expect("acyclic"));
        }
    }

    #[test]
    fn code_stats_populated() {
        let sys = CspSystem::new(ping_pong());
        let stats = sys.code_stats();
        assert!(stats.programs == 2 && stats.ops > 0 && stats.slots == 2);
    }

    #[test]
    #[should_panic(expected = "unknown process")]
    fn unknown_partner_rejected() {
        let prog = CspProgram::new().process(CspProcess::new(
            "a",
            vec![CspStmt::send("ghost", Expr::int(1))],
        ));
        let _ = CspSystem::new(prog);
    }

    #[test]
    fn dangling_offers_never_end() {
        // p offers to both q and r via alt; only q accepts. The offer to r
        // remains a request with no end.
        let prog = CspProgram::new()
            .process(CspProcess::new(
                "p",
                vec![CspStmt::Alt(vec![
                    AltBranch {
                        guard: None,
                        comm: Comm::Send {
                            to: "q".into(),
                            expr: Expr::int(1),
                        },
                        body: vec![],
                    },
                    AltBranch {
                        guard: None,
                        comm: Comm::Send {
                            to: "r".into(),
                            expr: Expr::int(2),
                        },
                        body: vec![],
                    },
                ])],
            ))
            .process(CspProcess::new("q", vec![CspStmt::recv("p", "x")]).local("x", 0i64))
            .process(CspProcess::new("r", vec![]));
        let sys = CspSystem::new(prog);
        Explorer::default().for_each_run(&sys, |state, _| {
            assert!(sys.is_complete(state));
            let c = sys.computation(state).unwrap();
            let reqs = c.events_of_class(sys.class("OutReq")).count();
            let ends = c.events_of_class(sys.class("OutEnd")).count();
            assert_eq!(reqs, 2, "both offers published");
            assert_eq!(ends, 1, "only one exchange committed");
            ControlFlow::Continue(())
        });
    }
}
