//! The tree-walking interpreter.
//!
//! Executes an (optionally instrumented) MiniGo program against the
//! simulated runtime: allocation sites honor the escape analysis'
//! stack-or-heap decisions, inserted `tcfree` statements call into the
//! runtime's free primitives, and GC runs at statement boundaries
//! (safepoints) when the pacer requests it, marking from the VM's frames.

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::rc::Rc;

use minigo_escape::{AllocPlace, Analysis, Mode};
use minigo_runtime::{
    Category, FreeOutcome, FreeSource, Runtime, RuntimeConfig, ShadowHeap, ShadowViolation,
};
use minigo_syntax::{
    BinOp, Block, Builtin, Expr, ExprKind, Func, FuncId, Program, Resolution, Stmt, StmtKind, Type,
    TypeInfo, UnOp, VarId,
};

use crate::error::ExecError;
use crate::fxhash::FxHashMap;
use crate::mark::{collect_garbage, RootSink};
use crate::value::{Cell, Key, MapData, MapVal, ObjId, PtrVal, SliceVal, Value};

/// Result alias for execution.
pub type Result<T> = std::result::Result<T, ExecError>;

/// VM configuration.
#[derive(Debug, Clone)]
pub struct VmConfig {
    /// Runtime (allocator/GC/tcfree) configuration.
    pub runtime: RuntimeConfig,
    /// Abort after this many statements (runaway guard).
    pub step_limit: u64,
    /// Maximum call depth.
    pub max_frames: usize,
    /// Whether GoFree's runtime-side map-growth freeing is active
    /// (§4.6.2's GrowMapAndFreeOld). True when running GoFree-compiled
    /// programs.
    pub grow_map_free_old: bool,
    /// Batch adjacent `tcfree` statements (§5, "Possibility of Batching"):
    /// consecutive frees share one call overhead. Off by default, as in
    /// the paper.
    pub batch_frees: bool,
    /// Run the shadow-heap sanitizer: check every load, store, and free
    /// against an out-of-band shadow of the heap and report
    /// use-after-free / use-after-revert / untolerated-double-free
    /// violations in [`RunOutcome::violations`]. Has no effect on the
    /// simulation itself (no ticks, no metrics, no RNG).
    pub sanitize: bool,
}

impl Default for VmConfig {
    fn default() -> Self {
        VmConfig {
            runtime: RuntimeConfig::default(),
            step_limit: 500_000_000,
            max_frames: 4096,
            grow_map_free_old: true,
            batch_frees: false,
            sanitize: false,
        }
    }
}

impl VmConfig {
    /// Configuration matching an analysis mode: plain-Go programs do not
    /// get the map-growth runtime optimization.
    pub fn for_mode(mode: Mode) -> Self {
        VmConfig {
            grow_map_free_old: mode == Mode::GoFree,
            ..VmConfig::default()
        }
    }
}

/// The result of a completed run.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Everything `print` produced.
    pub output: String,
    /// Virtual wall-clock time (table 5 `time`).
    pub time: u64,
    /// Runtime metrics (table 5, 8, 9 inputs).
    pub metrics: minigo_runtime::Metrics,
    /// Statements executed.
    pub steps: u64,
    /// Per-allocation-site profile, sorted by bytes descending (the
    /// paper's profiling-tool view of where heap memory comes from).
    pub site_profile: Vec<SiteProfile>,
    /// Shadow-heap sanitizer findings (empty unless
    /// [`VmConfig::sanitize`] was on). Carried out-of-band: `output`,
    /// `time`, `metrics`, and `steps` are bit-identical with the
    /// sanitizer on or off.
    pub violations: Vec<ShadowViolation>,
    /// The typed runtime event stream (present only when
    /// [`minigo_runtime::RuntimeConfig::trace`] was on). Carried
    /// out-of-band like `violations`: every other report field is
    /// bit-identical with tracing on or off, and the stream itself is
    /// bit-identical across the two VM engines.
    pub trace: Option<minigo_runtime::Trace>,
    /// Which collection backend ran
    /// ([`minigo_runtime::RuntimeConfig::collector`]).
    pub collector: minigo_runtime::CollectorKind,
    /// Inline-cache hits, when the bytecode engine ran an optimized
    /// module (always 0 on the tree-walk and on unoptimized streams).
    /// Carried out-of-band like `violations`: the caches cannot change
    /// any other field.
    pub ic_hits: u64,
    /// Inline-cache misses (see `ic_hits`).
    pub ic_misses: u64,
    /// Optimizer-tier rewrite statistics for the module this run
    /// executed. The VM itself leaves this `None`; the driver that
    /// selected an optimized stream fills it in (so it is `None` on the
    /// tree-walk and at `--opt off`).
    pub opt: Option<crate::bytecode::OptStats>,
    /// Liveness free-placement counters for the compiled program this
    /// run executed. Like `opt`, the VM leaves this `None`; the driver
    /// copies it from the compile so both engines report identically
    /// (it is `None` in `--free-placement scope` and plain-Go runs).
    pub placement: Option<minigo_escape::PlacementStats>,
}

/// The id type used for profile attribution (an expression id).
pub type SiteId = minigo_syntax::ExprId;

/// Heap allocation statistics for one allocation expression.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SiteProfile {
    /// The allocation expression (make/new/&T{}/append).
    pub site: minigo_syntax::ExprId,
    /// Objects allocated at this site.
    pub count: u64,
    /// Bytes allocated at this site.
    pub bytes: u64,
}

/// Runs `program`'s `main` function.
///
/// # Errors
///
/// Returns an [`ExecError`] on panics, nil dereferences, bounds errors,
/// poisoned reads (§6.8), or resource-limit violations.
pub fn run(
    program: &Program,
    res: &Resolution,
    types: &TypeInfo,
    analysis: &Analysis,
    cfg: VmConfig,
) -> Result<RunOutcome> {
    cfg.runtime.validate().map_err(ExecError::InvalidConfig)?;
    let main = program.func("main").ok_or(ExecError::NoMain)?;
    let mut vm = Vm::new(program, res, types, analysis, cfg);
    vm.call_function(main.id, Vec::new())?;
    Ok(vm.finish())
}

/// A persistent tree-walk execution session: one runtime, one heap, one
/// virtual clock, driven through repeated function calls instead of a
/// single `main`. The service harness uses it to execute request
/// handlers against state that survives between calls — GC pacing,
/// tcfree bail-outs, and heap growth accumulate across requests exactly
/// as they would inside one long-running program.
///
/// Values returned by one call may be passed back into later calls; to
/// keep them (and everything reachable from them) alive across the GC
/// cycles in between, root them with [`Session::hold`].
pub struct Session<'p> {
    vm: Vm<'p>,
}

impl<'p> Session<'p> {
    /// Creates a session.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::InvalidConfig`] when the runtime
    /// configuration fails validation.
    pub fn new(
        program: &'p Program,
        res: &'p Resolution,
        types: &'p TypeInfo,
        analysis: &'p Analysis,
        cfg: VmConfig,
    ) -> Result<Self> {
        cfg.runtime.validate().map_err(ExecError::InvalidConfig)?;
        Ok(Session {
            vm: Vm::new(program, res, types, analysis, cfg),
        })
    }

    /// Calls a top-level function by name and returns its results. The
    /// call costs exactly what the same call would cost inside a
    /// program: both engines drive it through their ordinary call
    /// protocol, so session runs stay bit-identical across engines.
    ///
    /// # Errors
    ///
    /// [`ExecError::NoFunc`] for an unknown name; otherwise whatever the
    /// call itself raises.
    pub fn call(&mut self, name: &str, args: Vec<Value>) -> Result<Vec<Value>> {
        let func = self
            .vm
            .program
            .func(name)
            .ok_or_else(|| ExecError::NoFunc(name.to_string()))?;
        self.vm.call_function(func.id, args)
    }

    /// Roots `values` for the rest of the session: they (and everything
    /// reachable from them) survive every GC cycle until [`Session::finish`].
    pub fn hold(&mut self, values: Vec<Value>) {
        self.vm.held.extend(values);
    }

    /// Elapsed virtual time.
    pub fn now(&self) -> u64 {
        self.vm.rt.now()
    }

    /// Advances the virtual clock to absolute time `t` (idle waiting; see
    /// [`Runtime::idle_until`](minigo_runtime::Runtime::idle_until)).
    pub fn idle_until(&mut self, t: u64) {
        self.vm.rt.idle_until(t);
    }

    /// Current live heap bytes.
    pub fn heap_live(&self) -> u64 {
        self.vm.rt.heap_live()
    }

    /// Current page-level heap footprint in bytes.
    pub fn footprint(&self) -> u64 {
        self.vm.rt.footprint()
    }

    /// Every completed GC cycle's stop record so far.
    pub fn pauses(&self) -> &[minigo_runtime::Pause] {
        self.vm.rt.pauses()
    }

    /// Records a completed-request trace span (no-op without tracing).
    pub fn note_request(&mut self, id: u64, arrival: u64, start: u64) {
        self.vm.rt.trace_request(id, arrival, start);
    }

    /// Ends the session: finalizes the runtime (leftover objects count
    /// toward the GC columns, held state included) and assembles the
    /// same [`RunOutcome`] a one-shot [`run`] would produce.
    pub fn finish(self) -> RunOutcome {
        self.vm.finish()
    }
}

/// The runtime entry point a [`FreeSource`] corresponds to (table 4) —
/// used to label sanitizer findings.
pub(crate) fn free_op_name(source: FreeSource) -> &'static str {
    match source {
        FreeSource::SliceLifetime => "FreeSlice",
        FreeSource::MapLifetime => "FreeMap",
        FreeSource::MapGrowOld => "GrowMapAndFreeOld",
        FreeSource::Object => "Tcfree",
    }
}

enum Flow {
    Normal,
    Break,
    Continue,
    Return,
}

enum Slot {
    Plain(Value),
    Boxed(Cell, Option<ObjId>),
}

enum DeferKind {
    Func(FuncId),
    Builtin(Builtin),
}

struct Deferred {
    kind: DeferKind,
    args: Vec<Value>,
}

struct Frame {
    func: FuncId,
    slots: FxHashMap<VarId, Slot>,
    defers: Vec<Deferred>,
}

struct Vm<'p> {
    program: &'p Program,
    res: &'p Resolution,
    types: &'p TypeInfo,
    analysis: &'p Analysis,
    cfg: VmConfig,
    rt: Runtime,
    frames: Vec<Frame>,
    /// Address-taken variables per function (these get boxed slots).
    addr_taken: HashMap<FuncId, HashSet<VarId>>,
    /// Per-site allocation profile: expr id -> (count, bytes).
    site_profile: FxHashMap<minigo_syntax::ExprId, (u64, u64)>,
    /// Interned call stacks, present when tracing: every function
    /// entry/exit stamps the current stack id into the runtime so traced
    /// events carry full call-stack attribution. Interning follows the
    /// call sequence, which both engines execute identically, so stack
    /// ids are bit-identical across engines.
    stacks: Option<minigo_runtime::StackTable>,
    /// The interned id of the current call stack (root when not tracing).
    cur_stack: u32,
    /// Set while executing the 2nd..nth statement of a `tcfree` run with
    /// batching enabled: the call overhead was already charged.
    in_free_batch: bool,
    /// The shadow-heap sanitizer, present when `cfg.sanitize` is on.
    shadow: Option<ShadowHeap>,
    /// Session-held GC roots: values a [`Session`] keeps alive across
    /// calls (service state returned by `setup` and passed back into
    /// every `handle`). Always empty in one-shot [`run`] executions.
    held: Vec<Value>,
    output: String,
    steps: u64,
}

impl<'p> Vm<'p> {
    fn new(
        program: &'p Program,
        res: &'p Resolution,
        types: &'p TypeInfo,
        analysis: &'p Analysis,
        cfg: VmConfig,
    ) -> Self {
        let rt = Runtime::new(cfg.runtime.clone());
        let shadow = cfg.sanitize.then(ShadowHeap::new);
        let stacks = cfg.runtime.trace.then(minigo_runtime::StackTable::new);
        let mut addr_taken = HashMap::new();
        for func in &program.funcs {
            let mut set = HashSet::new();
            collect_addr_taken_block(&func.body, res, &mut set);
            addr_taken.insert(func.id, set);
        }
        Vm {
            program,
            res,
            types,
            analysis,
            cfg,
            rt,
            frames: Vec::new(),
            addr_taken,
            site_profile: FxHashMap::default(),
            stacks,
            cur_stack: minigo_runtime::ROOT_STACK,
            in_free_batch: false,
            shadow,
            held: Vec::new(),
            output: String::new(),
            steps: 0,
        }
    }

    /// End-of-run accounting shared by [`run`] and [`Session::finish`]:
    /// finalizes the runtime and assembles the report.
    fn finish(mut self) -> RunOutcome {
        self.rt.finalize();
        let mut site_profile: Vec<SiteProfile> = self
            .site_profile
            .iter()
            .map(|(&site, &(count, bytes))| SiteProfile { site, count, bytes })
            .collect();
        site_profile.sort_by(|a, b| b.bytes.cmp(&a.bytes).then(a.site.cmp(&b.site)));
        let violations = match self.shadow.as_mut() {
            Some(sh) => sh.take_violations(),
            None => Vec::new(),
        };
        let mut trace = self.rt.take_trace();
        if let (Some(tr), Some(st)) = (trace.as_mut(), self.stacks.take()) {
            // The runtime only sees interned ids; the table that resolves
            // them lives in the VM and rides along in the trace.
            tr.stacks = st;
        }
        RunOutcome {
            output: std::mem::take(&mut self.output),
            time: self.rt.now(),
            metrics: self.rt.metrics().clone(),
            steps: self.steps,
            site_profile,
            violations,
            trace,
            collector: self.rt.collector_kind(),
            ic_hits: 0,
            ic_misses: 0,
            opt: None,
            placement: None,
        }
    }

    // ---- object accounting ----

    fn new_obj(&mut self, size: u64, cat: Category) -> ObjId {
        self.new_obj_at(size, cat, None)
    }

    fn new_obj_at(
        &mut self,
        size: u64,
        cat: Category,
        site: Option<minigo_syntax::ExprId>,
    ) -> ObjId {
        if let Some(site) = site {
            let entry = self.site_profile.entry(site).or_insert((0, 0));
            entry.0 += 1;
            entry.1 += size;
        }
        // The allocator may hand back a previously freed address; the
        // fresh tag is what tells this object from the old occupant.
        let (addr, tag) = self.rt.alloc_at(size, cat, site.map(|s| s.0));
        let id = ObjId { tag, addr };
        if let Some(sh) = &mut self.shadow {
            sh.on_alloc(id.number(), addr);
        }
        id
    }

    /// Attempts a `tcfree` on an accounted object. Returns the outcome and
    /// whether the payload should be poisoned.
    fn free_obj(&mut self, obj: ObjId, source: FreeSource) -> (FreeOutcome, bool) {
        if let Some(sh) = &mut self.shadow {
            sh.check_free(obj.number(), free_op_name(source), self.steps);
        }
        if !obj.is_live(&self.rt) {
            // Already freed or swept: tolerated double free.
            return (
                FreeOutcome::Bailed(minigo_runtime::BailReason::AlreadyFree),
                false,
            );
        }
        let out = if self.in_free_batch {
            self.rt.tcfree_continue(obj.addr, source)
        } else {
            self.rt.tcfree(obj.addr, source)
        };
        match out {
            FreeOutcome::Freed { .. } => {
                if let Some(sh) = &mut self.shadow {
                    sh.on_free(obj.number(), obj.addr);
                }
                (out, false)
            }
            FreeOutcome::Poisoned => (out, true),
            FreeOutcome::Bailed(_) => (out, false),
        }
    }

    fn place_of(&self, expr: &Expr) -> AllocPlace {
        self.analysis.place_of(expr.id)
    }

    // ---- shadow-heap sanitizer hooks ----

    /// Checks a load or store through `obj` against the shadow heap.
    /// No-op when the sanitizer is off or the value is stack-allocated
    /// (`obj` is `None`).
    fn shadow_access(&mut self, obj: Option<ObjId>, op: &'static str) {
        if let (Some(sh), Some(obj)) = (self.shadow.as_mut(), obj) {
            sh.check_access(obj.number(), op, self.steps);
        }
    }

    /// Checks a map operation against the shadow heap: both the hmap
    /// header object and the current bucket array are consulted.
    fn shadow_access_map(&mut self, m: &MapVal, op: &'static str) {
        if self.shadow.is_some() {
            let buckets = m.data.borrow().buckets_obj;
            self.shadow_access(m.obj, op);
            self.shadow_access(buckets, op);
        }
    }

    // ---- write barrier ----

    /// Write-barrier hook at the same heap store sites the shadow
    /// sanitizer checks: tells the collector the object's payload was
    /// mutated (the generational remembered set's input; a total no-op
    /// under the default mark-sweep backend). Stack values (`obj` =
    /// `None`) need no barrier. Unlike the shadow hooks this always
    /// fires — barriers are part of the simulation, not an observer.
    fn barrier_store(&mut self, obj: Option<ObjId>) {
        if let Some(obj) = obj.filter(|o| o.is_live(&self.rt)) {
            self.rt.record_store(obj.addr);
        }
    }

    /// [`Vm::barrier_store`] for a map store: both the hmap header and
    /// the current bucket array count as mutated.
    fn barrier_store_map(&mut self, m: &MapVal) {
        let buckets = m.data.borrow().buckets_obj;
        self.barrier_store(m.obj);
        self.barrier_store(buckets);
    }

    // ---- GC ----

    fn safepoint(&mut self) -> Result<()> {
        self.steps += 1;
        if self.steps > self.cfg.step_limit {
            return Err(ExecError::StepLimit);
        }
        self.rt.tick(1);
        if self.rt.gc_pending() {
            self.collect_garbage();
        }
        Ok(())
    }

    fn collect_garbage(&mut self) {
        let (frames, held) = (&self.frames, &self.held);
        collect_garbage(&mut self.rt, &mut self.shadow, |sink: &mut dyn RootSink| {
            for frame in frames {
                for slot in frame.slots.values() {
                    match slot {
                        Slot::Plain(v) => sink.value(v),
                        Slot::Boxed(cell, obj) => sink.boxed(cell, *obj),
                    }
                }
                for v in frame.defers.iter().flat_map(|d| &d.args) {
                    sink.value(v);
                }
            }
            for v in held {
                sink.value(v);
            }
        });
    }

    // ---- calls ----

    fn call_function(&mut self, fid: FuncId, args: Vec<Value>) -> Result<Vec<Value>> {
        if self.frames.len() >= self.cfg.max_frames {
            return Err(ExecError::StackOverflow);
        }
        let func = &self.program.funcs[fid.index()];
        let mut slots = FxHashMap::default();
        let taken = &self.addr_taken[&fid];
        for (&pvar, arg) in self.res.params_of(fid).iter().zip(args) {
            slots.insert(pvar, make_slot(arg, taken.contains(&pvar)));
        }
        for &rvar in self.res.results_of(fid) {
            let ty = self
                .types
                .var(rvar)
                .ok_or_else(|| ExecError::Internal("untyped result".into()))?;
            let zero = self.zero_value(ty);
            slots.insert(rvar, make_slot(zero, taken.contains(&rvar)));
        }
        self.frames.push(Frame {
            func: fid,
            slots,
            defers: Vec::new(),
        });
        let parent_stack = self.enter_stack(&func.name);

        let body = &func.body;
        let flow = self.exec_block(body);
        // Run defers LIFO regardless of how the body exited; on panic the
        // defers still run before unwinding continues.
        let defer_result = self.run_defers();
        let flow = match (flow, defer_result) {
            (Err(e), _) => Err(e),
            (_, Err(e)) => Err(e),
            (Ok(f), Ok(())) => Ok(f),
        };
        match flow {
            Err(e) => {
                self.leave_stack(parent_stack);
                self.frames.pop();
                Err(e)
            }
            Ok(_) => {
                let mut results = Vec::new();
                for &rvar in self.res.results_of(fid) {
                    results.push(self.read_var(rvar)?);
                }
                self.leave_stack(parent_stack);
                self.frames.pop();
                Ok(results)
            }
        }
    }

    /// Tracing only: interns the stack extended with `name`, stamps it
    /// into the runtime, and returns the previous stack id for
    /// [`Vm::leave_stack`]. A no-op returning the root id when tracing is
    /// off.
    fn enter_stack(&mut self, name: &str) -> u32 {
        let parent = self.cur_stack;
        if let Some(st) = &mut self.stacks {
            self.cur_stack = st.push(parent, name);
            self.rt.set_stack(self.cur_stack);
        }
        parent
    }

    /// Tracing only: restores the caller's stack id on function exit.
    fn leave_stack(&mut self, parent: u32) {
        if self.stacks.is_some() {
            self.cur_stack = parent;
            self.rt.set_stack(parent);
        }
    }

    fn run_defers(&mut self) -> Result<()> {
        loop {
            let Some(d) = self.frames.last_mut().and_then(|f| f.defers.pop()) else {
                return Ok(());
            };
            match d.kind {
                DeferKind::Func(fid) => {
                    self.call_function(fid, d.args)?;
                }
                DeferKind::Builtin(Builtin::Print) => {
                    self.do_print(&d.args);
                }
                DeferKind::Builtin(_) => {}
            }
        }
    }

    /// Declares a variable, boxing it when its address is taken and
    /// charging heap accounting when the analysis decided its storage
    /// escapes.
    fn declare_var(&mut self, var: VarId, value: Value) {
        let fid = self.frames.last().expect("in a frame").func;
        let boxed = self.addr_taken[&fid].contains(&var);
        let slot = if boxed {
            let heap = self
                .analysis
                .funcs
                .get(&fid)
                .and_then(|fg| fg.var_locs.get(&var).copied())
                .map(|loc| self.analysis.funcs[&fid].graph.loc(loc).heap_alloc)
                .unwrap_or(false);
            let obj = if heap {
                let size = self
                    .types
                    .var(var)
                    .map(|t| self.types.inline_size(t))
                    .unwrap_or(8);
                Some(self.new_obj(size, Category::Other))
            } else {
                self.rt.stack_alloc(Category::Other);
                None
            };
            Slot::Boxed(Rc::new(RefCell::new(value)), obj)
        } else {
            Slot::Plain(value)
        };
        self.frames
            .last_mut()
            .expect("in a frame")
            .slots
            .insert(var, slot);
    }

    fn read_var(&self, var: VarId) -> Result<Value> {
        for frame in self.frames.iter().rev() {
            if let Some(slot) = frame.slots.get(&var) {
                let v = match slot {
                    Slot::Plain(v) => v.clone(),
                    Slot::Boxed(cell, _) => cell.borrow().clone(),
                };
                return check_poison(v);
            }
        }
        Err(ExecError::Internal(format!(
            "variable {} not found in any frame",
            self.res.var(var).name
        )))
    }

    fn write_var(&mut self, var: VarId, value: Value) -> Result<()> {
        for frame in self.frames.iter_mut().rev() {
            if let Some(slot) = frame.slots.get_mut(&var) {
                match slot {
                    Slot::Plain(v) => *v = value,
                    Slot::Boxed(cell, _) => *cell.borrow_mut() = value,
                }
                return Ok(());
            }
        }
        Err(ExecError::Internal("write to undeclared variable".into()))
    }

    // ---- statements ----

    fn exec_block(&mut self, block: &Block) -> Result<Flow> {
        let mut prev_was_free = false;
        for stmt in &block.stmts {
            self.safepoint()?;
            let is_free = matches!(stmt.kind, StmtKind::Free { .. });
            self.in_free_batch = self.cfg.batch_frees && is_free && prev_was_free;
            let flow = self.exec_stmt(stmt);
            self.in_free_batch = false;
            prev_was_free = is_free;
            match flow? {
                Flow::Normal => {}
                other => return Ok(other),
            }
        }
        Ok(Flow::Normal)
    }

    fn exec_stmt(&mut self, stmt: &Stmt) -> Result<Flow> {
        match &stmt.kind {
            StmtKind::VarDecl { names, ty, init } => {
                let values = if init.is_empty() {
                    vec![self.zero_value(ty); names.len()]
                } else if init.len() == 1 && names.len() > 1 {
                    self.eval_multi(&init[0], names.len())?
                } else {
                    init.iter().map(|e| self.eval(e)).collect::<Result<_>>()?
                };
                for (i, v) in values.into_iter().enumerate() {
                    let var = self
                        .res
                        .decl_of(stmt.id, i)
                        .ok_or_else(|| ExecError::Internal("unresolved decl".into()))?;
                    self.declare_var(var, v);
                }
                Ok(Flow::Normal)
            }
            StmtKind::ShortDecl { names, init } => {
                let values = if init.len() == 1 && names.len() > 1 {
                    self.eval_multi(&init[0], names.len())?
                } else {
                    init.iter().map(|e| self.eval(e)).collect::<Result<_>>()?
                };
                for (i, v) in values.into_iter().enumerate() {
                    let var = self
                        .res
                        .decl_of(stmt.id, i)
                        .ok_or_else(|| ExecError::Internal("unresolved decl".into()))?;
                    self.declare_var(var, v);
                }
                Ok(Flow::Normal)
            }
            StmtKind::Assign { lhs, op, rhs } => {
                if let Some(op) = op {
                    let old = self.eval(&lhs[0])?;
                    let rv = self.eval(&rhs[0])?;
                    let new = binop(&mut self.rt, *op, &old, &rv)?;
                    self.store(&lhs[0], new)?;
                    return Ok(Flow::Normal);
                }
                let values = if rhs.len() == 1 && lhs.len() > 1 {
                    self.eval_multi(&rhs[0], lhs.len())?
                } else {
                    rhs.iter().map(|e| self.eval(e)).collect::<Result<_>>()?
                };
                for (l, v) in lhs.iter().zip(values) {
                    self.store(l, v)?;
                }
                Ok(Flow::Normal)
            }
            StmtKind::If { cond, then, els } => {
                if self.eval_bool(cond)? {
                    self.exec_block(then)
                } else if let Some(els) = els {
                    self.exec_stmt(els)
                } else {
                    Ok(Flow::Normal)
                }
            }
            StmtKind::For {
                init,
                cond,
                post,
                body,
            } => {
                if let Some(init) = init {
                    self.exec_stmt(init)?;
                }
                loop {
                    if let Some(cond) = cond {
                        if !self.eval_bool(cond)? {
                            break;
                        }
                    }
                    match self.exec_block(body)? {
                        Flow::Break => break,
                        Flow::Return => return Ok(Flow::Return),
                        Flow::Normal | Flow::Continue => {}
                    }
                    if let Some(post) = post {
                        self.exec_stmt(post)?;
                    }
                    self.safepoint()?;
                }
                Ok(Flow::Normal)
            }
            StmtKind::Return { exprs } => {
                let fid = self.frames.last().expect("in a frame").func;
                let results = self.res.results_of(fid).to_vec();
                if !exprs.is_empty() {
                    let values = if exprs.len() == 1 && results.len() > 1 {
                        self.eval_multi(&exprs[0], results.len())?
                    } else {
                        exprs.iter().map(|e| self.eval(e)).collect::<Result<_>>()?
                    };
                    for (&rvar, v) in results.iter().zip(values) {
                        self.write_var(rvar, v)?;
                    }
                }
                Ok(Flow::Return)
            }
            StmtKind::Expr { expr } => {
                self.eval_multi(expr, usize::MAX)?;
                Ok(Flow::Normal)
            }
            StmtKind::BlockStmt { block } => self.exec_block(block),
            StmtKind::Defer { call } => {
                let (kind, args) = match &call.kind {
                    ExprKind::Call { callee, args } => {
                        let fid = self
                            .res
                            .func_by_name(callee)
                            .ok_or_else(|| ExecError::Internal("unknown callee".into()))?;
                        (DeferKind::Func(fid), args)
                    }
                    ExprKind::Builtin { kind, args, .. } => (DeferKind::Builtin(*kind), args),
                    _ => return Err(ExecError::Internal("defer of non-call".into())),
                };
                let args = args
                    .iter()
                    .map(|a| self.eval(a))
                    .collect::<Result<Vec<_>>>()?;
                self.frames
                    .last_mut()
                    .expect("in a frame")
                    .defers
                    .push(Deferred { kind, args });
                Ok(Flow::Normal)
            }
            StmtKind::Switch {
                subject,
                cases,
                default,
            } => {
                let sv = self.eval(subject)?;
                for case in cases {
                    for v in &case.values {
                        let cv = self.eval(v)?;
                        if value_eq(&sv, &cv)? {
                            // Go semantics: `break` inside a switch exits
                            // the switch, not an enclosing loop.
                            return Ok(match self.exec_block(&case.body)? {
                                Flow::Break => Flow::Normal,
                                other => other,
                            });
                        }
                    }
                }
                if let Some(default) = default {
                    return Ok(match self.exec_block(default)? {
                        Flow::Break => Flow::Normal,
                        other => other,
                    });
                }
                Ok(Flow::Normal)
            }
            StmtKind::Break => Ok(Flow::Break),
            StmtKind::Continue => Ok(Flow::Continue),
            StmtKind::Free { target, .. } => {
                let v = self.eval(target)?;
                self.exec_tcfree(v)?;
                Ok(Flow::Normal)
            }
        }
    }

    /// Executes a `tcfree` statement: dispatches to TcfreeSlice /
    /// TcfreeMap / Tcfree on the runtime value (table 4).
    fn exec_tcfree(&mut self, v: Value) -> Result<()> {
        match v {
            Value::Slice(s) => {
                if let Some(obj) = s.obj {
                    let (_, poison) = self.free_obj(obj, FreeSource::SliceLifetime);
                    if poison {
                        let mut cells = s.cells.borrow_mut();
                        for c in cells.iter_mut() {
                            *c = Value::Poison;
                        }
                    }
                }
            }
            Value::Map(m) => {
                let buckets = m.data.borrow().buckets_obj;
                let mut poisoned = false;
                if let Some(b) = buckets {
                    let (out, poison) = self.free_obj(b, FreeSource::MapLifetime);
                    poisoned |= poison;
                    if matches!(out, FreeOutcome::Freed { .. }) {
                        m.data.borrow_mut().buckets_obj = None;
                    }
                }
                if let Some(h) = m.obj {
                    let (_, poison) = self.free_obj(h, FreeSource::MapLifetime);
                    poisoned |= poison;
                }
                if poisoned {
                    let mut data = m.data.borrow_mut();
                    data.poisoned = true;
                    for (_, v) in data.entries.iter_mut() {
                        *v = Value::Poison;
                    }
                }
            }
            Value::Ptr(p) => {
                if let Some(obj) = p.obj {
                    let (_, poison) = self.free_obj(obj, FreeSource::Object);
                    if poison {
                        *p.cell.borrow_mut() = Value::Poison;
                    }
                }
            }
            // tcfree ignores nil and non-reference values (§4.3: calls on
            // stack objects are safe no-ops).
            _ => {}
        }
        Ok(())
    }

    // ---- expressions ----

    fn eval_bool(&mut self, e: &Expr) -> Result<bool> {
        match self.eval(e)? {
            Value::Bool(b) => Ok(b),
            other => Err(ExecError::Internal(format!(
                "expected bool, got {}",
                other.display()
            ))),
        }
    }

    fn eval_int(&mut self, e: &Expr) -> Result<i64> {
        match self.eval(e)? {
            Value::Int(v) => Ok(v),
            other => Err(ExecError::Internal(format!(
                "expected int, got {}",
                other.display()
            ))),
        }
    }

    /// Evaluates an expression that may yield multiple values (a call in
    /// multi-value position). `want == usize::MAX` means "any arity"
    /// (expression statements).
    fn eval_multi(&mut self, e: &Expr, want: usize) -> Result<Vec<Value>> {
        if let ExprKind::Call { callee, args } = &e.kind {
            let fid = self
                .res
                .func_by_name(callee)
                .ok_or_else(|| ExecError::Internal("unknown callee".into()))?;
            let argv = args
                .iter()
                .map(|a| self.eval(a))
                .collect::<Result<Vec<_>>>()?;
            // A call in value position charges its expression-node tick
            // here, after the arguments (the bytecode `Call` instruction's
            // `value_pos` extra).
            if want == 1 {
                self.rt.tick(1);
            }
            self.rt.tick(2);
            let out = self.call_function(fid, argv)?;
            if want != usize::MAX && out.len() != want {
                return Err(ExecError::Internal("result arity mismatch".into()));
            }
            return Ok(out);
        }
        Ok(vec![self.eval(e)?])
    }

    /// Evaluates an expression. Each node charges its one tick at the
    /// point where the bytecode VM's corresponding instruction charges it
    /// (post-order: after the operands, right before the node's own
    /// effect), so runtime trace timestamps are bit-identical across
    /// engines. Totals per statement are unchanged — one tick per node.
    fn eval(&mut self, e: &Expr) -> Result<Value> {
        match &e.kind {
            ExprKind::IntLit(v) => {
                self.rt.tick(1);
                Ok(Value::Int(*v))
            }
            ExprKind::BoolLit(b) => {
                self.rt.tick(1);
                Ok(Value::Bool(*b))
            }
            ExprKind::StrLit(s) => {
                self.rt.tick(1);
                Ok(Value::Str(Rc::from(s.as_str())))
            }
            ExprKind::Nil => {
                self.rt.tick(1);
                Ok(Value::Nil)
            }
            ExprKind::Ident(_) => {
                self.rt.tick(1);
                let var = self
                    .res
                    .def_of(e.id)
                    .ok_or_else(|| ExecError::Internal("unresolved ident".into()))?;
                self.read_var(var)
            }
            ExprKind::Unary { op, operand } => match op {
                UnOp::Neg => {
                    let v = self.eval_int(operand)?;
                    self.rt.tick(1);
                    Ok(Value::Int(v.wrapping_neg()))
                }
                UnOp::Not => {
                    let v = self.eval_bool(operand)?;
                    self.rt.tick(1);
                    Ok(Value::Bool(!v))
                }
                UnOp::Addr => self.addr_of(operand),
                UnOp::Deref => {
                    let v = self.eval(operand)?;
                    self.rt.tick(1);
                    match v {
                        Value::Ptr(p) => {
                            self.shadow_access(p.obj, "pointer deref read");
                            check_poison(p.cell.borrow().clone())
                        }
                        Value::Nil => Err(ExecError::NilDeref),
                        _ => Err(ExecError::Internal("deref of non-pointer".into())),
                    }
                }
            },
            ExprKind::Binary { op, lhs, rhs } => match op {
                // Short-circuit operators charge up front (the lowering
                // emits their tick before the left operand).
                BinOp::And => {
                    self.rt.tick(1);
                    if !self.eval_bool(lhs)? {
                        return Ok(Value::Bool(false));
                    }
                    Ok(Value::Bool(self.eval_bool(rhs)?))
                }
                BinOp::Or => {
                    self.rt.tick(1);
                    if self.eval_bool(lhs)? {
                        return Ok(Value::Bool(true));
                    }
                    Ok(Value::Bool(self.eval_bool(rhs)?))
                }
                _ => {
                    let l = self.eval(lhs)?;
                    let r = self.eval(rhs)?;
                    self.rt.tick(1);
                    binop(&mut self.rt, *op, &l, &r)
                }
            },
            ExprKind::Field { base, name } => {
                let bv = self.eval(base)?;
                self.rt.tick(1);
                if let Value::Ptr(p) = &bv {
                    self.shadow_access(p.obj, "field read");
                }
                let (sv, sname) = self.auto_deref_struct(bv, base)?;
                let idx = self.field_index(&sname, name)?;
                check_poison(sv[idx].clone())
            }
            ExprKind::Index { base, index } => {
                let bv = self.eval(base)?;
                match bv {
                    Value::Slice(s) => {
                        let i = self.eval_int(index)?;
                        self.rt.tick(1);
                        if i < 0 || i as usize >= s.len {
                            return Err(ExecError::OutOfBounds {
                                index: i,
                                len: s.len,
                            });
                        }
                        self.shadow_access(s.obj, "slice index read");
                        check_poison(s.cells.borrow()[s.offset + i as usize].clone())
                    }
                    Value::Map(m) => {
                        let kv = self.eval(index)?;
                        self.rt.tick(1);
                        let key = kv
                            .as_key()
                            .ok_or_else(|| ExecError::Internal("bad map key".into()))?;
                        self.rt.tick(2);
                        self.shadow_access_map(&m, "map lookup");
                        let data = m.data.borrow();
                        if data.poisoned {
                            return Err(ExecError::PoisonedRead);
                        }
                        match data.get(&key) {
                            Some(v) => check_poison(v.clone()),
                            None => Ok(data.default.clone()),
                        }
                    }
                    Value::Nil => Err(ExecError::NilDeref),
                    _ => Err(ExecError::Internal("index of non-indexable".into())),
                }
            }
            ExprKind::SliceExpr { base, lo, hi } => {
                let bv = self.eval(base)?;
                let lo_v = match lo {
                    Some(e) => self.eval_int(e)?,
                    None => 0,
                };
                let hi_raw = match hi {
                    Some(e) => Some(self.eval_int(e)?),
                    None => None,
                };
                self.rt.tick(1);
                match bv {
                    Value::Slice(s) => {
                        let hi_v = hi_raw.unwrap_or(s.len as i64);
                        // Go allows the high bound up to cap(s).
                        if lo_v < 0 || hi_v < lo_v || hi_v as usize > s.cap() {
                            return Err(ExecError::OutOfBounds {
                                index: hi_v,
                                len: s.cap(),
                            });
                        }
                        Ok(Value::slice(SliceVal {
                            cells: s.cells.clone(),
                            obj: s.obj,
                            offset: s.offset + lo_v as usize,
                            len: (hi_v - lo_v) as usize,
                            elem_size: s.elem_size,
                        }))
                    }
                    Value::Nil => {
                        if lo_v == 0 && hi_raw.unwrap_or(0) == 0 {
                            Ok(Value::Nil)
                        } else {
                            Err(ExecError::NilDeref)
                        }
                    }
                    _ => Err(ExecError::Internal("reslice of non-slice".into())),
                }
            }
            ExprKind::Call { .. } => {
                let mut out = self.eval_multi(e, 1)?;
                Ok(out.pop().expect("arity checked"))
            }
            ExprKind::Builtin {
                kind,
                ty_args,
                args,
            } => self.builtin(e, *kind, ty_args, args),
            ExprKind::StructLit { name, fields } => {
                let mut values = Vec::with_capacity(fields.len());
                for f in fields {
                    values.push(self.eval(f)?);
                }
                self.rt.tick(1);
                let _ = name;
                Ok(Value::struct_of(values))
            }
        }
    }

    fn addr_of(&mut self, operand: &Expr) -> Result<Value> {
        match &operand.kind {
            ExprKind::Ident(_) => {
                self.rt.tick(1);
                let var = self
                    .res
                    .def_of(operand.id)
                    .ok_or_else(|| ExecError::Internal("unresolved ident".into()))?;
                for frame in self.frames.iter().rev() {
                    if let Some(slot) = frame.slots.get(&var) {
                        return match slot {
                            Slot::Boxed(cell, obj) => Ok(Value::ptr(PtrVal {
                                cell: cell.clone(),
                                obj: *obj,
                            })),
                            Slot::Plain(_) => Err(ExecError::Internal(format!(
                                "address taken of unboxed variable {}",
                                self.res.var(var).name
                            ))),
                        };
                    }
                }
                Err(ExecError::Internal("variable not found".into()))
            }
            ExprKind::StructLit { .. } => {
                let v = self.eval(operand)?;
                self.rt.tick(1);
                let place = self.place_of(operand);
                let obj = if place == AllocPlace::Heap {
                    let size = self
                        .types
                        .expr(operand.id)
                        .map(|t| self.types.inline_size(t))
                        .unwrap_or(8);
                    Some(self.new_obj_at(size, Category::Other, Some(operand.id)))
                } else {
                    self.rt.stack_alloc(Category::Other);
                    None
                };
                Ok(Value::ptr(PtrVal {
                    cell: Rc::new(RefCell::new(v)),
                    obj,
                }))
            }
            ExprKind::Unary {
                op: UnOp::Deref,
                operand: inner,
            } => {
                // `&*p` evaluates to `p`; the `&` node still ticks (the
                // lowering emits its tick ahead of the inner expression).
                self.rt.tick(1);
                self.eval(inner)
            }
            other => Err(ExecError::Unsupported(format!(
                "interior pointers (&{other:?}) are not supported by the VM"
            ))),
        }
    }

    fn builtin(
        &mut self,
        e: &Expr,
        kind: Builtin,
        ty_args: &[Type],
        args: &[Expr],
    ) -> Result<Value> {
        match kind {
            Builtin::Make => {
                let ty = &ty_args[0];
                match ty {
                    Type::Slice(elem) => {
                        let len = self.eval_int(&args[0])?.max(0) as usize;
                        let cap = if args.len() > 1 {
                            (self.eval_int(&args[1])?.max(0) as usize).max(len)
                        } else {
                            len
                        };
                        self.rt.tick(1);
                        let elem_size = self.types.inline_size(elem);
                        let zero = self.zero_value(elem);
                        self.make_slice(e, len, cap, elem_size, zero)
                    }
                    Type::Map(_, v) => {
                        self.rt.tick(1);
                        let default = self.zero_value(v);
                        let entry_size = 16 + self.types.inline_size(v);
                        self.make_map(e, default, entry_size)
                    }
                    _ => Err(ExecError::Internal("make of bad type".into())),
                }
            }
            Builtin::New => {
                self.rt.tick(1);
                let ty = &ty_args[0];
                let zero = self.zero_value(ty);
                let place = self.place_of(e);
                let obj = if place == AllocPlace::Heap {
                    let size = self.types.inline_size(ty);
                    Some(self.new_obj_at(size, Category::Other, Some(e.id)))
                } else {
                    self.rt.stack_alloc(Category::Other);
                    None
                };
                Ok(Value::ptr(PtrVal {
                    cell: Rc::new(RefCell::new(zero)),
                    obj,
                }))
            }
            Builtin::Append => {
                let sv = self.eval(&args[0])?;
                let item = self.eval(&args[1])?;
                self.rt.tick(1);
                let elem_size = match self.types.expr(args[0].id) {
                    Some(Type::Slice(elem)) => self.types.inline_size(elem),
                    _ => 8,
                };
                self.append(sv, item, elem_size, e.id)
            }
            Builtin::Len => {
                let v = self.eval(&args[0])?;
                self.rt.tick(1);
                match v {
                    Value::Slice(s) => Ok(Value::Int(s.len as i64)),
                    Value::Map(m) => Ok(Value::Int(m.data.borrow().len() as i64)),
                    Value::Str(s) => Ok(Value::Int(s.len() as i64)),
                    Value::Nil => Ok(Value::Int(0)),
                    _ => Err(ExecError::Internal("len of bad value".into())),
                }
            }
            Builtin::Cap => {
                let v = self.eval(&args[0])?;
                self.rt.tick(1);
                match v {
                    Value::Slice(s) => Ok(Value::Int(s.cap() as i64)),
                    Value::Nil => Ok(Value::Int(0)),
                    _ => Err(ExecError::Internal("cap of bad value".into())),
                }
            }
            Builtin::Delete => {
                let mv = self.eval(&args[0])?;
                let kv = self.eval(&args[1])?;
                self.rt.tick(1);
                if let Value::Map(m) = mv {
                    let key = kv
                        .as_key()
                        .ok_or_else(|| ExecError::Internal("bad map key".into()))?;
                    self.rt.tick(2);
                    self.shadow_access_map(&m, "map delete");
                    m.data.borrow_mut().remove(&key);
                }
                Ok(Value::Int(0))
            }
            Builtin::Panic => {
                let v = self.eval(&args[0])?;
                self.rt.tick(1);
                Err(ExecError::Panic(v.display()))
            }
            Builtin::Print => {
                let values = args
                    .iter()
                    .map(|a| self.eval(a))
                    .collect::<Result<Vec<_>>>()?;
                self.rt.tick(1);
                self.do_print(&values);
                Ok(Value::Int(0))
            }
            Builtin::Itoa => {
                let v = self.eval_int(&args[0])?;
                self.rt.tick(1);
                Ok(Value::Str(Rc::from(v.to_string().as_str())))
            }
        }
    }

    fn do_print(&mut self, values: &[Value]) {
        let line: Vec<String> = values.iter().map(Value::display).collect();
        self.output.push_str(&line.join(" "));
        self.output.push('\n');
    }

    fn make_slice(
        &mut self,
        site: &Expr,
        len: usize,
        cap: usize,
        elem_size: u64,
        zero: Value,
    ) -> Result<Value> {
        let cap = cap.max(1);
        let place = self.place_of(site);
        let obj = if place == AllocPlace::Heap {
            Some(self.new_obj_at(
                (cap as u64 * elem_size).max(8),
                Category::Slice,
                Some(site.id),
            ))
        } else {
            self.rt.stack_alloc(Category::Slice);
            None
        };
        Ok(Value::slice(SliceVal {
            cells: Rc::new(RefCell::new(vec![zero; cap])),
            obj,
            offset: 0,
            len,
            elem_size,
        }))
    }

    fn make_map(&mut self, site: &Expr, default: Value, entry_size: u64) -> Result<Value> {
        let place = self.place_of(site);
        let obj = if place == AllocPlace::Heap {
            Some(self.new_obj_at(minigo_escape::MAP_BASE_BYTES, Category::Map, Some(site.id)))
        } else {
            self.rt.stack_alloc(Category::Map);
            None
        };
        Ok(Value::map(MapVal {
            data: Rc::new(RefCell::new(MapData {
                entries: Vec::new(),
                index: FxHashMap::default(),
                buckets_obj: None,
                bucket_cap: 8,
                default,
                entry_size,
                origin: Some(site.id),
                poisoned: false,
            })),
            obj,
        }))
    }

    fn append(
        &mut self,
        sv: Value,
        item: Value,
        elem_size: u64,
        site: minigo_syntax::ExprId,
    ) -> Result<Value> {
        self.rt.tick(2);
        match sv {
            Value::Nil => {
                // Appending to a nil slice allocates a fresh heap array
                // (runtime-managed, §4.6.1).
                let cap = 8;
                let obj = self.new_obj_at(cap as u64 * elem_size, Category::Slice, Some(site));
                let mut cells = vec![item];
                cells.resize(cap, Value::Int(0));
                Ok(Value::slice(SliceVal {
                    cells: Rc::new(RefCell::new(cells)),
                    obj: Some(obj),
                    offset: 0,
                    len: 1,
                    elem_size,
                }))
            }
            Value::Slice(mut s) => {
                self.shadow_access(s.obj, "append");
                if s.len < s.cap() {
                    let at = s.offset + s.len;
                    s.cells.borrow_mut()[at] = item;
                    Rc::make_mut(&mut s).len += 1;
                    Ok(Value::Slice(s))
                } else {
                    // Grow: a fresh heap array; the old one is left to GC
                    // (other slices may still reference it).
                    let new_cap = (s.cap() * 2).max(8);
                    let obj =
                        self.new_obj_at(new_cap as u64 * elem_size, Category::Slice, Some(site));
                    let mut cells: Vec<Value> =
                        s.cells.borrow()[s.offset..s.offset + s.len].to_vec();
                    cells.push(item);
                    cells.resize(new_cap, Value::Int(0));
                    Ok(Value::slice(SliceVal {
                        cells: Rc::new(RefCell::new(cells)),
                        obj: Some(obj),
                        offset: 0,
                        len: s.len + 1,
                        elem_size,
                    }))
                }
            }
            _ => Err(ExecError::Internal("append to non-slice".into())),
        }
    }

    fn map_insert(&mut self, m: &MapVal, key: Key, value: Value) -> Result<()> {
        self.rt.tick(3);
        self.shadow_access_map(m, "map insert");
        self.barrier_store_map(m);
        let (is_new, needs_growth) = {
            let data = m.data.borrow();
            if data.poisoned {
                return Err(ExecError::PoisonedRead);
            }
            let is_new = data.get(&key).is_none();
            (is_new, is_new && data.len() + 1 > data.bucket_cap)
        };
        if needs_growth {
            // §4.6.2: the map grows; the old bucket array is exclusively
            // owned and (under GoFree) explicitly freed.
            let (old, new_cap, entry_size, origin) = {
                let mut data = m.data.borrow_mut();
                let new_cap = data.bucket_cap * 2;
                data.bucket_cap = new_cap;
                (
                    data.buckets_obj.take(),
                    new_cap,
                    data.entry_size,
                    data.origin,
                )
            };
            let new_obj = self.new_obj_at(new_cap as u64 * entry_size, Category::Map, origin);
            m.data.borrow_mut().buckets_obj = Some(new_obj);
            if let Some(old) = old {
                if self.cfg.grow_map_free_old {
                    let (_, poison) = self.free_obj(old, FreeSource::MapGrowOld);
                    if poison {
                        // Poisoning old buckets corrupts nothing the map
                        // still uses: entries were evacuated. Nothing to do.
                    }
                } else {
                    // Plain Go: the old buckets become garbage for GC; we
                    // simply drop the strong reference.
                    let _ = old;
                }
            }
        }
        let _ = is_new;
        m.data.borrow_mut().insert(key, value);
        Ok(())
    }

    // ---- lvalue stores ----

    fn store(&mut self, lv: &Expr, value: Value) -> Result<()> {
        match &lv.kind {
            ExprKind::Ident(_) => {
                let var = self
                    .res
                    .def_of(lv.id)
                    .ok_or_else(|| ExecError::Internal("unresolved ident".into()))?;
                self.write_var(var, value)
            }
            ExprKind::Unary {
                op: UnOp::Deref,
                operand,
            } => match self.eval(operand)? {
                Value::Ptr(p) => {
                    self.shadow_access(p.obj, "pointer deref write");
                    self.barrier_store(p.obj);
                    *p.cell.borrow_mut() = value;
                    Ok(())
                }
                Value::Nil => Err(ExecError::NilDeref),
                _ => Err(ExecError::Internal("store through non-pointer".into())),
            },
            ExprKind::Field { base, name } => {
                let bv = self.eval(base)?;
                match bv {
                    Value::Ptr(p) => {
                        // Through-pointer store: mutate in place.
                        self.shadow_access(p.obj, "field write");
                        self.barrier_store(p.obj);
                        let sname = self.struct_name_of(base, true)?;
                        let idx = self.field_index(&sname, name)?;
                        let mut target = p.cell.borrow_mut();
                        match &mut *target {
                            Value::Struct(fields) => {
                                Rc::make_mut(fields)[idx] = value;
                                Ok(())
                            }
                            Value::Poison => Err(ExecError::PoisonedRead),
                            _ => Err(ExecError::Internal("field store on non-struct".into())),
                        }
                    }
                    Value::Struct(mut fields) => {
                        // Value semantics: copy, modify, write back.
                        let sname = self.struct_name_of(base, false)?;
                        let idx = self.field_index(&sname, name)?;
                        Rc::make_mut(&mut fields)[idx] = value;
                        self.store(base, Value::Struct(fields))
                    }
                    Value::Nil => Err(ExecError::NilDeref),
                    Value::Poison => Err(ExecError::PoisonedRead),
                    _ => Err(ExecError::Internal("field store on non-struct".into())),
                }
            }
            ExprKind::Index { base, index } => {
                let bv = self.eval(base)?;
                match bv {
                    Value::Slice(s) => {
                        let i = self.eval_int(index)?;
                        if i < 0 || i as usize >= s.len {
                            return Err(ExecError::OutOfBounds {
                                index: i,
                                len: s.len,
                            });
                        }
                        self.shadow_access(s.obj, "slice index write");
                        self.barrier_store(s.obj);
                        s.cells.borrow_mut()[s.offset + i as usize] = value;
                        Ok(())
                    }
                    Value::Map(m) => {
                        let kv = self.eval(index)?;
                        let key = kv
                            .as_key()
                            .ok_or_else(|| ExecError::Internal("bad map key".into()))?;
                        self.map_insert(&m, key, value)
                    }
                    Value::Nil => Err(ExecError::NilDeref),
                    _ => Err(ExecError::Internal("store into non-indexable".into())),
                }
            }
            _ => Err(ExecError::Internal("bad lvalue".into())),
        }
    }

    // ---- helpers ----

    fn auto_deref_struct(&self, v: Value, base: &Expr) -> Result<(Rc<Vec<Value>>, String)> {
        match v {
            Value::Struct(fields) => {
                let name = self.struct_name_of(base, false)?;
                Ok((fields, name))
            }
            Value::Ptr(p) => {
                let name = self.struct_name_of(base, true)?;
                let inner = p.cell.borrow().clone();
                match inner {
                    Value::Struct(fields) => Ok((fields, name)),
                    Value::Poison => Err(ExecError::PoisonedRead),
                    _ => Err(ExecError::Internal("field of non-struct".into())),
                }
            }
            Value::Nil => Err(ExecError::NilDeref),
            Value::Poison => Err(ExecError::PoisonedRead),
            _ => Err(ExecError::Internal("field of non-struct".into())),
        }
    }

    fn struct_name_of(&self, base: &Expr, through_ptr: bool) -> Result<String> {
        match self.types.expr(base.id) {
            Some(Type::Named(n)) if !through_ptr => Ok(n.clone()),
            Some(Type::Ptr(inner)) if through_ptr => match &**inner {
                Type::Named(n) => Ok(n.clone()),
                _ => Err(ExecError::Internal("pointer to non-struct".into())),
            },
            other => Err(ExecError::Internal(format!(
                "no struct type for base: {other:?}"
            ))),
        }
    }

    fn field_index(&self, sname: &str, field: &str) -> Result<usize> {
        self.types
            .fields_of(sname)
            .and_then(|fs| fs.iter().position(|(f, _)| f == field))
            .ok_or_else(|| ExecError::Internal(format!("no field {field} on {sname}")))
    }

    fn zero_value(&self, ty: &Type) -> Value {
        match ty {
            Type::Int => Value::Int(0),
            Type::Bool => Value::Bool(false),
            Type::Str => Value::Str(Rc::from("")),
            Type::Ptr(_) | Type::Slice(_) | Type::Map(_, _) => Value::Nil,
            Type::Named(name) => {
                let fields = self
                    .types
                    .fields_of(name)
                    .map(|fs| fs.to_vec())
                    .unwrap_or_default();
                Value::struct_of(fields.iter().map(|(_, t)| self.zero_value(t)).collect())
            }
        }
    }
}

fn make_slot(value: Value, boxed: bool) -> Slot {
    if boxed {
        Slot::Boxed(Rc::new(RefCell::new(value)), None)
    } else {
        Slot::Plain(value)
    }
}

/// Applies a binary operator to borrowed operands, charging
/// string-concatenation ticks on the given runtime. The one operator
/// table, shared by both execution engines. `Int × Int` is tested first
/// and is all that inlines into a caller; everything else (strings,
/// equality over non-ints, poison, type errors) sits behind one call.
#[inline(always)]
pub(crate) fn binop(rt: &mut Runtime, op: BinOp, l: &Value, r: &Value) -> Result<Value> {
    use BinOp::*;
    if let (Value::Int(a), Value::Int(b)) = (l, r) {
        let (a, b) = (*a, *b);
        return Ok(match op {
            Add => Value::Int(a.wrapping_add(b)),
            Sub => Value::Int(a.wrapping_sub(b)),
            Mul => Value::Int(a.wrapping_mul(b)),
            Div | Rem if b == 0 => return Err(ExecError::DivByZero),
            Div => Value::Int(a.wrapping_div(b)),
            Rem => Value::Int(a.wrapping_rem(b)),
            Lt => Value::Bool(a < b),
            Le => Value::Bool(a <= b),
            Gt => Value::Bool(a > b),
            Ge => Value::Bool(a >= b),
            Eq => Value::Bool(a == b),
            Ne => Value::Bool(a != b),
            And | Or => return binop_other(rt, op, l, r),
        });
    }
    binop_other(rt, op, l, r)
}

/// The rows of [`binop`] with a non-`Int` operand.
#[inline(never)]
fn binop_other(rt: &mut Runtime, op: BinOp, l: &Value, r: &Value) -> Result<Value> {
    use BinOp::*;
    if matches!(l, Value::Poison) || matches!(r, Value::Poison) {
        return Err(ExecError::PoisonedRead);
    }
    match (op, l, r) {
        (Add, Value::Str(a), Value::Str(b)) => {
            let mut s = a.to_string();
            s.push_str(b);
            rt.tick(1 + (s.len() as u64) / 16);
            Ok(Value::Str(Rc::from(s.as_str())))
        }
        (Lt, Value::Str(a), Value::Str(b)) => Ok(Value::Bool(a < b)),
        (Le, Value::Str(a), Value::Str(b)) => Ok(Value::Bool(a <= b)),
        (Gt, Value::Str(a), Value::Str(b)) => Ok(Value::Bool(a > b)),
        (Ge, Value::Str(a), Value::Str(b)) => Ok(Value::Bool(a >= b)),
        (Eq, _, _) => Ok(Value::Bool(value_eq(l, r)?)),
        (Ne, _, _) => Ok(Value::Bool(!value_eq(l, r)?)),
        _ => Err(ExecError::Internal(format!(
            "bad operands for {op}: {} and {}",
            l.display(),
            r.display()
        ))),
    }
}

#[inline]
pub(crate) fn check_poison(v: Value) -> Result<Value> {
    if matches!(v, Value::Poison) {
        Err(ExecError::PoisonedRead)
    } else {
        Ok(v)
    }
}

#[inline]
pub(crate) fn value_eq(a: &Value, b: &Value) -> Result<bool> {
    Ok(match (a, b) {
        (Value::Int(x), Value::Int(y)) => x == y,
        (Value::Bool(x), Value::Bool(y)) => x == y,
        (Value::Str(x), Value::Str(y)) => x == y,
        (Value::Nil, Value::Nil) => true,
        (Value::Nil, Value::Ptr(_) | Value::Slice(_) | Value::Map(_))
        | (Value::Ptr(_) | Value::Slice(_) | Value::Map(_), Value::Nil) => false,
        (Value::Ptr(x), Value::Ptr(y)) => Rc::ptr_eq(&x.cell, &y.cell),
        (Value::Map(x), Value::Map(y)) => Rc::ptr_eq(&x.data, &y.data),
        (Value::Struct(xs), Value::Struct(ys)) => {
            if xs.len() != ys.len() {
                return Ok(false);
            }
            for (x, y) in xs.iter().zip(ys.iter()) {
                if !value_eq(x, y)? {
                    return Ok(false);
                }
            }
            true
        }
        (Value::Slice(_), Value::Slice(_)) => {
            return Err(ExecError::Internal(
                "slices are only comparable to nil".into(),
            ));
        }
        _ => false,
    })
}

pub(crate) fn collect_addr_taken_block(block: &Block, res: &Resolution, out: &mut HashSet<VarId>) {
    for stmt in &block.stmts {
        collect_addr_taken_stmt(stmt, res, out);
    }
}

fn collect_addr_taken_stmt(stmt: &Stmt, res: &Resolution, out: &mut HashSet<VarId>) {
    let mut visit_expr = |e: &Expr| collect_addr_taken_expr(e, res, out);
    match &stmt.kind {
        StmtKind::VarDecl { init, .. } | StmtKind::ShortDecl { init, .. } => {
            init.iter().for_each(&mut visit_expr)
        }
        StmtKind::Assign { lhs, rhs, .. } => {
            lhs.iter().for_each(&mut visit_expr);
            rhs.iter().for_each(&mut visit_expr);
        }
        StmtKind::If { cond, then, els } => {
            visit_expr(cond);
            collect_addr_taken_block(then, res, out);
            if let Some(els) = els {
                collect_addr_taken_stmt(els, res, out);
            }
        }
        StmtKind::For {
            init,
            cond,
            post,
            body,
        } => {
            if let Some(init) = init {
                collect_addr_taken_stmt(init, res, out);
            }
            if let Some(cond) = cond {
                collect_addr_taken_expr(cond, res, out);
            }
            if let Some(post) = post {
                collect_addr_taken_stmt(post, res, out);
            }
            collect_addr_taken_block(body, res, out);
        }
        StmtKind::Return { exprs } => exprs.iter().for_each(&mut visit_expr),
        StmtKind::Expr { expr } => visit_expr(expr),
        StmtKind::BlockStmt { block } => collect_addr_taken_block(block, res, out),
        StmtKind::Defer { call } => visit_expr(call),
        StmtKind::Switch {
            subject,
            cases,
            default,
        } => {
            collect_addr_taken_expr(subject, res, out);
            for case in cases {
                for v in &case.values {
                    collect_addr_taken_expr(v, res, out);
                }
                collect_addr_taken_block(&case.body, res, out);
            }
            if let Some(default) = default {
                collect_addr_taken_block(default, res, out);
            }
        }
        StmtKind::Break | StmtKind::Continue => {}
        StmtKind::Free { target, .. } => visit_expr(target),
    }
}

fn collect_addr_taken_expr(e: &Expr, res: &Resolution, out: &mut HashSet<VarId>) {
    match &e.kind {
        ExprKind::Unary {
            op: UnOp::Addr,
            operand,
        } => {
            if let ExprKind::Ident(_) = &operand.kind {
                if let Some(v) = res.def_of(operand.id) {
                    out.insert(v);
                }
            }
            collect_addr_taken_expr(operand, res, out);
        }
        ExprKind::Unary { operand, .. } => collect_addr_taken_expr(operand, res, out),
        ExprKind::Binary { lhs, rhs, .. } => {
            collect_addr_taken_expr(lhs, res, out);
            collect_addr_taken_expr(rhs, res, out);
        }
        ExprKind::Field { base, .. } => collect_addr_taken_expr(base, res, out),
        ExprKind::Index { base, index } => {
            collect_addr_taken_expr(base, res, out);
            collect_addr_taken_expr(index, res, out);
        }
        ExprKind::SliceExpr { base, lo, hi } => {
            collect_addr_taken_expr(base, res, out);
            for bound in [lo, hi].into_iter().flatten() {
                collect_addr_taken_expr(bound, res, out);
            }
        }
        ExprKind::Call { args, .. } | ExprKind::Builtin { args, .. } => {
            args.iter()
                .for_each(|a| collect_addr_taken_expr(a, res, out));
        }
        ExprKind::StructLit { fields, .. } => {
            fields
                .iter()
                .for_each(|f| collect_addr_taken_expr(f, res, out));
        }
        _ => {}
    }
}

// The `Func` import is used in signatures via Program lookups.
#[allow(unused)]
fn _assert_types(_: &Func) {}

#[cfg(test)]
mod tests {
    use super::*;
    use minigo_escape::{analyze, instrument, AnalyzeOptions};
    use minigo_runtime::PoisonMode;
    use minigo_syntax::frontend;

    fn run_src_with(src: &str, opts: AnalyzeOptions, cfg: VmConfig) -> Result<RunOutcome> {
        let (program, mut res, types) = frontend(src).expect("frontend");
        let analysis = analyze(&program, &res, &types, &opts);
        let instrumented = instrument(&program, &mut res, &analysis);
        run(&instrumented, &res, &types, &analysis, cfg)
    }

    fn run_src(src: &str) -> RunOutcome {
        let cfg = VmConfig {
            runtime: RuntimeConfig {
                migrate_prob: 0.0,
                jitter: 0.0,
                ..RuntimeConfig::default()
            },
            ..VmConfig::default()
        };
        match run_src_with(src, AnalyzeOptions::default(), cfg) {
            Ok(out) => out,
            Err(e) => panic!("run failed: {e}\nsource:\n{src}"),
        }
    }

    #[test]
    fn arithmetic_and_print() {
        let out = run_src("func main() { x := 2 + 3 * 4\n print(x, x % 5, x / 2) }\n");
        assert_eq!(out.output, "14 4 7\n");
    }

    #[test]
    fn control_flow_fib() {
        let out = run_src(
            "func fib(n int) int { if n < 2 { return n }\n return fib(n-1) + fib(n-2) }\nfunc main() { print(fib(10)) }\n",
        );
        assert_eq!(out.output, "55\n");
    }

    #[test]
    fn loops_break_continue() {
        let out = run_src(
            "func main() { sum := 0\n for i := 0; i < 10; i += 1 { if i == 3 { continue }\n if i == 7 { break }\n sum += i }\n print(sum) }\n",
        );
        assert_eq!(out.output, "18\n"); // 0+1+2+4+5+6
    }

    #[test]
    fn slices_share_backing() {
        let out =
            run_src("func main() { s := make([]int, 3)\n t := s\n t[1] = 42\n print(s[1]) }\n");
        assert_eq!(out.output, "42\n");
    }

    #[test]
    fn append_grows_and_preserves() {
        let out = run_src(
            "func main() { var s []int\n for i := 0; i < 20; i += 1 { s = append(s, i*i) }\n print(len(s), s[19], cap(s) >= 20) }\n",
        );
        assert_eq!(out.output, "20 361 true\n");
    }

    #[test]
    fn append_within_cap_aliases() {
        let out = run_src(
            "func main() { s := make([]int, 1, 4)\n t := append(s, 9)\n print(t[1], len(s), len(t)) }\n",
        );
        assert_eq!(out.output, "9 1 2\n");
    }

    #[test]
    fn maps_insert_lookup_delete() {
        let out = run_src(
            "func main() { m := make(map[string]int)\n m[\"a\"] = 1\n m[\"b\"] = 2\n m[\"a\"] = 3\n print(m[\"a\"], m[\"b\"], m[\"missing\"], len(m))\n delete(m, \"a\")\n print(len(m)) }\n",
        );
        assert_eq!(out.output, "3 2 0 2\n1\n");
    }

    #[test]
    fn map_growth_allocates_and_frees_old_buckets() {
        let out = run_src(
            "func main() { m := make(map[int]int)\n for i := 0; i < 100; i += 1 { m[i] = i }\n print(m[77], len(m)) }\n",
        );
        assert_eq!(out.output, "77 100\n");
        let grow_frees = out.metrics.freed_objects_by_source[FreeSource::MapGrowOld.index()];
        assert!(grow_frees >= 2, "expected grow-frees, got {grow_frees}");
    }

    #[test]
    fn pointers_read_write() {
        let out =
            run_src("func main() { x := 1\n p := &x\n *p = 41\n y := *p + 1\n print(x, y) }\n");
        assert_eq!(out.output, "41 42\n");
    }

    #[test]
    fn structs_are_values() {
        let out = run_src(
            "type P struct { x int\n y int }\nfunc main() { a := P{1, 2}\n b := a\n b.x = 99\n print(a.x, b.x) }\n",
        );
        assert_eq!(out.output, "1 99\n");
    }

    #[test]
    fn struct_through_pointer_shares() {
        let out = run_src(
            "type P struct { x int }\nfunc main() { p := &P{5}\n q := p\n q.x = 7\n print(p.x) }\n",
        );
        assert_eq!(out.output, "7\n");
    }

    #[test]
    fn multiple_return_values() {
        let out = run_src(
            "func divmod(a int, b int) (int, int) { return a / b, a % b }\nfunc main() { q, r := divmod(17, 5)\n print(q, r) }\n",
        );
        assert_eq!(out.output, "3 2\n");
    }

    #[test]
    fn named_results_and_bare_return() {
        let out = run_src(
            "func f(n int) (out int) { out = n * 2\n return }\nfunc main() { print(f(21)) }\n",
        );
        assert_eq!(out.output, "42\n");
    }

    #[test]
    fn defers_run_lifo_at_exit() {
        let out = run_src("func main() { defer print(1)\n defer print(2)\n print(3) }\n");
        assert_eq!(out.output, "3\n2\n1\n");
    }

    #[test]
    fn panic_unwinds_with_defers() {
        let src =
            "func boom() { defer print(\"deferred\")\n panic(\"bad\") }\nfunc main() { boom() }\n";
        let cfg = VmConfig::default();
        let err = run_src_with(src, AnalyzeOptions::default(), cfg).unwrap_err();
        assert_eq!(err, ExecError::Panic("bad".into()));
    }

    #[test]
    fn out_of_bounds_detected() {
        let src = "func main() { s := make([]int, 2)\n print(s[5]) }\n";
        let err = run_src_with(src, AnalyzeOptions::default(), VmConfig::default()).unwrap_err();
        assert!(matches!(err, ExecError::OutOfBounds { index: 5, len: 2 }));
    }

    #[test]
    fn nil_map_store_fails() {
        let src = "func main() { var m map[int]int\n m[1] = 2 }\n";
        let err = run_src_with(src, AnalyzeOptions::default(), VmConfig::default()).unwrap_err();
        assert_eq!(err, ExecError::NilDeref);
    }

    #[test]
    fn div_by_zero() {
        let src = "func main() { x := 1\n y := 0\n print(x / y) }\n";
        let err = run_src_with(src, AnalyzeOptions::default(), VmConfig::default()).unwrap_err();
        assert_eq!(err, ExecError::DivByZero);
    }

    #[test]
    fn string_ops() {
        let out = run_src(
            "func main() { a := \"go\" + \"free\"\n print(a, len(a), itoa(42) + \"!\") }\n",
        );
        assert_eq!(out.output, "gofree 6 42!\n");
    }

    #[test]
    fn tcfree_frees_local_slices() {
        let out = run_src(
            "func work(n int) int { s := make([]int, n)\n s[0] = n\n x := s[0]\n return x }\nfunc main() { total := 0\n for i := 0; i < 50; i += 1 { total += work(100 + i) }\n print(total) }\n",
        );
        assert_eq!(out.output, "6225\n");
        assert!(
            out.metrics.freed_bytes > 0,
            "inserted tcfrees reclaimed memory: {:?}",
            out.metrics
        );
        assert!(out.metrics.free_ratio() > 0.5);
    }

    #[test]
    fn go_mode_frees_nothing() {
        let src = "func work(n int) int { s := make([]int, n)\n s[0] = n\n x := s[0]\n return x }\nfunc main() { total := 0\n for i := 0; i < 50; i += 1 { total += work(100 + i) }\n print(total) }\n";
        let cfg = VmConfig {
            grow_map_free_old: false,
            ..VmConfig::default()
        };
        let out = run_src_with(src, AnalyzeOptions::go(), cfg).unwrap();
        assert_eq!(out.metrics.freed_bytes, 0);
        assert_eq!(out.metrics.tcfree_attempts, 0);
    }

    #[test]
    fn gc_collects_dead_objects() {
        // Allocate far past the GC trigger with everything dying young.
        let src = "func main() { for i := 0; i < 2000; i += 1 { s := make([]int, 100 + i % 3)\n s[0] = i } }\n";
        let cfg = VmConfig {
            runtime: RuntimeConfig {
                migrate_prob: 0.0,
                jitter: 0.0,
                min_heap: 64 * 1024,
                ..RuntimeConfig::default()
            },
            ..VmConfig::default()
        };
        // Run in plain Go mode so GC does all the work.
        let out = run_src_with(src, AnalyzeOptions::go(), cfg).unwrap();
        assert!(out.metrics.gcs >= 1, "GC ran: {:?}", out.metrics.gcs);
        assert!(out.metrics.heap_gced[Category::Slice.index()] > 0);
    }

    #[test]
    fn gofree_reduces_gcs_versus_go() {
        let src = "func work(n int) int { s := make([]int, n)\n s[0] = n\n x := s[0]\n return x }\nfunc main() { total := 0\n for i := 0; i < 3000; i += 1 { total += work(120) }\n print(total) }\n";
        let mk_cfg = || VmConfig {
            runtime: RuntimeConfig {
                migrate_prob: 0.0,
                jitter: 0.0,
                min_heap: 64 * 1024,
                ..RuntimeConfig::default()
            },
            ..VmConfig::default()
        };
        let go = run_src_with(src, AnalyzeOptions::go(), mk_cfg()).unwrap();
        let gofree = run_src_with(src, AnalyzeOptions::default(), mk_cfg()).unwrap();
        assert_eq!(go.output, gofree.output, "same program behaviour");
        assert!(
            gofree.metrics.gcs < go.metrics.gcs,
            "GoFree {} GCs vs Go {} GCs",
            gofree.metrics.gcs,
            go.metrics.gcs
        );
        assert!(gofree.metrics.free_ratio() > 0.5);
    }

    #[test]
    fn poison_mode_detects_unsound_free() {
        // Directly free a slice that is still used afterwards — the mock
        // tcfree (§6.8) must surface the bug as a poisoned read.
        let src =
            "func main() { n := 100\n s := make([]int, n)\n s[0] = 7\n tcfree(s)\n print(s[0]) }\n";
        let cfg = VmConfig {
            runtime: RuntimeConfig {
                poison: PoisonMode::Zero,
                migrate_prob: 0.0,
                ..RuntimeConfig::default()
            },
            ..VmConfig::default()
        };
        let err = run_src_with(src, AnalyzeOptions::go(), cfg).unwrap_err();
        assert_eq!(err, ExecError::PoisonedRead);
    }

    #[test]
    fn sanitizer_flags_use_after_free() {
        // The same unsound hand-written free, but caught by the shadow
        // heap instead of poison: the run completes (the stale read sees
        // the old bytes) and the violation is reported out-of-band.
        let src =
            "func main() { n := 100\n s := make([]int, n)\n s[0] = 7\n tcfree(s)\n print(s[0]) }\n";
        let cfg = VmConfig {
            runtime: RuntimeConfig {
                migrate_prob: 0.0,
                jitter: 0.0,
                ..RuntimeConfig::default()
            },
            sanitize: true,
            ..VmConfig::default()
        };
        let out = run_src_with(src, AnalyzeOptions::go(), cfg).unwrap();
        assert_eq!(out.output, "7\n", "stale read still sees old bytes");
        assert!(!out.violations.is_empty());
        assert_eq!(
            out.violations[0].kind,
            minigo_runtime::ViolationKind::UseAfterFree
        );
        assert_eq!(out.violations[0].op, "slice index read");
    }

    #[test]
    fn sanitizer_is_invisible_and_clean_on_sound_program() {
        // Instrumented (sound) frees: zero violations, and the observable
        // report is bit-identical with the sanitizer on or off.
        let src = "func work(n int) int { s := make([]int, n)\n s[0] = n\n x := s[0]\n return x }\nfunc main() { total := 0\n for i := 0; i < 50; i += 1 { total += work(100 + i) }\n print(total) }\n";
        let base = VmConfig {
            runtime: RuntimeConfig {
                migrate_prob: 0.0,
                jitter: 0.0,
                ..RuntimeConfig::default()
            },
            ..VmConfig::default()
        };
        let plain = run_src_with(src, AnalyzeOptions::default(), base.clone()).unwrap();
        let sanitized = run_src_with(
            src,
            AnalyzeOptions::default(),
            VmConfig {
                sanitize: true,
                ..base
            },
        )
        .unwrap();
        assert!(sanitized.violations.is_empty());
        assert_eq!(plain.output, sanitized.output);
        assert_eq!(plain.time, sanitized.time);
        assert_eq!(plain.steps, sanitized.steps);
        assert_eq!(
            format!("{:?}", plain.metrics),
            format!("{:?}", sanitized.metrics)
        );
        assert_eq!(plain.site_profile, sanitized.site_profile);
    }

    #[test]
    fn poison_mode_passes_on_sound_program() {
        // The instrumented frees are all sound, so poisoning must not
        // change observable behaviour.
        let src = "func work(n int) int { s := make([]int, n)\n s[0] = n\n x := s[0]\n return x }\nfunc main() { total := 0\n for i := 0; i < 50; i += 1 { total += work(100 + i) }\n print(total) }\n";
        let cfg = VmConfig {
            runtime: RuntimeConfig {
                poison: PoisonMode::Flip,
                migrate_prob: 0.0,
                ..RuntimeConfig::default()
            },
            ..VmConfig::default()
        };
        let out = run_src_with(src, AnalyzeOptions::default(), cfg).unwrap();
        assert_eq!(out.output, "6225\n");
    }

    #[test]
    fn stack_allocation_counted() {
        let out = run_src("func main() { s := make([]int, 10)\n s[0] = 1\n print(s[0]) }\n");
        assert_eq!(out.metrics.stack_allocs[Category::Slice.index()], 1);
        assert_eq!(out.metrics.heap_allocs[Category::Slice.index()], 0);
    }

    #[test]
    fn escaping_var_is_heap_accounted() {
        let src = "func mk() *int { x := 5\n return &x }\nfunc main() { p := mk()\n print(*p) }\n";
        let out = run_src(src);
        assert_eq!(out.output, "5\n");
        assert!(
            out.metrics.heap_allocs[Category::Other.index()] >= 1,
            "escaping x must be heap-accounted: {:?}",
            out.metrics.heap_allocs
        );
    }

    #[test]
    fn step_limit_stops_runaway() {
        let src = "func main() { for { } }\n";
        let cfg = VmConfig {
            step_limit: 10_000,
            ..VmConfig::default()
        };
        let err = run_src_with(src, AnalyzeOptions::default(), cfg).unwrap_err();
        assert_eq!(err, ExecError::StepLimit);
    }

    #[test]
    fn deterministic_across_runs() {
        let src = "func main() { m := make(map[int]int)\n for i := 0; i < 500; i += 1 { m[i % 50] = i }\n print(len(m)) }\n";
        let a = run_src(src);
        let b = run_src(src);
        assert_eq!(a.output, b.output);
        assert_eq!(a.time, b.time);
        assert_eq!(a.metrics.alloced_bytes, b.metrics.alloced_bytes);
    }
}
