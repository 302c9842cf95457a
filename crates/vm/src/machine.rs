//! The machine: the one place a guest value touches the runtime.
//!
//! The paper's runtime surface is small — `Tcfree` / `TcfreeSlice` /
//! `TcfreeMap` / `GrowMapAndFreeOld` (table 4, §4.6) plus the allocator
//! and the collector they talk to — and it exists here once. A
//! [`Machine`] owns the simulated [`Runtime`], the shadow-heap sanitizer,
//! the site profile, the session-held roots, the interned call stacks
//! and the program's output; its methods are the heap operations, each
//! carrying its data-dependent tick charge and its sanitizer /
//! write-barrier / trace hooks.
//!
//! An engine ([`Dispatch`]) owns only control flow: frames, operands, the
//! order things are evaluated in. `rt` is private to this module, so an
//! engine *cannot* allocate, free, record a store or reach a safepoint
//! except through a method below — which is what keeps the tree-walk and
//! the bytecode loop bit-identical without anything to mirror by hand.
//!
//! Tick convention: a node's *own* tick is the engine's to charge
//! (`Machine::tick`; a fused bytecode handler sums its constituents'
//! and charges them up front). What a method charges is what depends on
//! the data: 2 for a map lookup or delete, 3 for a map insert, 2 for an
//! append, a string concatenation's length-proportional cost.

use std::cell::RefCell;
use std::rc::Rc;

use minigo_escape::Mode;
use minigo_runtime::{
    BailReason, Category, FreeOutcome, FreeSource, Pause, Runtime, RuntimeConfig, ShadowHeap,
    ShadowViolation, StackTable, ROOT_STACK,
};
use minigo_syntax::{BinOp, ExprId};

use crate::error::ExecError;
use crate::fxhash::FxHashMap;
use crate::mark::{collect_garbage, RootSink};
use crate::value::{Cells, Key, MapData, MapVal, ObjId, PtrVal, SliceVal, Value};

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
    /// Always 0: the map inline caches it counted hits of are gone. Kept
    /// so the report schema (`"ic_hits"`) and its readers keep their
    /// shape.
    pub ic_hits: u64,
    /// Always 0 (see `ic_hits`).
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
pub type SiteId = ExprId;

/// Heap allocation statistics for one allocation expression.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SiteProfile {
    /// The allocation expression (make/new/&T{}/append).
    pub site: ExprId,
    /// Objects allocated at this site.
    pub count: u64,
    /// Bytes allocated at this site.
    pub bytes: u64,
}

/// What an execution engine supplies: a way to run one of its program's
/// functions on a [`Machine`], and its frames' GC roots.
pub trait Dispatch {
    /// Resolves `name` among the program's top-level functions and calls
    /// it through the engine's ordinary call protocol (so the call costs
    /// exactly what it would inside a program).
    ///
    /// # Errors
    ///
    /// [`ExecError::NoFunc`] for an unknown name; otherwise whatever the
    /// call itself raises. A failed call leaves no frame behind.
    fn call(&mut self, m: &mut Machine, name: &str, args: Vec<Value>) -> Result<Vec<Value>>;

    /// Reports every frame slot and deferred-call argument to `sink`.
    /// Operand temporaries are not roots.
    fn roots(&self, sink: &mut dyn RootSink);
}

/// A persistent execution session: one engine, one [`Machine`] — one
/// runtime, one heap, one virtual clock — driven through repeated
/// function calls instead of a single `main`. The service harness uses
/// it to execute request handlers against state that survives between
/// calls: GC pacing, tcfree bail-outs, and heap growth accumulate across
/// requests exactly as they would inside one long-running program.
///
/// Values returned by one call may be passed back into later calls; to
/// keep them (and everything reachable from them) alive across the GC
/// cycles in between, root them with [`Session::hold`]. A call that
/// fails (panic, bounds, limits) leaves the session usable.
pub struct Session<D: ?Sized> {
    pub(crate) m: Machine,
    pub(crate) engine: D,
}

impl<D: Dispatch> Session<D> {
    /// Creates a session running `engine`'s program.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::InvalidConfig`] when the runtime
    /// configuration fails validation.
    pub fn new(engine: D, cfg: VmConfig) -> Result<Self> {
        cfg.runtime.validate().map_err(ExecError::InvalidConfig)?;
        Ok(Session {
            m: Machine::new(cfg),
            engine,
        })
    }

    /// Ends the session: finalizes the runtime (leftover objects count
    /// toward the GC columns, held state included) and assembles the
    /// report.
    pub fn finish(self) -> RunOutcome {
        self.m.finish()
    }
}

impl<D: Dispatch + ?Sized> Session<D> {
    /// Calls a top-level function by name and returns its results (see
    /// [`Dispatch::call`]).
    ///
    /// # Errors
    ///
    /// [`ExecError::NoFunc`] for an unknown name; otherwise whatever the
    /// call itself raises.
    pub fn call(&mut self, name: &str, args: Vec<Value>) -> Result<Vec<Value>> {
        self.engine.call(&mut self.m, name, args)
    }

    /// Calls `main` — a one-shot run is a session that does this once.
    ///
    /// # Errors
    ///
    /// [`ExecError::NoMain`] when the program has none; otherwise
    /// whatever the call raises.
    pub fn call_main(&mut self) -> Result<()> {
        match self.call("main", Vec::new()) {
            Ok(_) => Ok(()),
            Err(ExecError::NoFunc(_)) => Err(ExecError::NoMain),
            Err(e) => Err(e),
        }
    }

    /// Roots `values` for the rest of the session: they (and everything
    /// reachable from them) survive every GC cycle until [`Session::finish`].
    pub fn hold(&mut self, values: Vec<Value>) {
        self.m.held.extend(values);
    }

    /// Elapsed virtual time.
    pub fn now(&self) -> u64 {
        self.m.rt.now()
    }

    /// Advances the virtual clock to absolute time `t` (idle waiting; see
    /// [`Runtime::idle_until`]).
    pub fn idle_until(&mut self, t: u64) {
        self.m.rt.idle_until(t);
    }

    /// Current live heap bytes.
    pub fn heap_live(&self) -> u64 {
        self.m.rt.heap_live()
    }

    /// Current page-level heap footprint in bytes.
    pub fn footprint(&self) -> u64 {
        self.m.rt.footprint()
    }

    /// Every completed GC cycle's stop record so far.
    pub fn pauses(&self) -> &[Pause] {
        self.m.rt.pauses()
    }

    /// Records a completed-request trace span (no-op without tracing).
    pub fn note_request(&mut self, id: u64, arrival: u64, start: u64) {
        self.m.rt.trace_request(id, arrival, start);
    }
}

/// Everything a heap operation mutates. A struct of its own, apart from
/// any engine's frame stack, so a handler can hold operands borrowed
/// from the top frame while an index, store, or allocation runs.
pub struct Machine {
    cfg: VmConfig,
    rt: Runtime,
    /// The shadow-heap sanitizer, present when `cfg.sanitize` is on.
    shadow: Option<ShadowHeap>,
    /// Per-site allocation profile: expr id -> (count, bytes).
    site_profile: FxHashMap<ExprId, (u64, u64)>,
    steps: u64,
    /// Session-held GC roots: values a [`Session`] keeps alive across
    /// calls (service state returned by `setup` and passed back into
    /// every `handle`). Always empty in one-shot runs.
    held: Vec<Value>,
    /// Interned call stacks, present when tracing: every function
    /// entry/exit stamps the current stack id into the runtime so traced
    /// events carry full call-stack attribution. Interning follows the
    /// call sequence, so stack ids do not depend on the engine.
    stacks: Option<StackTable>,
    /// The interned id of the current call stack (root when not tracing).
    cur_stack: u32,
    output: String,
}

impl Machine {
    fn new(cfg: VmConfig) -> Self {
        Machine {
            rt: Runtime::new(cfg.runtime.clone()),
            shadow: cfg.sanitize.then(ShadowHeap::new),
            stacks: cfg.runtime.trace.then(StackTable::new),
            cfg,
            site_profile: FxHashMap::default(),
            steps: 0,
            held: Vec::new(),
            cur_stack: ROOT_STACK,
            output: String::new(),
        }
    }

    /// End-of-run accounting: finalizes the runtime and assembles the
    /// report.
    fn finish(mut self) -> RunOutcome {
        self.rt.finalize();
        let mut site_profile: Vec<SiteProfile> = self
            .site_profile
            .iter()
            .map(|(&site, &(count, bytes))| SiteProfile { site, count, bytes })
            .collect();
        site_profile.sort_by(|a, b| b.bytes.cmp(&a.bytes).then(a.site.cmp(&b.site)));
        let mut trace = self.rt.take_trace();
        if let (Some(tr), Some(st)) = (trace.as_mut(), self.stacks) {
            // The runtime only sees interned ids; the table that resolves
            // them lives here and rides along in the trace.
            tr.stacks = st;
        }
        RunOutcome {
            output: self.output,
            time: self.rt.now(),
            metrics: self.rt.metrics().clone(),
            steps: self.steps,
            site_profile,
            violations: self
                .shadow
                .map(|mut sh| sh.take_violations())
                .unwrap_or_default(),
            trace,
            collector: self.rt.collector_kind(),
            ic_hits: 0,
            ic_misses: 0,
            opt: None,
            placement: None,
        }
    }

    // ---- clock, limits, safepoints ----

    /// Charges `n` ticks: an engine's own node charges.
    #[inline(always)]
    pub(crate) fn tick(&mut self, n: u64) {
        self.rt.tick(n);
    }

    /// The call-depth guard, given the engine's current frame count.
    #[inline]
    pub(crate) fn check_depth(&self, frames: usize) -> Result<()> {
        if frames >= self.cfg.max_frames {
            return Err(ExecError::StackOverflow);
        }
        Ok(())
    }

    /// A statement boundary: counts the step, charges its tick, and runs
    /// a GC cycle from `engine`'s roots when the pacer asked for one.
    #[inline]
    pub(crate) fn safepoint<D: Dispatch + ?Sized>(&mut self, engine: &D) -> Result<()> {
        self.steps += 1;
        if self.steps > self.cfg.step_limit {
            return Err(ExecError::StepLimit);
        }
        self.rt.tick(1);
        if self.rt.gc_pending() {
            self.collect_garbage(engine);
        }
        Ok(())
    }

    /// One GC cycle, marking from the engine's frames and the held values.
    fn collect_garbage<D: Dispatch + ?Sized>(&mut self, engine: &D) {
        let held = &self.held;
        collect_garbage(&mut self.rt, &mut self.shadow, |sink: &mut dyn RootSink| {
            engine.roots(sink);
            for v in held {
                sink.value(v);
            }
        });
    }

    /// Tracing only: interns the stack extended with `name`, stamps it
    /// into the runtime, and returns the previous stack id for
    /// [`Machine::leave_stack`]. A no-op returning the root id when
    /// tracing is off.
    pub(crate) fn enter_stack(&mut self, name: &str) -> u32 {
        let parent = self.cur_stack;
        if let Some(st) = &mut self.stacks {
            self.cur_stack = st.push(parent, name);
            self.rt.set_stack(self.cur_stack);
        }
        parent
    }

    /// Tracing only: restores the caller's stack id on function exit.
    pub(crate) fn leave_stack(&mut self, parent: u32) {
        if self.stacks.is_some() {
            self.cur_stack = parent;
            self.rt.set_stack(parent);
        }
    }

    /// The current call-stack id, for tests of the call epilogue.
    #[cfg(test)]
    pub(crate) fn cur_stack(&self) -> u32 {
        self.cur_stack
    }

    /// `print`: one line, values space-separated.
    pub(crate) fn print(&mut self, values: &[Value]) {
        let line: Vec<String> = values.iter().map(Value::display).collect();
        self.output.push_str(&line.join(" "));
        self.output.push('\n');
    }

    // ---- object accounting ----

    fn new_obj_at(&mut self, size: u64, cat: Category, site: Option<ExprId>) -> ObjId {
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

    /// Storage for a fresh allocation: a heap object where the escape
    /// analysis placed it on the heap, a counted stack allocation (no
    /// object) otherwise.
    fn backing(
        &mut self,
        heap: bool,
        size: u64,
        cat: Category,
        site: Option<ExprId>,
    ) -> Option<ObjId> {
        if heap {
            Some(self.new_obj_at(size, cat, site))
        } else {
            self.rt.stack_alloc(cat);
            None
        }
    }

    /// Attempts a `tcfree` on an accounted object; `batched` when the
    /// call overhead was already charged by the free before it. Returns
    /// the outcome and whether the payload should be poisoned.
    fn free_obj(&mut self, obj: ObjId, source: FreeSource, batched: bool) -> (FreeOutcome, bool) {
        if let Some(sh) = &mut self.shadow {
            sh.check_free(obj.number(), free_op_name(source), self.steps);
        }
        if !obj.is_live(&self.rt) {
            // Already freed or swept: tolerated double free.
            return (FreeOutcome::Bailed(BailReason::AlreadyFree), false);
        }
        let out = if batched {
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
    #[inline]
    fn barrier_store(&mut self, obj: Option<ObjId>) {
        if !self.rt.has_barrier() {
            return;
        }
        if let Some(obj) = obj.filter(|o| o.is_live(&self.rt)) {
            self.rt.record_store(obj.addr);
        }
    }

    /// [`Machine::barrier_store`] for a map store: both the hmap header
    /// and the current bucket array count as mutated.
    fn barrier_store_map(&mut self, m: &MapVal) {
        let buckets = m.data.borrow().buckets_obj;
        self.barrier_store(m.obj);
        self.barrier_store(buckets);
    }

    // ---- allocation ----

    /// A fresh cell holding `v` — a declared address-taken variable
    /// (`site` = `None`), `&T{..}`, or `new(T)`.
    pub(crate) fn alloc_box(
        &mut self,
        v: Value,
        heap: bool,
        size: u64,
        site: Option<ExprId>,
    ) -> PtrVal {
        PtrVal {
            obj: self.backing(heap, size, Category::Other, site),
            cell: Rc::new(RefCell::new(v)),
        }
    }

    /// `make([]T, len[, cap])`, every element `zero`. Negative sizes
    /// clamp to zero and the backing array to at least one element.
    ///
    /// # Errors
    ///
    /// [`ExecError::SliceRange`] — naming `cap` when an explicit capacity
    /// above `len` was asked for, else `len` — when the accounted size
    /// overflows or the host refuses the storage; nothing has been
    /// allocated or accounted then.
    pub(crate) fn make_slice(
        &mut self,
        len: i64,
        cap: Option<i64>,
        elem_size: u64,
        zero: Value,
        heap: bool,
        site: ExprId,
    ) -> Result<Value> {
        let len = len.max(0) as usize;
        let cap = cap.map_or(len, |c| (c.max(0) as usize).max(len)).max(1);
        let too_large = || {
            ExecError::SliceRange(if cap > len.max(1) {
                "makeslice: cap"
            } else {
                "makeslice: len"
            })
        };
        let size = (cap as u64).checked_mul(elem_size).ok_or_else(too_large)?;
        let cells = Cells::filled(zero, cap).map_err(|_| too_large())?;
        Ok(Value::slice(SliceVal {
            obj: self.backing(heap, size.max(8), Category::Slice, Some(site)),
            cells: Rc::new(RefCell::new(cells)),
            offset: 0,
            len,
            elem_size,
        }))
    }

    /// `make(map[K]V)`: the hmap with its first eight buckets inline.
    pub(crate) fn make_map(
        &mut self,
        default: Value,
        entry_size: u64,
        heap: bool,
        site: ExprId,
    ) -> Value {
        let size = minigo_escape::MAP_BASE_BYTES;
        Value::map(MapVal {
            obj: self.backing(heap, size, Category::Map, Some(site)),
            data: Rc::new(RefCell::new(MapData::new(default, entry_size, Some(site)))),
        })
    }

    /// `append(sv, item)`.
    ///
    /// # Errors
    ///
    /// [`ExecError::SliceRange`] when the grown array's accounted size
    /// overflows or the host refuses the storage (see
    /// [`Machine::make_slice`]).
    pub(crate) fn append(
        &mut self,
        sv: Value,
        item: Value,
        elem_size: u64,
        site: ExprId,
    ) -> Result<Value> {
        self.rt.tick(2);
        let (kept, lo, hi, new_cap) = match sv {
            // Appending to a nil slice allocates a fresh heap array
            // (runtime-managed, §4.6.1).
            Value::Nil => (Rc::default(), 0, 0, 8),
            Value::Slice(mut s) => {
                self.shadow_access(s.obj, "append");
                if s.len < s.cap() {
                    let at = s.offset + s.len;
                    s.cells.borrow_mut().set(at, item);
                    Rc::make_mut(&mut s).len += 1;
                    return Ok(Value::Slice(s));
                }
                // Grow: a fresh heap array; the old one is left to GC
                // (other slices may still reference it).
                let new_cap = (s.cap() * 2).max(8);
                (s.cells.clone(), s.offset, s.offset + s.len, new_cap)
            }
            _ => return Err(ExecError::Internal("append to non-slice".into())),
        };
        let too_large = || ExecError::SliceRange("growslice: len");
        let size = (new_cap as u64)
            .checked_mul(elem_size)
            .ok_or_else(too_large)?;
        let cells = kept.borrow().grown(lo, hi, item, new_cap);
        let cells = cells.map_err(|_| too_large())?;
        Ok(Value::slice(SliceVal {
            cells: Rc::new(RefCell::new(cells)),
            obj: Some(self.new_obj_at(size, Category::Slice, Some(site))),
            offset: 0,
            len: hi - lo + 1,
            elem_size,
        }))
    }

    // ---- explicit frees (table 4) ----

    /// Executes a `tcfree` statement: dispatches to TcfreeSlice /
    /// TcfreeMap / Tcfree on the runtime value. `follows_free` marks the
    /// 2nd..nth statement of a run of frees, which share one call
    /// overhead when batching is on.
    pub(crate) fn exec_tcfree(&mut self, v: Value, follows_free: bool) {
        let batched = self.cfg.batch_frees && follows_free;
        match v {
            Value::Slice(s) => {
                if let Some(obj) = s.obj {
                    let (_, poison) = self.free_obj(obj, FreeSource::SliceLifetime, batched);
                    if poison {
                        s.cells.borrow_mut().fill(Value::Poison);
                    }
                }
            }
            Value::Map(m) => {
                let buckets = m.data.borrow().buckets_obj;
                let mut poisoned = false;
                if let Some(b) = buckets {
                    let (out, poison) = self.free_obj(b, FreeSource::MapLifetime, batched);
                    poisoned |= poison;
                    if matches!(out, FreeOutcome::Freed { .. }) {
                        m.data.borrow_mut().buckets_obj = None;
                    }
                }
                if let Some(h) = m.obj {
                    let (_, poison) = self.free_obj(h, FreeSource::MapLifetime, batched);
                    poisoned |= poison;
                }
                if poisoned {
                    let mut data = m.data.borrow_mut();
                    data.poisoned = true;
                    data.fill(Value::Poison);
                }
            }
            Value::Ptr(p) => {
                if let Some(obj) = p.obj {
                    let (_, poison) = self.free_obj(obj, FreeSource::Object, batched);
                    if poison {
                        *p.cell.borrow_mut() = Value::Poison;
                    }
                }
            }
            // tcfree ignores nil and non-reference values (§4.3: calls on
            // stack objects are safe no-ops).
            _ => {}
        }
    }

    // ---- loads and stores ----

    /// `s[i]`: the one place a slice element is read (bounds, shadow
    /// check, poison), for [`Machine::index_get`] and for an engine that
    /// already holds the header and the index apart.
    #[inline(always)]
    pub(crate) fn slice_get(&mut self, s: &SliceVal, i: i64) -> Result<Value> {
        let at = cell_at(s, i)?;
        self.shadow_access(s.obj, "slice index read");
        check_poison(s.cells.borrow().get(at))
    }

    /// `s[i] = v`: the one place a slice element is written (bounds,
    /// shadow check, write barrier).
    #[inline(always)]
    pub(crate) fn slice_set(&mut self, s: &SliceVal, i: i64, v: Value) -> Result<()> {
        let at = cell_at(s, i)?;
        self.shadow_access(s.obj, "slice index write");
        self.barrier_store(s.obj);
        s.cells.borrow_mut().set(at, v);
        Ok(())
    }

    /// `base[idx]`. The caller has charged the node's own tick; a map
    /// lookup charges its data-dependent ticks here.
    #[inline]
    pub(crate) fn index_get(&mut self, base: &Value, idx: &Value) -> Result<Value> {
        match base {
            Value::Slice(s) => self.slice_get(s, int_of(idx)?),
            Value::Map(map) => {
                let key = key_of(idx)?;
                self.rt.tick(2);
                self.shadow_access_map(map, "map lookup");
                let data = map.data.borrow();
                if data.poisoned {
                    return Err(ExecError::PoisonedRead);
                }
                match data.get(&key) {
                    Some(v) => check_poison(v),
                    None => Ok(data.default.clone()),
                }
            }
            Value::Nil => Err(ExecError::NilDeref),
            _ => Err(ExecError::Internal("index of non-indexable".into())),
        }
    }

    /// `base[idx] = v`.
    #[inline]
    pub(crate) fn index_set(&mut self, base: &Value, idx: &Value, v: Value) -> Result<()> {
        match base {
            Value::Slice(s) => self.slice_set(s, int_of(idx)?, v),
            Value::Map(map) => self.map_insert(map, key_of(idx)?, v),
            Value::Nil => Err(ExecError::NilDeref),
            _ => Err(ExecError::Internal("store into non-indexable".into())),
        }
    }

    /// `m[key] = value`: one lookup, then an update in place or an append
    /// (after growing the buckets when the append would overflow them).
    #[inline]
    fn map_insert(&mut self, m: &MapVal, key: Key, value: Value) -> Result<()> {
        self.rt.tick(3);
        self.shadow_access_map(m, "map insert");
        self.barrier_store_map(m);
        let mut data = m.data.borrow_mut();
        if data.poisoned {
            return Err(ExecError::PoisonedRead);
        }
        if let Some(i) = data.find(&key) {
            data.set_at(i, value);
            return Ok(());
        }
        if data.len() + 1 > data.bucket_cap {
            // Growth allocates, so the borrow must not be held across it.
            drop(data);
            self.grow_map(m);
            data = m.data.borrow_mut();
        }
        data.push(key, value);
        Ok(())
    }

    /// §4.6.2: the map grows; the old bucket array is exclusively owned
    /// and (under GoFree) explicitly freed.
    #[cold]
    fn grow_map(&mut self, m: &MapVal) {
        let (old, new_cap, entry_size, origin) = {
            let mut data = m.data.borrow_mut();
            data.bucket_cap *= 2;
            (
                data.buckets_obj.take(),
                data.bucket_cap,
                data.entry_size,
                data.origin,
            )
        };
        let new_obj = self.new_obj_at(new_cap as u64 * entry_size, Category::Map, origin);
        m.data.borrow_mut().buckets_obj = Some(new_obj);
        if let Some(old) = old.filter(|_| self.cfg.grow_map_free_old) {
            // Poisoning old buckets would corrupt nothing the map still
            // uses: entries were evacuated. Under plain Go the old buckets
            // are simply garbage for the collector.
            self.free_obj(old, FreeSource::MapGrowOld, false);
        }
    }

    /// `delete(m, k)`; a no-op on a nil map.
    pub(crate) fn map_delete(&mut self, m: &Value, k: &Value) -> Result<()> {
        if let Value::Map(m) = m {
            let key = key_of(k)?;
            self.rt.tick(2);
            self.shadow_access_map(m, "map delete");
            let mut data = m.data.borrow_mut();
            if data.poisoned {
                return Err(ExecError::PoisonedRead);
            }
            data.remove(&key);
        }
        Ok(())
    }

    /// `*p`.
    pub(crate) fn deref(&mut self, p: &Value) -> Result<Value> {
        match p {
            Value::Ptr(p) => {
                self.shadow_access(p.obj, "pointer deref read");
                check_poison(p.cell.borrow().clone())
            }
            Value::Nil => Err(ExecError::NilDeref),
            _ => Err(ExecError::Internal("deref of non-pointer".into())),
        }
    }

    /// `*p = v`.
    pub(crate) fn deref_set(&mut self, p: &Value, v: Value) -> Result<()> {
        match p {
            Value::Ptr(p) => {
                self.shadow_access(p.obj, "pointer deref write");
                self.barrier_store(p.obj);
                *p.cell.borrow_mut() = v;
                Ok(())
            }
            Value::Nil => Err(ExecError::NilDeref),
            _ => Err(ExecError::Internal("store through non-pointer".into())),
        }
    }

    /// `base.f`, field `idx` of a struct value or (`through_ptr`) of the
    /// struct a pointer addresses.
    pub(crate) fn get_field(
        &mut self,
        base: &Value,
        idx: usize,
        through_ptr: bool,
    ) -> Result<Value> {
        match (base, through_ptr) {
            (Value::Struct(fields), false) => check_poison(fields[idx].clone()),
            (Value::Ptr(p), true) => {
                self.shadow_access(p.obj, "field read");
                match &*p.cell.borrow() {
                    Value::Struct(fields) => check_poison(fields[idx].clone()),
                    Value::Poison => Err(ExecError::PoisonedRead),
                    _ => Err(ExecError::Internal("field of non-struct".into())),
                }
            }
            (Value::Nil, _) => Err(ExecError::NilDeref),
            (Value::Poison, _) => Err(ExecError::PoisonedRead),
            _ => Err(ExecError::Internal("field of non-struct".into())),
        }
    }

    /// `p.f = v` through a pointer: mutates the pointee in place.
    pub(crate) fn field_set_ptr(&mut self, p: &Value, idx: usize, v: Value) -> Result<()> {
        match p {
            Value::Ptr(p) => {
                self.shadow_access(p.obj, "field write");
                self.barrier_store(p.obj);
                match &mut *p.cell.borrow_mut() {
                    Value::Struct(fields) => {
                        Rc::make_mut(fields)[idx] = v;
                        Ok(())
                    }
                    Value::Poison => Err(ExecError::PoisonedRead),
                    _ => Err(ExecError::Internal("field store on non-struct".into())),
                }
            }
            Value::Nil => Err(ExecError::NilDeref),
            Value::Poison => Err(ExecError::PoisonedRead),
            _ => Err(ExecError::Internal("field store on non-struct".into())),
        }
    }

    // ---- operators ----

    /// Applies a binary operator to borrowed operands, charging
    /// string-concatenation ticks. The one operator table. `Int × Int` is
    /// tested first and is all that inlines into a caller; everything
    /// else (strings, equality over non-ints, poison, type errors) sits
    /// behind one call.
    #[inline(always)]
    pub(crate) fn binop(&mut self, op: BinOp, l: &Value, r: &Value) -> Result<Value> {
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
                And | Or => return binop_other(&mut self.rt, op, l, r),
            });
        }
        binop_other(&mut self.rt, op, l, r)
    }
}

/// The rows of [`Machine::binop`] with a non-`Int` operand.
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

// ---- value operations that never touch the runtime ----

/// The runtime entry point a [`FreeSource`] corresponds to (table 4) —
/// used to label sanitizer findings.
fn free_op_name(source: FreeSource) -> &'static str {
    match source {
        FreeSource::SliceLifetime => "FreeSlice",
        FreeSource::MapLifetime => "FreeMap",
        FreeSource::MapGrowOld => "GrowMapAndFreeOld",
        FreeSource::Object => "Tcfree",
    }
}

pub(crate) fn expected_bool(v: &Value) -> ExecError {
    ExecError::Internal(format!("expected bool, got {}", v.display()))
}

/// The integer in `v`, or the front end let a non-int through.
#[inline]
pub(crate) fn int_of(v: &Value) -> Result<i64> {
    match v {
        Value::Int(i) => Ok(*i),
        other => Err(ExecError::Internal(format!(
            "expected int, got {}",
            other.display()
        ))),
    }
}

/// Where element `i` of `s` sits in its backing array: the bounds check.
#[inline(always)]
fn cell_at(s: &SliceVal, i: i64) -> Result<usize> {
    if i < 0 || i as usize >= s.len {
        return Err(ExecError::OutOfBounds {
            index: i,
            len: s.len,
        });
    }
    Ok(s.offset + i as usize)
}

fn key_of(v: &Value) -> Result<Key> {
    v.as_key()
        .ok_or_else(|| ExecError::Internal("bad map key".into()))
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

/// An index expression's base must be a slice or a map — checked before
/// the index is evaluated, so a nil base fails first.
#[inline]
pub(crate) fn check_index_base(v: &Value) -> Result<()> {
    match v {
        Value::Slice(_) | Value::Map(_) => Ok(()),
        Value::Nil => Err(ExecError::NilDeref),
        _ => Err(ExecError::Internal("index of non-indexable".into())),
    }
}

/// `len(v)`.
#[inline]
pub(crate) fn len_of(v: &Value) -> Result<Value> {
    let n = match v {
        Value::Slice(s) => s.len as i64,
        Value::Map(map) => map.data.borrow().len() as i64,
        Value::Str(s) => s.len() as i64,
        Value::Nil => 0,
        _ => return Err(ExecError::Internal("len of bad value".into())),
    };
    Ok(Value::Int(n))
}

/// `cap(v)`.
pub(crate) fn cap_of(v: &Value) -> Result<Value> {
    match v {
        Value::Slice(s) => Ok(Value::Int(s.cap() as i64)),
        Value::Nil => Ok(Value::Int(0)),
        _ => Err(ExecError::Internal("cap of bad value".into())),
    }
}

/// `itoa(v)`.
pub(crate) fn itoa(v: i64) -> Value {
    Value::Str(Rc::from(v.to_string().as_str()))
}

/// `base[lo:hi]`: a new header over the same backing array. Go allows
/// the high bound up to `cap(base)`; it defaults to `len(base)`.
pub(crate) fn reslice(base: &Value, lo: i64, hi: Option<i64>) -> Result<Value> {
    match base {
        Value::Slice(s) => {
            let hi = hi.unwrap_or(s.len as i64);
            if lo < 0 || hi < lo || hi as usize > s.cap() {
                return Err(ExecError::OutOfBounds {
                    index: hi,
                    len: s.cap(),
                });
            }
            Ok(Value::slice(SliceVal {
                cells: s.cells.clone(),
                obj: s.obj,
                offset: s.offset + lo as usize,
                len: (hi - lo) as usize,
                elem_size: s.elem_size,
            }))
        }
        Value::Nil if lo == 0 && hi.unwrap_or(0) == 0 => Ok(Value::Nil),
        Value::Nil => Err(ExecError::NilDeref),
        _ => Err(ExecError::Internal("reslice of non-slice".into())),
    }
}

/// A struct value with field `idx` replaced (value semantics: the
/// caller stores the copy back).
pub(crate) fn with_field(base: Value, idx: usize, v: Value) -> Result<Value> {
    match base {
        Value::Struct(mut fields) => {
            Rc::make_mut(&mut fields)[idx] = v;
            Ok(Value::Struct(fields))
        }
        Value::Nil => Err(ExecError::NilDeref),
        Value::Poison => Err(ExecError::PoisonedRead),
        _ => Err(ExecError::Internal("field store on non-struct".into())),
    }
}

#[cfg(test)]
mod tests {
    use minigo_runtime::{CollectorKind, ViolationKind};

    use super::*;

    /// An engine with no frames: the machine's held values are the only
    /// roots, and nothing is ever called.
    struct NoFrames;

    impl Dispatch for NoFrames {
        fn call(&mut self, _: &mut Machine, name: &str, _: Vec<Value>) -> Result<Vec<Value>> {
            Err(ExecError::NoFunc(name.to_string()))
        }

        fn roots(&self, _: &mut dyn RootSink) {}
    }

    /// A heap slice (len 2, cap 4), a heap map with one entry (so no
    /// bucket array yet: one object, one check) and a pointer to a heap
    /// struct.
    struct Fixture {
        slice: Value,
        map: Value,
        ptr: Value,
    }

    fn fixture(m: &mut Machine) -> Fixture {
        let site = ExprId(7);
        let f = Fixture {
            slice: m
                .make_slice(2, Some(4), 8, Value::Int(0), true, site)
                .expect("four ints"),
            map: m.make_map(Value::Int(0), 24, true, site),
            ptr: Value::ptr(m.alloc_box(
                Value::struct_of(vec![Value::Int(1), Value::Int(2)]),
                true,
                16,
                Some(site),
            )),
        };
        m.index_set(&f.map, &Value::Int(5), Value::Int(50))
            .expect("insert");
        f
    }

    type Op = fn(&mut Machine, &Fixture) -> Result<()>;

    /// Every load and store: the shadow label it checks under, the ticks
    /// it charges itself, the objects it records as mutated, and the
    /// call. What the two engines once had to agree on by being written
    /// twice.
    const OPS: &[(&str, u64, u64, Op)] = &[
        ("slice index read", 0, 0, |m, f| {
            m.index_get(&f.slice, &Value::Int(1)).map(drop)
        }),
        ("slice index write", 0, 1, |m, f| {
            m.index_set(&f.slice, &Value::Int(1), Value::Int(9))
        }),
        ("map lookup", 2, 0, |m, f| {
            m.index_get(&f.map, &Value::Int(5)).map(drop)
        }),
        ("map insert", 3, 1, |m, f| {
            m.index_set(&f.map, &Value::Int(6), Value::Int(60))
        }),
        ("map delete", 2, 0, |m, f| {
            m.map_delete(&f.map, &Value::Int(5))
        }),
        ("pointer deref read", 0, 0, |m, f| m.deref(&f.ptr).map(drop)),
        ("pointer deref write", 0, 1, |m, f| {
            m.deref_set(&f.ptr, Value::struct_of(vec![Value::Int(3), Value::Int(4)]))
        }),
        ("field read", 0, 0, |m, f| {
            m.get_field(&f.ptr, 1, true).map(drop)
        }),
        ("field write", 0, 1, |m, f| {
            m.field_set_ptr(&f.ptr, 1, Value::Int(8))
        }),
        ("append", 2, 0, |m, f| {
            m.append(f.slice.clone(), Value::Int(3), 8, ExprId(8))
                .map(drop)
        }),
    ];

    fn machine() -> Machine {
        let cfg = VmConfig {
            runtime: RuntimeConfig {
                collector: CollectorKind::Generational,
                migrate_prob: 0.0,
                jitter: 0.0,
                ..RuntimeConfig::default()
            },
            sanitize: true,
            ..VmConfig::default()
        };
        Machine::new(cfg)
    }

    fn target<'a>(f: &'a Fixture, label: &str) -> &'a Value {
        match label {
            "append" => &f.slice,
            l if l.starts_with("slice") => &f.slice,
            l if l.starts_with("map") => &f.map,
            _ => &f.ptr,
        }
    }

    #[test]
    fn every_op_checks_once_records_its_stores_and_charges_its_ticks() {
        for &(label, ticks, stores, op) in OPS {
            // Live and old: survivors of a cycle, so a store into them is
            // one the generational barrier has to remember (and charges).
            let mut m = machine();
            let f = fixture(&mut m);
            m.held
                .extend([f.slice.clone(), f.map.clone(), f.ptr.clone()]);
            m.collect_garbage(&NoFrames);
            let barrier = m.rt.config().costs.write_barrier;
            assert!(barrier > 0);
            let before = m.rt.now();
            op(&mut m, &f).unwrap_or_else(|e| panic!("{label}: {e}"));
            assert_eq!(
                m.rt.now() - before,
                ticks + stores * barrier,
                "{label}: ticks, {stores} barrier record(s) included"
            );
            let shadow = m.shadow.as_ref().expect("sanitizing");
            assert!(shadow.violations().is_empty(), "{label}: live object");

            // Freed by hand: the same op, one finding under the op's own
            // label, no barrier (the handle is dead), the same ticks.
            let mut m = machine();
            let f = fixture(&mut m);
            m.exec_tcfree(target(&f, label).clone(), false);
            let freed: u64 = m.rt.metrics().freed_objects_by_source.iter().sum();
            assert_eq!(freed, 1, "{label}: the target was freed");
            let before = m.rt.now();
            op(&mut m, &f).unwrap_or_else(|e| panic!("{label}: {e}"));
            assert_eq!(
                m.rt.now() - before,
                ticks,
                "{label}: ticks on a dead handle"
            );
            let found = m.shadow.as_ref().expect("sanitizing").violations();
            assert_eq!(found.len(), 1, "{label}: {found:?}");
            assert_eq!(
                (found[0].op, found[0].kind),
                (label, ViolationKind::UseAfterFree)
            );
        }
    }

    #[test]
    fn a_backing_array_out_of_range_is_an_error_before_anything_is_accounted() {
        let mut m = machine();
        let site = ExprId(7);
        let allocated = |m: &Machine| -> u64 { m.rt.metrics().heap_allocs.iter().sum() };
        // 2^61 elements of 8 bytes overflow the accounted size; 2^40 do
        // not, and the host refuses them.
        for (len, cap, bound) in [
            (1 << 61, None, "makeslice: len"),
            (1 << 40, None, "makeslice: len"),
            (3, Some(1 << 61), "makeslice: cap"),
            (3, Some(1 << 40), "makeslice: cap"),
            (1 << 40, Some(1 << 40), "makeslice: len"),
        ] {
            for zero in [Value::Int(0), Value::Nil] {
                let before = m.rt.now();
                let got = m.make_slice(len, cap, 8, zero, true, site);
                assert_eq!(got.err(), Some(ExecError::SliceRange(bound)));
                assert_eq!((m.rt.now(), allocated(&m)), (before, 0));
            }
        }
        // A huge element is the other way to overflow: the array itself
        // (eight of them) is nothing to the host.
        let grown = m.append(Value::Nil, Value::Int(1), u64::MAX / 4, site);
        assert_eq!(grown.err(), Some(ExecError::SliceRange("growslice: len")));
        assert_eq!(allocated(&m), 0);
        let s = m.make_slice(3, Some(5), 8, Value::Int(0), true, site);
        assert_eq!(s.expect("five ints").display(), "[0 0 0]");
        assert_eq!(allocated(&m), 1);
    }
}
