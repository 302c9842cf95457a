//! The mark phase: the machine feeds its roots (an engine's frame
//! slots and deferred-call arguments, then the session-held values) into
//! one [`Marker`], which sets mark bits on the runtime's spans and
//! traces payloads.
//!
//! A heap-backed payload is visited once because [`Runtime::mark`]
//! answers "newly marked" only once per cycle — the mark bit *is* the
//! visited check, sound because every live [`ObjId`] sits in the header
//! of exactly one payload's [`Obj`] (debug builds run a pointer set
//! alongside and assert the two never disagree). Only payloads without a
//! live heap object behind them — stack-backed cells, or a handle whose
//! object was explicitly freed — still need the pointer `seen` set.
//!
//! A guest structure is as deep as it is long, so the marker recurses
//! only [`SPILL_DEPTH`] objects deep; a reference found below that is
//! pushed on its own stack and traced once the root it hangs off is done.
//! Marking is a set union, so the order changes no bit.
//!
//! A minor cycle sweeps only young objects, so its mark stops at old
//! ones: an old object that is not *forced* is neither marked nor
//! dereferenced. Forced are the objects a young one can hang off without
//! the marker passing through the nursery: every live object the write
//! barrier remembered since the last cycle (the heap keeps their
//! remembered bits; the slot table has their payloads), and every
//! heap-backed cell of a frame slot, since a store through a slot
//! carries no barrier. A frame cell stays forced for one more cycle after
//! the marker last saw it as a root, because its frame may return,
//! leaving the cell reachable only through old objects, before the next
//! cycle scans it; the machine keeps those cells by handle.

use std::rc::Rc;

use minigo_runtime::{CycleKind, Runtime, ShadowHeap};

use crate::fxhash::FxHashSet;
use crate::value::{Array, Cell, MapVal, Obj, ObjId, Payload, Slots, Value};

/// How many objects deep the marker recurses before it spills.
const SPILL_DEPTH: u32 = 256;

/// Where an engine reports its GC roots.
pub trait RootSink {
    /// A value held directly (plain slot, defer argument, held value).
    fn value(&mut self, v: &Value);
    /// A boxed frame slot (its cell carries the heap object backing it).
    fn boxed(&mut self, cell: &Cell);
}

/// Marks everything reachable from the roots it is fed.
pub(crate) struct Marker<'a> {
    rt: &'a mut Runtime,
    /// The pending cycle is minor: stop at old objects not forced.
    minor: bool,
    /// Visited payloads that have no live heap object to carry the bit.
    seen: FxHashSet<usize>,
    /// The heap-backed frame cells reported as roots, forced again at
    /// the next cycle (only with a write barrier, i.e. a nursery).
    frame_cells: Vec<ObjId>,
    /// How many objects deep the current trace is.
    depth: u32,
    /// References found [`SPILL_DEPTH`] deep, still to trace.
    spilled: Vec<Value>,
    /// Every visited payload, to cross-check the mark-bit shortcut.
    #[cfg(debug_assertions)]
    traced: FxHashSet<usize>,
}

impl<'a> Marker<'a> {
    fn new(rt: &'a mut Runtime) -> Self {
        Marker {
            minor: rt.pending_cycle() == CycleKind::Minor,
            rt,
            seen: FxHashSet::default(),
            frame_cells: Vec::new(),
            depth: 0,
            spilled: Vec::new(),
            #[cfg(debug_assertions)]
            traced: FxHashSet::default(),
        }
    }

    /// Marks `obj` unless the handle is stale or absent (`None`) or, in a
    /// minor and not `forced`, the object is old (`Some(false)`, as for
    /// a repeat mark); `Some(true)` when this call marked it.
    fn mark(&mut self, obj: Option<ObjId>, forced: bool) -> Option<bool> {
        let obj = obj?;
        self.rt.mark(obj.addr, obj.tag, self.minor && !forced)
    }

    /// Whether `payload` is reached for the first time this cycle (and
    /// so must be traced).
    fn first_visit<T>(&mut self, payload: &Rc<Obj<T>>, forced: bool) -> bool {
        let (obj, ptr) = (payload.obj, Rc::as_ptr(payload) as usize);
        let marked = self.mark(obj, forced);
        let first = marked.unwrap_or_else(|| self.seen.insert(ptr));
        #[cfg(debug_assertions)]
        {
            // An old object a minor stopped at was neither marked nor
            // traced; every other answer must match payload identity.
            let stopped =
                marked == Some(false) && !obj.is_some_and(|o| self.rt.heap().is_marked(o.addr));
            assert!(
                stopped || first == self.traced.insert(ptr),
                "mark bit and payload identity disagree: a heap object is shared by two payloads"
            );
        }
        first
    }

    fn cell(&mut self, cell: &Cell, forced: bool) {
        if self.first_visit(cell, forced) {
            self.trace(&cell.borrow());
        }
    }

    fn array(&mut self, cells: &Array, forced: bool) {
        if self.first_visit(cells, forced) {
            for c in cells.borrow().traced() {
                self.trace(c);
            }
        }
    }

    fn map(&mut self, m: &MapVal, forced: bool) {
        if self.first_visit(m, forced) {
            let data = m.borrow();
            self.mark(data.buckets_obj, false);
            for v in data.traced() {
                self.trace(v);
            }
        }
    }

    /// Traces what `v` reaches, spilling past [`SPILL_DEPTH`] objects.
    fn trace(&mut self, v: &Value) {
        if let Value::Struct(fields) = v {
            return fields.iter().for_each(|f| self.trace(f));
        }
        if !v.can_reference() {
            return;
        }
        if self.depth == SPILL_DEPTH {
            return self.spilled.push(v.clone());
        }
        self.depth += 1;
        match v {
            Value::Ptr(c) => self.cell(c, false),
            Value::Slice(s) => self.array(&s.cells, false),
            Value::Map(m) => self.map(m, false),
            _ => {}
        }
        self.depth -= 1;
    }

    /// Traces the spilled references, and what they spill in turn.
    fn drain(&mut self) {
        while let Some(v) = self.spilled.pop() {
            self.trace(&v);
        }
    }

    /// A forced object's payload: traced whatever the object's age.
    fn forced(&mut self, p: &Payload) {
        match p {
            Payload::Cell(c) => self.cell(c, true),
            Payload::Array(a) => self.array(a, true),
            Payload::Map(m) => self.map(m, true),
            Payload::Buckets(m) => {
                if let Some(m) = m.upgrade() {
                    self.map(&m, true);
                }
            }
        }
        self.drain();
    }
}

impl RootSink for Marker<'_> {
    fn value(&mut self, v: &Value) {
        self.trace(v);
        self.drain();
    }

    fn boxed(&mut self, cell: &Cell) {
        if let Some(obj) = cell.obj.filter(|_| self.rt.has_barrier()) {
            self.frame_cells.push(obj);
        }
        self.cell(cell, true);
        self.drain();
    }
}

/// One GC cycle: mark from `roots` (and, in a minor, from the forced
/// objects), collect, release the payloads the sweep freed, and tell the
/// shadow heap which allocations it ended. `roots` reports every root to
/// the sink it is given (it may be asked more than once). On return
/// `frame_cells` holds the frame cells this cycle scanned, for the next
/// one. Called by `Machine::collect_garbage` only.
pub(crate) fn collect_garbage(
    rt: &mut Runtime,
    shadow: &mut Option<ShadowHeap>,
    slots: &mut Slots,
    frame_cells: &mut Vec<ObjId>,
    roots: impl Fn(&mut dyn RootSink),
) {
    let forced: Vec<&Payload> = if rt.pending_cycle() == CycleKind::Minor {
        let cells = frame_cells.iter().filter(|o| o.is_live(rt)).map(|o| o.addr);
        let addrs = rt.heap().remembered_objects().chain(cells);
        addrs.filter_map(|addr| slots.get(addr)).collect()
    } else {
        Vec::new()
    };
    let mut marker = Marker::new(rt);
    forced.iter().for_each(|p| marker.forced(p));
    roots(&mut marker);
    *frame_cells = marker.frame_cells;
    #[cfg(test)]
    let reachable = tests::check_marks(rt, &forced, &roots);
    let swept = rt.collect();
    #[cfg(test)]
    tests::check_survivors(rt, &reachable, &swept);
    for f in &swept.freed {
        if let Some(sh) = shadow {
            sh.on_sweep(f.owner.serial());
        }
        slots.release(f.addr);
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use minigo_escape::{analyze, AnalyzeOptions, Mode};
    use minigo_runtime::{
        Category, CollectorKind, FreeOutcome, FreeSource, ObjAddr, RuntimeConfig, SweepOutcome,
    };
    use minigo_syntax::frontend;

    use super::*;
    use crate::machine::{Dispatch, Session, VmConfig};

    /// The pre-bitmap marker, kept as the model: a plain recursive walk
    /// into a `HashSet` of addresses with a pointer `seen` set on every
    /// edge. With `prune` it applies a minor's rule, written apart from
    /// [`Marker`]'s: an old live object is entered only when forced (a
    /// remembered entry or a frame cell). Every cycle either engine runs
    /// under `cfg(test)` is checked against it.
    struct RefMarker<'a> {
        rt: &'a Runtime,
        prune: bool,
        marked: HashSet<ObjAddr>,
        seen: HashSet<usize>,
    }

    impl<'a> RefMarker<'a> {
        fn new(rt: &'a Runtime, prune: bool) -> Self {
            RefMarker {
                rt,
                prune,
                marked: HashSet::new(),
                seen: HashSet::new(),
            }
        }

        fn live(&self, obj: Option<ObjId>) -> Option<ObjAddr> {
            obj.filter(|o| o.is_live(self.rt)).map(|o| o.addr)
        }

        /// Whether a minor stops at `addr` (old, not forced).
        fn stops(&self, addr: ObjAddr, forced: bool) -> bool {
            self.prune && !forced && !self.rt.heap().is_young(addr)
        }

        /// Marks `obj` and answers whether to walk the payload at `ptr`.
        fn enter(&mut self, obj: Option<ObjId>, ptr: usize, forced: bool) -> bool {
            if let Some(addr) = self.live(obj) {
                if self.stops(addr, forced) {
                    return false;
                }
                self.marked.insert(addr);
            }
            self.seen.insert(ptr)
        }

        fn cell(&mut self, cell: &Cell, forced: bool) {
            if self.enter(cell.obj, Rc::as_ptr(cell) as usize, forced) {
                self.value(&cell.borrow());
            }
        }

        fn array(&mut self, cells: &Array, forced: bool) {
            if self.enter(cells.obj, Rc::as_ptr(cells) as usize, forced) {
                // Every element through `get`, never `traced()`: a
                // representation that hid a reference would leave the
                // span bits short of this model's set.
                let cells = cells.borrow();
                (0..cells.len()).for_each(|i| self.value(&cells.get(i)));
            }
        }

        fn map(&mut self, m: &MapVal, forced: bool) {
            if self.enter(m.obj, Rc::as_ptr(m) as usize, forced) {
                let data = m.borrow();
                if let Some(addr) = self.live(data.buckets_obj) {
                    if !self.stops(addr, false) {
                        self.marked.insert(addr);
                    }
                }
                // Every entry, never `traced()` (as for slices).
                data.entries().for_each(|(_, v)| self.value(&v));
            }
        }
    }

    impl RootSink for RefMarker<'_> {
        fn value(&mut self, v: &Value) {
            match v {
                Value::Struct(fields) => fields.iter().for_each(|f| self.value(f)),
                Value::Ptr(p) => self.cell(p, false),
                Value::Slice(s) => self.array(&s.cells, false),
                Value::Map(m) => self.map(m, false),
                _ => {}
            }
        }

        fn boxed(&mut self, cell: &Cell) {
            self.cell(cell, true);
        }
    }

    /// Checks the span mark bits against the model and returns what is
    /// reachable from the roots. A major's bits are exactly the
    /// reachable set. A minor's are exactly the pruned model's (the same
    /// rule, written apart) and hold every young object reachable from
    /// the roots (safety).
    pub(super) fn check_marks(
        rt: &Runtime,
        forced: &[&Payload],
        roots: &impl Fn(&mut dyn RootSink),
    ) -> HashSet<ObjAddr> {
        let heap = rt.heap();
        let live = heap.live_objects().map(|(addr, _, _)| addr);
        let bits: HashSet<ObjAddr> = live.filter(|&addr| heap.is_marked(addr)).collect();
        let mut full = RefMarker::new(rt, false);
        roots(&mut full);
        if rt.pending_cycle() == CycleKind::Major {
            assert_eq!(
                bits, full.marked,
                "span mark bits diverged from the reference marker"
            );
            return full.marked;
        }
        let mut pruned = RefMarker::new(rt, true);
        for p in forced {
            match p {
                Payload::Cell(c) => pruned.cell(c, true),
                Payload::Array(a) => pruned.array(a, true),
                Payload::Map(m) => pruned.map(m, true),
                Payload::Buckets(m) => m.upgrade().iter().for_each(|m| pruned.map(m, true)),
            }
        }
        roots(&mut pruned);
        assert_eq!(
            bits, pruned.marked,
            "a minor's span mark bits diverged from the pruned reference marker"
        );
        let missed: Vec<_> = full
            .marked
            .iter()
            .filter(|&&a| heap.is_young(a) && !bits.contains(&a))
            .collect();
        assert!(
            missed.is_empty(),
            "a minor left young objects reachable from the roots unmarked: {missed:?}"
        );
        full.marked
    }

    /// After the sweep: everything the model reached survived, nothing
    /// it reached was freed, and a major cycle left nothing else.
    pub(super) fn check_survivors(
        rt: &Runtime,
        reachable: &HashSet<ObjAddr>,
        swept: &SweepOutcome,
    ) {
        let heap = rt.heap();
        assert!(reachable.iter().all(|&a| heap.is_allocated(a)));
        assert!(swept.freed.iter().all(|f| !reachable.contains(&f.addr)));
        if rt
            .cycles()
            .last()
            .is_some_and(|c| c.kind == minigo_runtime::CycleKind::Major)
        {
            assert_eq!(
                heap.live_objects().count(),
                reachable.len(),
                "a major cycle keeps only the reachable"
            );
        }
    }

    /// A heap so tight that a cycle runs every few allocations. Under
    /// `gen` the major floor sits well above the nursery, so most of
    /// those cycles are minors, each run while the objects a test
    /// stores are young.
    fn tight(collector: CollectorKind) -> VmConfig {
        VmConfig {
            runtime: RuntimeConfig {
                gogc: 10,
                min_heap: match collector {
                    CollectorKind::Go => 4096,
                    CollectorKind::Generational => 16384,
                },
                nursery_size: 2048,
                migrate_prob: 0.0,
                jitter: 0.0,
                collector,
                ..RuntimeConfig::default()
            },
            grow_map_free_old: false,
            ..VmConfig::default()
        }
    }

    /// Garbage to force cycles while the structure under test is live
    /// (the variable size keeps the scratch slice off the stack).
    const CHURN: &str = "func churn(n int) int { t := 0\n for i := 0; i < n; i += 1 { \
        s := make([]int, 40+i%3)\n s[0] = i\n t += s[0] }\n return t }\n";

    /// Runs `src` (plain Go: the collector does all the reclamation) on
    /// both engines under both collectors; every cycle is cross-checked
    /// by [`collect_garbage`]. Returns the common output and how many
    /// boxes (pointer targets, `Category::Other`) went to the heap.
    fn run_everywhere(src: &str) -> (String, u64) {
        run_counting_minors(src).0
    }

    /// [`run_everywhere`], counting the minor cycles over all four runs.
    fn run_counting_minors(src: &str) -> ((String, u64), u64) {
        let src = format!("{CHURN}{src}");
        let (program, res, types) = frontend(&src).expect("frontend");
        let opts = AnalyzeOptions {
            mode: Mode::Go,
            ..AnalyzeOptions::default()
        };
        let analysis = analyze(&program, &res, &types, &opts);
        let (mut outputs, mut minors) = (Vec::new(), 0);
        for collector in [CollectorKind::Go, CollectorKind::Generational] {
            for bytecode in [false, true] {
                let run = if bytecode {
                    crate::bytecode::run
                } else {
                    crate::interp::run
                };
                let out = run(&program, &res, &types, &analysis, tight(collector)).expect("run");
                let cycles = out.metrics.gcs;
                assert!(cycles >= 5, "only {cycles} cycles ran");
                minors += out.metrics.gcs_minor;
                outputs.push((out.output, out.metrics.heap_allocs[Category::Other.index()]));
            }
        }
        assert!(outputs.iter().all(|o| *o == outputs[0]), "{outputs:?}");
        (outputs.swap_remove(0), minors)
    }

    const NODE: &str = "type N struct { next *N\n v int }\n";

    #[test]
    fn self_referential_heap_pointer() {
        let out = run_everywhere(&format!(
            "{NODE}func mk() *N {{ n := &N{{nil, 7}}\n n.next = n\n return n }}\n\
             func main() {{ n := mk()\n print(churn(400), n.next.next.v) }}\n"
        ));
        assert_eq!(out, ("79800 7\n".into(), 1));
    }

    #[test]
    fn stack_backed_cell_cycle() {
        // `a` and `b` never escape: both boxes are stack-backed, so every
        // edge of the cycle has `obj == None` and only `seen` ends the walk.
        let out = run_everywhere(&format!(
            "{NODE}func main() {{ a := N{{nil, 1}}\n b := N{{nil, 2}}\n a.next = &b\n b.next = &a\n\
             print(churn(400), a.next.next.v, a.next.v) }}\n"
        ));
        assert_eq!(out, ("79800 1 2\n".into(), 0), "no box on the heap");
    }

    #[test]
    fn map_reachable_through_its_own_value_slice() {
        let out = run_everywhere(
            "type Box struct { m map[int][]*Box\n v int }\n\
             func mk() *Box { b := &Box{make(map[int][]*Box), 5}\n s := make([]*Box, 1+b.v%2)\n\
             s[0] = b\n b.m[0] = s\n return b }\n\
             func main() { b := mk()\n print(churn(400), b.m[0][0].m[0][0].v, len(b.m)) }\n",
        );
        assert_eq!(out, ("79800 5 1\n".into(), 1));
    }

    #[test]
    fn pointers_held_only_as_map_values() {
        // Twenty boxes, each reachable only as a value of an int-keyed
        // map that grew past 8, 16 and 32 buckets while they were stored.
        let out = run_everywhere(&format!(
            "{NODE}func build(n int) map[int]*N {{ m := make(map[int]*N)\n\
             for i := 0; i < n; i += 1 {{ m[i] = &N{{nil, i * 3}} }}\n return m }}\n\
             func main() {{ m := build(40)\n print(churn(400), m[4].v, m[39].v, len(m)) }}\n"
        ));
        assert_eq!(out, ("79800 12 117 40\n".into(), 40));
    }

    #[test]
    fn a_list_deeper_than_the_spill_depth_is_marked_whole() {
        // Four times `SPILL_DEPTH` links: every cycle after `build` spills,
        // and its bits must still match the reference marker's walk.
        let out = run_everywhere(&format!(
            "{NODE}func build(n int) *N {{ var h *N\n\
             for i := 0; i < n; i += 1 {{ h = &N{{h, i}} }}\n return h }}\n\
             func main() {{ h := build({})\n t := churn(400)\n\
             for p := h; p != nil; p = p.next {{ t += p.v }}\n print(t) }}\n",
            4 * SPILL_DEPTH
        ));
        let links = 4 * u64::from(SPILL_DEPTH);
        let sum = links * (links - 1) / 2;
        assert_eq!(out, (format!("{}\n", 79_800 + sum), links));
    }

    #[test]
    fn two_reslices_of_one_backing_array() {
        let out = run_everywhere(
            "func two(n int) ([]int, []int) { s := make([]int, n)\n s[25] = 9\n return s[0:10], s[20:40] }\n\
             func main() { a, b := two(64)\n print(churn(400), len(a), b[5]) }\n",
        );
        assert_eq!(out, ("79800 10 9\n".into(), 0));
    }

    #[test]
    fn pointers_held_only_through_a_reslice_of_a_grown_array() {
        // The array the nodes sit in started as `append(nil, &N{..})`
        // and doubled twice; `main` holds three of its elements' worth.
        let out = run_everywhere(&format!(
            "{NODE}func build(n int) []*N {{ var s []*N\n\
             for i := 0; i < n; i += 1 {{ s = append(s, &N{{nil, i}}) }}\n return s[2:5] }}\n\
             func main() {{ t := build(20)\n print(churn(400), len(t), t[0].v, t[2].v, cap(t)) }}\n"
        ));
        assert_eq!(out, ("79800 3 2 4 30\n".into(), 20));
    }

    #[test]
    fn int_slice_held_only_by_a_struct_in_a_slice_of_structs() {
        // Each `vals` array holds ints and nothing else, and the only
        // way to it is through a `Row` value stored in another array.
        let out = run_everywhere(
            "type Row struct { vals []int\n id int }\n\
             func build(n int) []Row { rows := make([]Row, n)\n\
             for i := 0; i < n; i += 1 { v := make([]int, 30+i)\n v[1] = i * 3\n rows[i] = Row{v, i} }\n\
             return rows }\n\
             func main() { rows := build(6)\n\
             print(churn(400), rows[4].vals[1], len(rows[5].vals), rows[2].id) }\n",
        );
        assert_eq!(out, ("79800 12 35 2\n".into(), 0));
    }

    #[test]
    fn boxed_frame_slot_aliased_by_a_ptr() {
        // `v` escapes through `h`, so mk's frame holds it as a heap-backed
        // boxed slot while `h.p` points at the same cell: one object
        // reached along two edges during the cycles churn forces.
        let out = run_everywhere(&format!(
            "{NODE}type H struct {{ p *N }}\n\
             func mk() *H {{ v := N{{nil, 3}}\n h := &H{{&v}}\n v.v += churn(400)\n return h }}\n\
             func main() {{ h := mk()\n print(churn(100), h.p.v) }}\n"
        ));
        assert_eq!(
            out,
            ("4950 79803\n".into(), 2),
            "`v` and `h` both on the heap"
        );
    }

    #[test]
    fn value_held_only_by_a_defer_argument() {
        let out = run_everywhere(
            "func mk(n int) []int { s := make([]int, n)\n s[3] = 11\n return s }\n\
             func show(s []int) { print(s[3], len(s)) }\n\
             func main() { n := 50\n defer show(mk(n))\n print(churn(400)) }\n",
        );
        assert_eq!(out, ("79800\n11 50\n".into(), 0));
    }

    #[test]
    fn value_held_only_by_a_session() {
        let src = format!(
            "{CHURN}{NODE}func setup() *N {{ return &N{{&N{{nil, 4}}, 6}} }}\n\
             func get(n *N) int {{ return n.v*10 + n.next.v }}\n"
        );
        let (program, res, types) = frontend(&src).expect("frontend");
        let opts = AnalyzeOptions {
            mode: Mode::Go,
            ..AnalyzeOptions::default()
        };
        let analysis = analyze(&program, &res, &types, &opts);
        let module = crate::bytecode::lower(&program, &res, &types, &analysis);
        for collector in [CollectorKind::Go, CollectorKind::Generational] {
            /// The cycles the session ran.
            fn drive(engine: impl Dispatch, cfg: VmConfig) -> u64 {
                let mut s = Session::new(engine, cfg).expect("session");
                let held = s.call("setup", Vec::new()).expect("setup");
                s.hold(held.clone());
                s.call("churn", vec![Value::Int(400)]).expect("churn");
                let got = s.call("get", held).expect("get");
                assert!(matches!(got[..], [Value::Int(64)]), "{got:?}");
                s.finish().metrics.gcs
            }
            let tree = crate::interp::TreeWalk::new(&program, &res, &types, &analysis);
            let cycles = drive(tree, tight(collector))
                + drive(crate::bytecode::Bytecode::new(&module), tight(collector));
            assert!(cycles >= 10, "{cycles}");
        }
    }

    // A minor stops at old objects. In each program below a young
    // object's only path from the roots runs through an old one, and
    // minors run while it is young; the cross-check in
    // `collect_garbage` fails a minor that leaves it unmarked.

    /// [`run_everywhere`], asserting at least five minor cycles per `gen`
    /// run.
    fn run_through_minors(src: &str) -> (String, u64) {
        let (out, minors) = run_counting_minors(src);
        assert!(minors >= 10, "only {minors} minors over both engines");
        out
    }

    /// `mk*` return heap objects that `churn` then ages.
    const OLD: &str = "type H struct { p *N }\n\
        func mkH() *H { return &H{nil} }\n\
        func mkN(v int) *N { return &N{nil, v} }\n";

    #[test]
    fn young_element_appended_in_capacity_into_an_old_array() {
        let out = run_through_minors(&format!(
            "{NODE}{OLD}func mk() []*N {{ return make([]*N, 0, 64) }}\n\
             func main() {{ s := mk()\n t := churn(100)\n\
             for i := 0; i < 40; i += 1 {{ s = append(s, mkN(i))\n t += churn(8) }}\n\
             print(churn(200), len(s), cap(s), s[3].v, s[39].v) }}\n"
        ));
        assert_eq!(out, ("19900 40 64 3 39\n".into(), 40));
    }

    #[test]
    fn young_object_stored_through_a_pointer_into_an_old_struct() {
        let out = run_through_minors(&format!(
            "{NODE}{OLD}func main() {{ h := mkH()\n t := churn(100)\n\
             for i := 0; i < 40; i += 1 {{ h.p = mkN(i)\n t += churn(8) }}\n\
             print(churn(200), h.p.v) }}\n"
        ));
        assert_eq!(out, ("19900 39\n".into(), 41));
    }

    #[test]
    fn young_value_inserted_into_an_old_map() {
        // Both maps grow past 8 and 16 buckets while old: the new bucket
        // arrays hang off the old headers too, the int map's included,
        // though none of its stores fires the barrier.
        let out = run_through_minors(&format!(
            "{NODE}{OLD}func mk() map[int]*N {{ return make(map[int]*N) }}\n\
             func mkc() map[int]int {{ return make(map[int]int) }}\n\
             func main() {{ m := mk()\n c := mkc()\n t := churn(100)\n\
             for i := 0; i < 30; i += 1 {{ m[i] = mkN(i * 2)\n c[i] = i * 3\n t += churn(8) }}\n\
             print(churn(200), len(m), m[0].v, m[29].v, len(c), c[29]) }}\n"
        ));
        assert_eq!(out, ("19900 30 0 58 30 87\n".into(), 30));
    }

    #[test]
    fn young_object_stored_into_an_escaped_local() {
        // `v` escapes through `h`, so its cell is a heap object, old by
        // the time of the slot stores. `keep` returns right after one
        // (no cycle between): the cell's only path is then `h`.
        let out = run_through_minors(&format!(
            "{NODE}{OLD}func keep(i int) *H {{ v := N{{nil, i}}\n h := &H{{&v}}\n t := churn(100)\n\
             for j := 0; j < 10; j += 1 {{ v.next = mkN(j)\n t += churn(8) }}\n\
             v.next = mkN(t % 7)\n return h }}\n\
             func main() {{ a := keep(1)\n b := keep(2)\n\
             print(churn(200), a.p.v, a.p.next.v, b.p.next.v) }}\n"
        ));
        assert_eq!(out.0, "19900 1 1 1\n");
    }

    #[test]
    fn remembered_then_freed_object_is_skipped() {
        // `o` and `p` are remembered by the field stores, then freed by
        // hand; the allocation after them may reuse a slot. The young
        // `N` under `o` is left reachable only through the freed box
        // (a root with a stale handle); the one under `p` only through
        // the stale remembered entry, which the minor must skip.
        let out = run_through_minors(&format!(
            "{NODE}{OLD}func main() {{ o := mkN(1)\n p := mkN(2)\n t := churn(100)\n\
             o.next = mkN(5)\n p.next = mkN(7)\n tcfree(o)\n tcfree(p)\n p = nil\n\
             z := mkN(6)\n print(churn(200), o.next.v, z.v) }}\n"
        ));
        assert_eq!(out, ("19900 5 6\n".into(), 5));
    }

    #[test]
    fn stale_handle_never_resolves_to_the_new_occupant() {
        let mut rt = Runtime::new(tight(CollectorKind::Go).runtime);
        let (addr, tag) = rt.alloc_at(64, Category::Slice, None);
        let old = ObjId { tag, addr };
        assert!(old.is_live(&rt));
        let freed = rt.tcfree(addr, FreeSource::SliceLifetime);
        assert!(matches!(freed, FreeOutcome::Freed { .. }), "{freed:?}");
        assert!(!old.is_live(&rt), "tcfree ends the handle");
        let (again, tag) = rt.alloc_at(64, Category::Slice, None);
        assert_eq!(again, addr, "the §5 revert hands the slot straight back");
        let new = ObjId { tag, addr };
        assert_eq!((old.number(), new.number()), (0, 1));
        let mut marker = Marker::new(&mut rt);
        assert_eq!(
            marker.mark(Some(old), false),
            None,
            "absent, not the new occupant"
        );
        assert!(!rt.heap().is_marked(addr));
        assert!(new.is_live(&rt) && !old.is_live(&rt));
    }
}
