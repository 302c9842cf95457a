//! The mark phase: the machine feeds its roots (an engine's frame
//! slots and deferred-call arguments, then the session-held values) into
//! one [`Marker`], which sets mark bits on the runtime's spans and
//! traces payloads.
//!
//! A heap-backed payload is visited once because [`Runtime::mark`]
//! answers "newly marked" only once per cycle — the mark bit *is* the
//! visited check, sound because every live [`ObjId`] belongs to exactly
//! one payload `Rc` (debug builds run a pointer set alongside and assert
//! the two never disagree). Only payloads without a live heap object
//! behind them — stack-backed cells, or a handle whose object was
//! explicitly freed — still need the pointer `seen` set.

use std::rc::Rc;

use minigo_runtime::{Runtime, ShadowHeap};

use crate::fxhash::FxHashSet;
use crate::value::{Cell, ObjId, Value};

/// Where an engine reports its GC roots.
pub trait RootSink {
    /// A value held directly (plain slot, defer argument, held value).
    fn value(&mut self, v: &Value);
    /// A boxed frame slot: the cell and the heap object backing it.
    fn boxed(&mut self, cell: &Cell, obj: Option<ObjId>);
}

/// Marks everything reachable from the roots it is fed.
pub(crate) struct Marker<'a> {
    rt: &'a mut Runtime,
    /// Visited payloads that have no live heap object to carry the bit.
    seen: FxHashSet<usize>,
    /// Every visited payload, to cross-check the mark-bit shortcut.
    #[cfg(debug_assertions)]
    traced: FxHashSet<usize>,
}

impl<'a> Marker<'a> {
    fn new(rt: &'a mut Runtime) -> Self {
        Marker {
            rt,
            seen: FxHashSet::default(),
            #[cfg(debug_assertions)]
            traced: FxHashSet::default(),
        }
    }

    /// Marks `obj` when its handle is still live; `None` for a stale or
    /// absent handle, else whether this call marked it.
    fn mark(&mut self, obj: Option<ObjId>) -> Option<bool> {
        let obj = obj.filter(|o| o.is_live(self.rt))?;
        Some(self.rt.mark(obj.addr))
    }

    /// Whether the payload at `ptr`, backed by `obj`, is reached for the
    /// first time this cycle (and so must be traced).
    fn first_visit<T: ?Sized>(&mut self, obj: Option<ObjId>, ptr: *const T) -> bool {
        let ptr = ptr as *const () as usize;
        let first = match self.mark(obj) {
            Some(newly_marked) => newly_marked,
            None => self.seen.insert(ptr),
        };
        #[cfg(debug_assertions)]
        assert_eq!(
            first,
            self.traced.insert(ptr),
            "mark bit and payload identity disagree: a heap object is shared by two payloads"
        );
        first
    }
}

impl RootSink for Marker<'_> {
    fn value(&mut self, v: &Value) {
        match v {
            Value::Struct(fields) => {
                for f in fields.iter() {
                    self.value(f);
                }
            }
            Value::Ptr(p) => self.boxed(&p.cell, p.obj),
            Value::Slice(s) if self.first_visit(s.obj, Rc::as_ptr(&s.cells)) => {
                for c in s.cells.borrow().traced() {
                    self.value(c);
                }
            }
            Value::Map(m) if self.first_visit(m.obj, Rc::as_ptr(&m.data)) => {
                let data = m.data.borrow();
                self.mark(data.buckets_obj);
                for v in data.traced() {
                    self.value(v);
                }
            }
            _ => {}
        }
    }

    fn boxed(&mut self, cell: &Cell, obj: Option<ObjId>) {
        if self.first_visit(obj, Rc::as_ptr(cell)) {
            self.value(&cell.borrow());
        }
    }
}

/// One GC cycle: mark from `roots`, collect, and tell the shadow heap
/// which allocations the sweep ended. `roots` reports every root to the
/// sink it is given (it may be asked more than once). Called by
/// `Machine::collect_garbage` only.
pub(crate) fn collect_garbage(
    rt: &mut Runtime,
    shadow: &mut Option<ShadowHeap>,
    roots: impl Fn(&mut dyn RootSink),
) {
    roots(&mut Marker::new(rt));
    #[cfg(test)]
    let reachable = tests::reference_marks(rt, &roots);
    let swept = rt.collect();
    #[cfg(test)]
    tests::check_survivors(rt, &reachable, &swept);
    if let Some(sh) = shadow {
        for f in &swept.freed {
            sh.on_sweep(f.owner.serial());
        }
    }
}

#[cfg(test)]
mod tests {
    use std::cell::Cell as Counter;
    use std::collections::HashSet;

    use minigo_escape::{analyze, AnalyzeOptions, Mode};
    use minigo_runtime::{
        Category, CollectorKind, FreeOutcome, FreeSource, ObjAddr, RuntimeConfig, SweepOutcome,
    };
    use minigo_syntax::frontend;

    use super::*;
    use crate::machine::{Dispatch, Session, VmConfig};

    thread_local! {
        /// Cycles cross-checked on this thread.
        static CYCLES_CHECKED: Counter<u64> = const { Counter::new(0) };
    }

    /// The pre-bitmap marker, kept as the model: a plain recursive walk
    /// into a `HashSet` of addresses with a pointer `seen` set on every
    /// edge. Every cycle either engine runs under `cfg(test)` is checked
    /// against it.
    struct RefMarker<'a> {
        rt: &'a Runtime,
        marked: HashSet<ObjAddr>,
        seen: HashSet<usize>,
    }

    impl RefMarker<'_> {
        fn mark(&mut self, obj: Option<ObjId>) {
            if let Some(obj) = obj.filter(|o| o.is_live(self.rt)) {
                self.marked.insert(obj.addr);
            }
        }
    }

    impl RootSink for RefMarker<'_> {
        fn value(&mut self, v: &Value) {
            match v {
                Value::Struct(fields) => fields.iter().for_each(|f| self.value(f)),
                Value::Ptr(p) => self.boxed(&p.cell, p.obj),
                Value::Slice(s) => {
                    self.mark(s.obj);
                    if self.seen.insert(Rc::as_ptr(&s.cells) as *const () as usize) {
                        // Every element through `get`, never `traced()`: a
                        // representation that hid a reference would leave
                        // the span bits short of this model's set.
                        let cells = s.cells.borrow();
                        (0..cells.len()).for_each(|i| self.value(&cells.get(i)));
                    }
                }
                Value::Map(m) => {
                    self.mark(m.obj);
                    if self.seen.insert(Rc::as_ptr(&m.data) as usize) {
                        let data = m.data.borrow();
                        self.mark(data.buckets_obj);
                        // Every entry, never `traced()` (as for slices).
                        data.entries().for_each(|(_, v)| self.value(&v));
                    }
                }
                _ => {}
            }
        }

        fn boxed(&mut self, cell: &Cell, obj: Option<ObjId>) {
            self.mark(obj);
            if self.seen.insert(Rc::as_ptr(cell) as usize) {
                self.value(&cell.borrow());
            }
        }
    }

    /// The model's reachable set, asserted equal to the span mark bits.
    pub(super) fn reference_marks(
        rt: &Runtime,
        roots: &impl Fn(&mut dyn RootSink),
    ) -> HashSet<ObjAddr> {
        let mut model = RefMarker {
            rt,
            marked: HashSet::new(),
            seen: HashSet::new(),
        };
        roots(&mut model);
        let heap = rt.heap();
        let live = heap.live_objects().into_iter().map(|(addr, _, _)| addr);
        let bits: HashSet<ObjAddr> = live.filter(|&addr| heap.is_marked(addr)).collect();
        assert_eq!(
            bits, model.marked,
            "span mark bits diverged from the reference marker"
        );
        model.marked
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
            .pauses()
            .last()
            .is_some_and(|p| p.kind == minigo_runtime::CycleKind::Major)
        {
            assert_eq!(
                heap.live_objects().len(),
                reachable.len(),
                "a major cycle keeps only the reachable"
            );
        }
        CYCLES_CHECKED.with(|c| c.set(c.get() + 1));
    }

    /// A heap so tight that a cycle runs every few allocations.
    fn tight(collector: CollectorKind) -> VmConfig {
        VmConfig {
            runtime: RuntimeConfig {
                gogc: 10,
                min_heap: 4096,
                nursery_size: 2048,
                migrate_prob: 0.0,
                jitter: 0.0,
                collector,
                ..RuntimeConfig::default()
            },
            ..VmConfig::for_mode(Mode::Go)
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
        let src = format!("{CHURN}{src}");
        let (program, res, types) = frontend(&src).expect("frontend");
        let opts = AnalyzeOptions {
            mode: Mode::Go,
            ..AnalyzeOptions::default()
        };
        let analysis = analyze(&program, &res, &types, &opts);
        let mut outputs = Vec::new();
        for collector in [CollectorKind::Go, CollectorKind::Generational] {
            for bytecode in [false, true] {
                let before = CYCLES_CHECKED.with(Counter::get);
                let run = if bytecode {
                    crate::bytecode::run
                } else {
                    crate::interp::run
                };
                let out = run(&program, &res, &types, &analysis, tight(collector)).expect("run");
                let checked = CYCLES_CHECKED.with(Counter::get) - before;
                assert!(checked >= 5, "only {checked} cycles ran");
                assert_eq!(checked, out.metrics.gcs, "every cycle was cross-checked");
                outputs.push((out.output, out.metrics.heap_allocs[Category::Other.index()]));
            }
        }
        assert!(outputs.iter().all(|o| *o == outputs[0]), "{outputs:?}");
        outputs.swap_remove(0)
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
            let before = CYCLES_CHECKED.with(Counter::get);
            fn drive(engine: impl Dispatch, cfg: VmConfig) {
                let mut s = Session::new(engine, cfg).expect("session");
                let held = s.call("setup", Vec::new()).expect("setup");
                s.hold(held.clone());
                s.call("churn", vec![Value::Int(400)]).expect("churn");
                let got = s.call("get", held).expect("get");
                assert!(matches!(got[..], [Value::Int(64)]), "{got:?}");
            }
            let tree = crate::interp::TreeWalk::new(&program, &res, &types, &analysis);
            drive(tree, tight(collector));
            drive(crate::bytecode::Bytecode::new(&module), tight(collector));
            assert!(CYCLES_CHECKED.with(Counter::get) - before >= 10);
        }
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
        assert_eq!(marker.mark(Some(old)), None, "absent, not the new occupant");
        assert!(!rt.heap().is_marked(addr));
        assert!(new.is_live(&rt) && !old.is_live(&rt));
    }
}
