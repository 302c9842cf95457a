//! The escape graph (definitions 4.1–4.5 of the paper).
//!
//! A directed weighted graph whose vertices ("locations") represent storage
//! and whose edges represent data flow. Edge weights are dereference counts
//! (`Derefs`, definition 4.5): `-1` for address-of flow, `0` for value flow,
//! `+1` for a load through a pointer (table 2).

use std::fmt;
use std::sync::OnceLock;

use minigo_syntax::fxhash::FxHashMap;
use minigo_syntax::visit::{self, Walk};
use minigo_syntax::{Expr, ExprId, ExprKind, FuncId, Program, Resolution, VarId};

/// Identifies a location (vertex) within one function's escape graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LocId(pub u32);

impl LocId {
    /// The id as a plain index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for LocId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{}", self.0)
    }
}

/// What a location stands for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LocKind {
    /// The global dummy heap location (`heapLoc` in the paper).
    HeapDummy,
    /// The per-function dummy return location.
    ReturnDummy,
    /// A named variable (parameter, result, or local).
    Var(VarId),
    /// An allocation site: the storage created by `make`, `new`, `&T{..}`.
    Alloc(ExprId, AllocKind),
    /// A dummy content location summarizing runtime-managed allocation:
    /// slice append growth, map bucket growth, or a callee's returned
    /// allocations (the content tags of §4.4).
    Content(ContentOrigin),
    /// A synthesized temporary holding an intermediate value (call
    /// arguments, complex lvalue bases).
    Temp(ExprId),
}

/// What kind of object an allocation site creates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AllocKind {
    /// The backing array of `make([]T, ..)`.
    SliceArray,
    /// The hmap + initial buckets of `make(map[K]V)`.
    MapBuckets,
    /// The object of `new(T)` or `&T{..}`.
    Object,
}

/// Where a content dummy location came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContentOrigin {
    /// Possible implicit allocation by `append` (§4.6.1).
    SliceAppend(ExprId),
    /// Possible bucket growth at a map store (§4.6.2); carries the id of
    /// the indexing expression.
    MapGrowth(ExprId),
    /// Content tag of result `index` at a call site (§4.4).
    CallResult(ExprId, usize),
}

/// A directed weighted edge (definition 4.4/4.5). `src`'s value, address, or
/// dereference flows into `dst`, with `derefs` counting the dereference
/// offset (table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    /// Source location.
    pub src: LocId,
    /// Destination location.
    pub dst: LocId,
    /// Dereference count: -1 address-of, 0 value, +1 load.
    pub derefs: i32,
}

/// Per-location solved properties (table 1) plus bookkeeping flags.
#[derive(Debug, Clone)]
pub struct Location {
    /// What this location stands for (and, through [`Labels`], what it
    /// is called when printed).
    pub kind: LocKind,
    /// `LoopDepth` (definition 4.3). Dummies use -1.
    pub loop_depth: i32,
    /// `DeclDepth` (definition 4.13). Dummies use -1.
    pub decl_depth: i32,
    /// Whether the location's type can reach pointers; `Exposes` and
    /// `Incomplete` are only tracked for pointerful locations (§4.2).
    pub pointerful: bool,

    // ---- solved properties (table 1) ----
    /// `HeapAlloc` (definition 4.10).
    pub heap_alloc: bool,
    /// `Exposes` (definition 4.11).
    pub exposes: bool,
    /// `Incomplete` (definition 4.12).
    pub incomplete: bool,
    /// The part of `Incomplete` that originates from indirect stores (rule
    /// b via `Exposes`), *excluding* the conservative formal-parameter seed
    /// (rule a). This is what a function's extended parameter tag exports
    /// as the content tag's incompleteness (§4.4's third rule): the
    /// caller re-derives parameter-related incompleteness from its own
    /// arguments, but indirect stores inside the callee "must be recorded
    /// for safety".
    pub incomplete_internal: bool,
    /// `OutermostRef` (definition 4.14). Starts at `decl_depth` and only
    /// decreases.
    pub outermost_ref: i32,
    /// `Outlived` (definition 4.15).
    pub outlived: bool,
    /// `PointsToHeap` (definition 4.16).
    pub points_to_heap: bool,

    /// Banned from freeing: passed to `defer`/`panic` (§5) or otherwise
    /// excluded.
    pub pinned: bool,
}

impl Location {
    /// `ToFree` (definition 4.17): qualified for explicit deallocation.
    pub fn to_free(&self) -> bool {
        !self.incomplete && !self.outlived && self.points_to_heap && !self.pinned
    }
}

/// One function's escape graph: locations, edges, and adjacency.
#[derive(Debug, Clone, Default)]
pub struct EscapeGraph {
    locs: Vec<Location>,
    edges: Vec<Edge>,
    /// The edges grouped by destination and by source, built by the
    /// first [`Self::incoming`] or [`Self::outgoing`] query and dropped
    /// by [`Self::add_edge`], so a query always sees every edge.
    adjacency: OnceLock<Adjacency>,
}

/// The edge list grouped twice: by destination (the solver walks
/// reverse edges) and by source (its dirty-root closure follows forward
/// edges). Each group keeps edge order.
#[derive(Debug, Clone)]
struct Adjacency {
    incoming: Groups,
    outgoing: Groups,
}

/// Edges grouped by one endpoint: location `l`'s group is
/// `edges[start[l]..start[l + 1]]`.
#[derive(Debug, Clone)]
struct Groups {
    start: Vec<u32>,
    edges: Vec<Edge>,
}

impl Groups {
    /// A counting sort of `edges` by `key`, stable, so each group lists
    /// its edges in the order they were added.
    fn by(edges: &[Edge], locations: usize, key: impl Fn(&Edge) -> LocId) -> Self {
        let mut start = vec![0u32; locations + 1];
        for e in edges {
            start[key(e).index() + 1] += 1;
        }
        for l in 0..locations {
            start[l + 1] += start[l];
        }
        let mut next = start.clone();
        let mut grouped = edges.to_vec();
        for e in edges {
            let slot = &mut next[key(e).index()];
            grouped[*slot as usize] = *e;
            *slot += 1;
        }
        Groups {
            start,
            edges: grouped,
        }
    }

    fn of(&self, l: LocId) -> &[Edge] {
        &self.edges[self.start[l.index()] as usize..self.start[l.index() + 1] as usize]
    }
}

/// The conventional id of the `heapLoc` dummy: always the first location.
pub const HEAP_LOC: LocId = LocId(0);

impl EscapeGraph {
    /// Creates a graph containing only the `heapLoc` dummy.
    pub fn new() -> Self {
        let mut g = EscapeGraph::default();
        let heap = g.add_location(LocKind::HeapDummy, -1, -1, true);
        debug_assert_eq!(heap, HEAP_LOC);
        g.locs[heap.index()].heap_alloc = true;
        // Exposes(heapLoc) = true (definition 4.11): anything escaping into
        // the heap may be stored through elsewhere.
        g.locs[heap.index()].exposes = true;
        g
    }

    /// Adds a location and returns its id.
    pub fn add_location(
        &mut self,
        kind: LocKind,
        loop_depth: i32,
        decl_depth: i32,
        pointerful: bool,
    ) -> LocId {
        let id = LocId(self.locs.len() as u32);
        self.locs.push(Location {
            kind,
            loop_depth,
            decl_depth,
            pointerful,
            heap_alloc: false,
            exposes: false,
            incomplete: false,
            incomplete_internal: false,
            outermost_ref: decl_depth,
            outlived: false,
            points_to_heap: false,
            pinned: false,
        });
        self.adjacency.take();
        id
    }

    /// Adds edge `src --derefs--> dst`. Self-edges with weight 0 are
    /// meaningless and dropped.
    pub fn add_edge(&mut self, src: LocId, dst: LocId, derefs: i32) {
        if src == dst && derefs == 0 {
            return;
        }
        debug_assert!(derefs >= -1, "Derefs(e) >= -1 always holds");
        self.edges.push(Edge { src, dst, derefs });
        self.adjacency.take();
    }

    /// The location for an id.
    pub fn loc(&self, id: LocId) -> &Location {
        &self.locs[id.index()]
    }

    /// Mutable access to a location.
    pub fn loc_mut(&mut self, id: LocId) -> &mut Location {
        &mut self.locs[id.index()]
    }

    /// All locations, indexable by [`LocId::index`].
    pub fn locations(&self) -> &[Location] {
        &self.locs
    }

    /// Number of locations.
    pub fn len(&self) -> usize {
        self.locs.len()
    }

    /// Whether the graph has only the heap dummy.
    pub fn is_empty(&self) -> bool {
        self.locs.len() <= 1
    }

    /// All edges.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Incoming edges of `dst` (for reverse walks), in the order they
    /// were added.
    pub fn incoming(&self, dst: LocId) -> impl Iterator<Item = Edge> + '_ {
        self.adjacency().incoming.of(dst).iter().copied()
    }

    /// Outgoing edges of `src`, in the order they were added.
    pub fn outgoing(&self, src: LocId) -> impl Iterator<Item = Edge> + '_ {
        self.adjacency().outgoing.of(src).iter().copied()
    }

    fn adjacency(&self) -> &Adjacency {
        self.adjacency.get_or_init(|| Adjacency {
            incoming: Groups::by(&self.edges, self.locs.len(), |e| e.dst),
            outgoing: Groups::by(&self.edges, self.locs.len(), |e| e.src),
        })
    }

    /// Iterates all location ids.
    pub fn ids(&self) -> impl Iterator<Item = LocId> {
        (0..self.locs.len() as u32).map(LocId)
    }

    /// Renders the escape graph as Graphviz DOT, coloring heap-allocated
    /// locations green and stack locations blue like the paper's fig. 1.
    /// Dummy locations are drawn as diamonds; edges are labeled with their
    /// `Derefs` weight.
    pub fn to_dot(&self, title: &str, labels: &Labels) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "digraph \"{title}\" {{");
        let _ = writeln!(out, "  rankdir=LR;");
        let _ = writeln!(out, "  node [fontname=\"monospace\"];");
        for id in self.ids() {
            let l = self.loc(id);
            let shape = match l.kind {
                LocKind::HeapDummy | LocKind::ReturnDummy => "diamond",
                LocKind::Content(_) => "ellipse",
                _ => "box",
            };
            let color = if l.heap_alloc {
                "palegreen"
            } else {
                "lightblue"
            };
            let mut flags = String::new();
            if l.exposes {
                flags.push_str("\\nExposes");
            }
            if l.incomplete {
                flags.push_str("\\nIncomplete");
            }
            if l.outlived {
                flags.push_str("\\nOutlived");
            }
            if l.to_free() && !matches!(l.kind, LocKind::HeapDummy | LocKind::ReturnDummy) {
                flags.push_str("\\nToFree");
            }
            let _ = writeln!(
                out,
                "  n{} [label=\"{}{}\" shape={} style=filled fillcolor={}];",
                id.0,
                labels.of(&l.kind),
                flags,
                shape,
                color
            );
        }
        for e in &self.edges {
            let _ = writeln!(
                out,
                "  n{} -> n{} [label=\"{}\"];",
                e.src.0, e.dst.0, e.derefs
            );
        }
        out.push_str("}\n");
        out
    }

    /// Renders the graph in a stable, human-readable form (tests and the
    /// compile-speed experiment use this).
    pub fn dump(&self, labels: &Labels) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for id in self.ids() {
            let l = self.loc(id);
            let _ = writeln!(
                out,
                "{id} {} ld={} dd={}{}{}{}{}{}{}",
                labels.of(&l.kind),
                l.loop_depth,
                l.decl_depth,
                if l.heap_alloc { " heap" } else { "" },
                if l.exposes { " exposes" } else { "" },
                if l.incomplete { " incomplete" } else { "" },
                if l.outlived { " outlived" } else { "" },
                if l.points_to_heap { " ptsheap" } else { "" },
                if l.pinned { " pinned" } else { "" },
            );
        }
        for e in &self.edges {
            let _ = writeln!(out, "{} -{}-> {}", e.src, e.derefs, e.dst);
        }
        out
    }
}

/// Renders location labels — what [`EscapeGraph::dump`], `to_dot` and
/// table 3 print — from each location's [`LocKind`]. Building a graph
/// formats no names; only a printer pays for them.
pub struct Labels<'a> {
    res: Option<&'a Resolution>,
    /// The function's call and struct-literal expressions, by id.
    exprs: FxHashMap<ExprId, &'a Expr>,
}

impl<'a> Labels<'a> {
    /// Labels for the graph of `func`: variables by name, call results by
    /// callee.
    pub fn new(program: &'a Program, res: &'a Resolution, func: FuncId) -> Self {
        let mut exprs = FxHashMap::default();
        visit::exprs(&program.funcs[func.index()].body, |e| {
            if matches!(e.kind, ExprKind::Call { .. } | ExprKind::StructLit { .. }) {
                exprs.insert(e.id, e);
            }
            Walk::Descend
        });
        Labels {
            res: Some(res),
            exprs,
        }
    }

    /// Labels for a graph built without a program: a variable shows as
    /// `v<id>`, a call result by its call's id.
    pub fn bare() -> Labels<'static> {
        Labels {
            res: None,
            exprs: FxHashMap::default(),
        }
    }

    /// The label of a location of kind `kind`.
    pub fn of(&self, kind: &LocKind) -> String {
        match kind {
            LocKind::HeapDummy => "heapLoc".to_string(),
            LocKind::ReturnDummy => "return".to_string(),
            LocKind::Var(v) => match self.res {
                Some(res) => res.var(*v).name.clone(),
                None => format!("v{}", v.0),
            },
            LocKind::Alloc(e, kind) => {
                let site = match kind {
                    AllocKind::SliceArray => "make",
                    AllocKind::MapBuckets => "makemap",
                    AllocKind::Object => match self.exprs.get(e).map(|x| &x.kind) {
                        Some(ExprKind::StructLit { .. }) => "structLit",
                        _ => "new",
                    },
                };
                format!("{site}@{e}")
            }
            LocKind::Content(ContentOrigin::SliceAppend(_)) => "appendGrow".to_string(),
            LocKind::Content(ContentOrigin::MapGrowth(_)) => "mapGrow".to_string(),
            LocKind::Content(ContentOrigin::CallResult(call, j)) => {
                if call.0 == u32::MAX {
                    return format!("ContentTag(${j})");
                }
                match self.exprs.get(call).map(|x| &x.kind) {
                    Some(ExprKind::Call { callee, .. }) => format!("ret{j}@{callee}"),
                    _ => format!("ret{j}@{call}"),
                }
            }
            LocKind::Temp(e) => format!("tmp@{e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heap_dummy_is_first_and_marked() {
        let g = EscapeGraph::new();
        assert_eq!(g.len(), 1);
        assert!(g.loc(HEAP_LOC).heap_alloc);
        assert!(g.loc(HEAP_LOC).exposes);
        assert_eq!(g.loc(HEAP_LOC).decl_depth, -1);
    }

    #[test]
    fn edges_index_incoming() {
        let mut g = EscapeGraph::new();
        let a = g.add_location(LocKind::Var(VarId(0)), 0, 1, true);
        let b = g.add_location(LocKind::Var(VarId(1)), 0, 1, true);
        g.add_edge(a, b, -1);
        g.add_edge(HEAP_LOC, b, 0);
        let incoming: Vec<_> = g.incoming(b).collect();
        assert_eq!(incoming.len(), 2);
        assert_eq!(incoming[0].src, a);
        assert_eq!(incoming[0].derefs, -1);
    }

    #[test]
    fn zero_weight_self_edges_dropped() {
        let mut g = EscapeGraph::new();
        let a = g.add_location(LocKind::Var(VarId(0)), 0, 1, true);
        g.add_edge(a, a, 0);
        assert!(g.edges().is_empty());
    }

    #[test]
    fn to_free_requires_all_three_conditions() {
        let mut g = EscapeGraph::new();
        let a = g.add_location(LocKind::Var(VarId(0)), 0, 1, true);
        assert!(!g.loc(a).to_free(), "needs PointsToHeap");
        g.loc_mut(a).points_to_heap = true;
        assert!(g.loc(a).to_free());
        g.loc_mut(a).incomplete = true;
        assert!(!g.loc(a).to_free());
        g.loc_mut(a).incomplete = false;
        g.loc_mut(a).outlived = true;
        assert!(!g.loc(a).to_free());
        g.loc_mut(a).outlived = false;
        g.loc_mut(a).pinned = true;
        assert!(!g.loc(a).to_free());
    }

    #[test]
    fn dump_contains_names_and_edges() {
        let src = "func f() { alpha := 1\n p := &alpha\n print(*p) }\n";
        let (program, res, _) = minigo_syntax::frontend(src).unwrap();
        let mut g = EscapeGraph::new();
        let a = g.add_location(LocKind::Var(res.vars_of(FuncId(0))[0]), 0, 1, true);
        g.add_edge(a, HEAP_LOC, 0);
        let d = g.dump(&Labels::new(&program, &res, FuncId(0)));
        assert!(d.contains("L0 heapLoc"), "{d}");
        assert!(d.contains("L1 alpha"), "{d}");
        assert!(d.contains("-0-> L0"));
        assert!(g.dump(&Labels::bare()).contains("L1 v"));
    }

    #[test]
    fn outgoing_mirrors_incoming() {
        let mut g = EscapeGraph::new();
        let a = g.add_location(LocKind::Var(VarId(0)), 0, 1, true);
        let b = g.add_location(LocKind::Var(VarId(1)), 0, 1, true);
        g.add_edge(a, b, -1);
        g.add_edge(a, HEAP_LOC, 0);
        let out: Vec<_> = g.outgoing(a).map(|e| e.dst).collect();
        assert_eq!(out, vec![b, HEAP_LOC]);
        assert_eq!(g.outgoing(b).count(), 0);
    }
}
