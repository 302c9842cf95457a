//! The escape graph's grouped adjacency against the per-location edge
//! lists it replaced, kept here as the model: each location's incoming
//! and outgoing edges, appended as edges are added. On the graphs the
//! analysis builds for the generated corpus and fuzzer programs, and on
//! random graphs whose queries interleave with additions, every
//! location must yield the model's edges in the model's order, in both
//! directions.

use minigo_escape::{analyze, AnalyzeOptions, Edge, EscapeGraph, LocId, LocKind, Mode};
use minigo_syntax::VarId;

use gofree_workloads::{corpus, fuzzgen};

/// The removed representation: one edge list per location and
/// direction, each in the order its edges were added.
#[derive(Default)]
struct Lists {
    incoming: Vec<Vec<Edge>>,
    outgoing: Vec<Vec<Edge>>,
}

impl Lists {
    fn of(g: &EscapeGraph) -> Self {
        let mut lists = Lists::default();
        for _ in g.ids() {
            lists.add_location();
        }
        for &e in g.edges() {
            lists.add_edge(e);
        }
        lists
    }

    fn add_location(&mut self) {
        self.incoming.push(Vec::new());
        self.outgoing.push(Vec::new());
    }

    fn add_edge(&mut self, e: Edge) {
        self.incoming[e.dst.index()].push(e);
        self.outgoing[e.src.index()].push(e);
    }
}

fn assert_matches(g: &EscapeGraph, model: &Lists, what: &str) {
    assert_eq!(g.len(), model.incoming.len(), "{what}: location count");
    for l in g.ids() {
        let incoming: Vec<Edge> = g.incoming(l).collect();
        assert_eq!(incoming, model.incoming[l.index()], "{what}: incoming({l})");
        let outgoing: Vec<Edge> = g.outgoing(l).collect();
        assert_eq!(outgoing, model.outgoing[l.index()], "{what}: outgoing({l})");
    }
}

#[test]
fn program_graphs_match_the_per_location_lists() {
    let mut sources = vec![("corpus200".to_string(), corpus::generate(200))];
    sources.extend((1..=16).map(|s| (format!("fuzz{s}"), fuzzgen::generate(s))));
    let (mut graphs, mut edges) = (0, 0);
    for (name, src) in &sources {
        let (program, res, types) =
            minigo_syntax::frontend(src).expect("generated programs compile");
        for mode in [Mode::Go, Mode::GoFree] {
            let opts = AnalyzeOptions {
                mode,
                ..AnalyzeOptions::default()
            };
            let analysis = analyze(&program, &res, &types, &opts);
            for (fid, fg) in analysis.funcs.iter() {
                assert_matches(
                    &fg.graph,
                    &Lists::of(&fg.graph),
                    &format!("{name} {mode:?} {fid:?}"),
                );
                graphs += 1;
                edges += fg.graph.edges().len();
            }
        }
    }
    assert!(
        graphs > 400 && edges > 5_000,
        "only {graphs} graphs, {edges} edges"
    );
}

/// xorshift64*: the test's own deterministic draw.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Random graphs grown one location or edge at a time, with queries
/// between the additions: an edge or a location added after a query is
/// seen by the next one.
#[test]
fn random_graphs_match_the_per_location_lists() {
    for seed in 1..=200u64 {
        let mut rng = Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
        let mut g = EscapeGraph::new();
        let mut model = Lists::default();
        model.add_location();
        let steps = 1 + rng.below(300);
        for step in 0..steps {
            match rng.below(10) {
                0..=2 => {
                    g.add_location(LocKind::Var(VarId(step as u32)), 0, 1, true);
                    model.add_location();
                }
                3..=8 => {
                    let src = LocId(rng.below(g.len()) as u32);
                    // Self edges are drawn often, so the dropped
                    // zero-weight ones are too.
                    let dst = if rng.below(8) == 0 {
                        src
                    } else {
                        LocId(rng.below(g.len()) as u32)
                    };
                    let derefs = rng.below(3) as i32 - 1;
                    g.add_edge(src, dst, derefs);
                    if src != dst || derefs != 0 {
                        model.add_edge(Edge { src, dst, derefs });
                    }
                }
                _ => {
                    let l = LocId(rng.below(g.len()) as u32);
                    assert!(g.incoming(l).eq(model.incoming[l.index()].iter().copied()));
                    assert!(g.outgoing(l).eq(model.outgoing[l.index()].iter().copied()));
                }
            }
        }
        assert_matches(&g, &model, &format!("seed {seed}"));
    }
}

#[test]
fn an_edge_added_after_a_query_is_seen() {
    let mut g = EscapeGraph::new();
    let a = g.add_location(LocKind::Var(VarId(0)), 0, 1, true);
    assert_eq!(g.incoming(a).count(), 0);
    g.add_edge(minigo_escape::HEAP_LOC, a, 0);
    assert_eq!(
        g.incoming(a).map(|e| e.src).collect::<Vec<_>>(),
        [minigo_escape::HEAP_LOC]
    );
    let b = g.add_location(LocKind::Var(VarId(1)), 0, 1, true);
    g.add_edge(a, b, -1);
    assert_eq!(g.outgoing(a).map(|e| e.dst).collect::<Vec<_>>(), [b]);
    assert_eq!(g.incoming(b).map(|e| e.derefs).collect::<Vec<_>>(), [-1]);
}
