//! `minigo_syntax::visit`, the one AST traversal, against a reference
//! recursion written out here: same nodes, same source pre-order, and a
//! renumbering through the `&mut` walk that gives the inliner's ids.

use minigo_escape::inline_program;
use minigo_syntax::visit::{self, Node, Visitor, VisitorMut, Walk};
use minigo_syntax::{parse, Block, Expr, ExprKind, Program, Stmt, StmtKind};

use gofree_workloads::{corpus, fuzzgen};

/// Every id in source pre-order, tagged `b`/`s`/`e`: the order the
/// passes built on `visit` rely on.
fn reference_block(b: &Block, out: &mut Vec<(char, u32)>) {
    out.push(('b', b.id.0));
    for s in &b.stmts {
        reference_stmt(s, out);
    }
}

fn reference_stmt(s: &Stmt, out: &mut Vec<(char, u32)>) {
    out.push(('s', s.id.0));
    match &s.kind {
        StmtKind::VarDecl { init, .. } | StmtKind::ShortDecl { init, .. } => {
            init.iter().for_each(|e| reference_expr(e, out))
        }
        StmtKind::Assign { lhs, rhs, .. } => {
            lhs.iter().for_each(|e| reference_expr(e, out));
            rhs.iter().for_each(|e| reference_expr(e, out));
        }
        StmtKind::If { cond, then, els } => {
            reference_expr(cond, out);
            reference_block(then, out);
            if let Some(e) = els {
                reference_stmt(e, out);
            }
        }
        StmtKind::For {
            init,
            cond,
            post,
            body,
        } => {
            if let Some(i) = init {
                reference_stmt(i, out);
            }
            if let Some(c) = cond {
                reference_expr(c, out);
            }
            if let Some(p) = post {
                reference_stmt(p, out);
            }
            reference_block(body, out);
        }
        StmtKind::Return { exprs } => exprs.iter().for_each(|e| reference_expr(e, out)),
        StmtKind::Expr { expr } => reference_expr(expr, out),
        StmtKind::BlockStmt { block } => reference_block(block, out),
        StmtKind::Defer { call } => reference_expr(call, out),
        StmtKind::Switch {
            subject,
            cases,
            default,
        } => {
            reference_expr(subject, out);
            for c in cases {
                c.values.iter().for_each(|e| reference_expr(e, out));
                reference_block(&c.body, out);
            }
            if let Some(d) = default {
                reference_block(d, out);
            }
        }
        StmtKind::Break | StmtKind::Continue => {}
        StmtKind::Free { target, .. } => reference_expr(target, out),
    }
}

fn reference_expr(e: &Expr, out: &mut Vec<(char, u32)>) {
    out.push(('e', e.id.0));
    match &e.kind {
        ExprKind::Unary { operand, .. } => reference_expr(operand, out),
        ExprKind::Binary { lhs, rhs, .. } => {
            reference_expr(lhs, out);
            reference_expr(rhs, out);
        }
        ExprKind::Field { base, .. } => reference_expr(base, out),
        ExprKind::Index { base, index } => {
            reference_expr(base, out);
            reference_expr(index, out);
        }
        ExprKind::SliceExpr { base, lo, hi } => {
            reference_expr(base, out);
            for b in [lo, hi].into_iter().flatten() {
                reference_expr(b, out);
            }
        }
        ExprKind::Call { args, .. } | ExprKind::Builtin { args, .. } => {
            args.iter().for_each(|a| reference_expr(a, out))
        }
        ExprKind::StructLit { fields, .. } => fields.iter().for_each(|f| reference_expr(f, out)),
        ExprKind::IntLit(_)
        | ExprKind::BoolLit(_)
        | ExprKind::StrLit(_)
        | ExprKind::Nil
        | ExprKind::Ident(_) => {}
    }
}

fn reference(p: &Program) -> Vec<(char, u32)> {
    let mut out = Vec::new();
    for f in &p.funcs {
        reference_block(&f.body, &mut out);
    }
    out
}

/// Records every node the read-only walk visits.
struct Record(Vec<(char, u32)>);

impl<'a> Visitor<'a> for Record {
    fn block(&mut self, b: &'a Block) -> Walk {
        self.0.push(('b', b.id.0));
        Walk::Descend
    }
    fn stmt(&mut self, s: &'a Stmt) -> Walk {
        self.0.push(('s', s.id.0));
        Walk::Descend
    }
    fn expr(&mut self, e: &'a Expr) -> Walk {
        self.0.push(('e', e.id.0));
        Walk::Descend
    }
}

fn programs() -> Vec<(String, Program)> {
    let mut out = vec![
        ("corpus 200".to_string(), corpus::generate(200)),
        ("corpus 13".to_string(), corpus::generate(13)),
    ];
    out.extend((0..50).map(|seed| (format!("fuzz {seed}"), fuzzgen::generate(seed))));
    out.into_iter()
        .map(|(label, src)| {
            let p = parse(&src).unwrap_or_else(|e| panic!("{label}: {}", e.render(&src)));
            (label, p)
        })
        .collect()
}

#[test]
fn walk_visits_every_node_once_in_reference_order() {
    for (label, p) in programs() {
        let want = reference(&p);
        let mut got = Record(Vec::new());
        for f in &p.funcs {
            assert!(f.body.walk(&mut got).is_continue());
        }
        assert_eq!(got.0, want, "{label}");
        // Each expression id exactly once. Ids are dense but not gapless:
        // the parser reads `x := …`'s targets as expressions, then keeps
        // only their names.
        let mut exprs: Vec<u32> = Vec::new();
        for f in &p.funcs {
            visit::exprs(&f.body, |e| {
                exprs.push(e.id.0);
                Walk::Descend
            });
        }
        let in_order: Vec<u32> = want
            .iter()
            .filter(|(k, _)| *k == 'e')
            .map(|(_, id)| *id)
            .collect();
        assert_eq!(exprs, in_order, "{label}");
        let n = exprs.len();
        exprs.sort_unstable();
        exprs.dedup();
        assert_eq!(exprs.len(), n, "{label}: an expression visited twice");
        assert!(exprs.last() < Some(&p.expr_count), "{label}");
    }
}

#[test]
fn stopping_visits_nothing_after_the_stop() {
    for (label, p) in programs().into_iter().take(6) {
        let body = &p.funcs.last().expect("a function").body;
        let mut all = Record(Vec::new());
        let _ = body.walk(&mut all);
        for cut in [1, all.0.len() / 3, all.0.len() / 2, all.0.len()] {
            let cut = cut.max(1);
            let mut seen = Vec::new();
            let stopped = body
                .walk(&mut StopAfter {
                    left: cut,
                    seen: &mut seen,
                })
                .is_break();
            assert!(stopped, "{label}: cut {cut}");
            assert_eq!(seen, all.0[..cut], "{label}: cut {cut}");
        }
    }
}

struct StopAfter<'v> {
    left: usize,
    seen: &'v mut Vec<(char, u32)>,
}

impl StopAfter<'_> {
    fn note(&mut self, node: (char, u32)) -> Walk {
        self.seen.push(node);
        self.left -= 1;
        if self.left == 0 {
            Walk::Stop
        } else {
            Walk::Descend
        }
    }
}

impl<'a> Visitor<'a> for StopAfter<'_> {
    fn block(&mut self, b: &'a Block) -> Walk {
        self.note(('b', b.id.0))
    }
    fn stmt(&mut self, s: &'a Stmt) -> Walk {
        self.note(('s', s.id.0))
    }
    fn expr(&mut self, e: &'a Expr) -> Walk {
        self.note(('e', e.id.0))
    }
}

/// The inlining experiment's factory-heavy workload.
const FACTORY: &str = r#"
func mkBuf() []int {
    b := make([]int, 24)
    b[0] = 1
    return b
}

func mkBig(n int) []int {
    b := make([]int, n)
    b[0] = 2
    return b
}

func main() {
    total := 0
    for i := 0; i < 800; i += 1 {
        small := mkBuf()
        big := mkBig(100 + i%50)
        total += small[0] + big[0]
    }
    print(total)
}
"#;

/// FNV-1a over the tagged id sequence.
fn fingerprint(ids: &[(char, u32)]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for (k, id) in ids {
        for b in (*k as u32)
            .to_le_bytes()
            .into_iter()
            .chain(id.to_le_bytes())
        {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Fresh ids in walk order, the way the inliner numbers a copied body.
struct Renumber {
    next: [u32; 3],
}

impl VisitorMut for Renumber {
    fn block(&mut self, b: &mut Block) -> Walk {
        b.id.0 = self.next[0];
        self.next[0] += 1;
        Walk::Descend
    }
    fn stmt(&mut self, s: &mut Stmt) -> Walk {
        s.id.0 = self.next[1];
        self.next[1] += 1;
        Walk::Descend
    }
    fn expr(&mut self, e: &mut Expr) -> Walk {
        e.id.0 = self.next[2];
        self.next[2] += 1;
        Walk::Descend
    }
}

#[test]
fn renumbering_through_the_mut_walk_matches_the_inliner() {
    let p = parse(FACTORY).unwrap();
    let (inlined, stats) = inline_program(&p);
    assert_eq!(stats.inlined_calls, 2);
    // The ids the inliner hands out, pinned: renumbering through the
    // traversal must not move them.
    assert_eq!(fingerprint(&reference(&inlined)), 0xf03c_3700_77ea_d7cf);

    // A pre-order renumbering of a copied body through the `&mut` walk
    // assigns each id where the reference recursion visits it.
    let mut copy = p.clone();
    let mut walk = Renumber {
        next: [100, 200, 300],
    };
    for f in &mut copy.funcs {
        assert!(f.body.walk_mut(&mut walk).is_continue());
    }
    let (mut b, mut s, mut e) = (100, 200, 300);
    let want: Vec<(char, u32)> = reference(&p)
        .into_iter()
        .map(|(k, _)| {
            let n = match k {
                'b' => &mut b,
                's' => &mut s,
                _ => &mut e,
            };
            *n += 1;
            (k, *n - 1)
        })
        .collect();
    assert_eq!(reference(&copy), want);
}
