//! Connection-graph escape analysis — the O(N³) baseline of §2.1.2 and
//! table 3.
//!
//! Unlike Go's escape graph, the connection graph tracks indirect stores:
//! `*p = q` propagates `pts(q)` into the contents of every object `p` may
//! point to, discovering flows the cheaper analyses miss. This is a
//! field-insensitive, flow-insensitive Andersen-style inclusion analysis
//! iterated to a fixpoint; a single statement can generate O(N) set
//! inclusions, giving the cubic bound the paper cites.

use std::collections::BTreeSet;

use minigo_syntax::fxhash::FxHashMap;
use minigo_syntax::{
    Block, Builtin, Expr, ExprId, ExprKind, Func, Program, Resolution, Stmt, StmtKind, TypeInfo,
    UnOp, VarId,
};

/// A node in the connection graph: a variable's storage or an allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Node {
    /// A variable.
    Var(VarId),
    /// An allocation site.
    Alloc(ExprId),
    /// The unknown outside world (call boundaries).
    Unknown,
}

/// Inclusion constraints gathered from the AST.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Constraint {
    /// `dst ⊇ {obj}` — address-of.
    Base { dst: Node, obj: Node },
    /// `dst ⊇ src` — copy.
    Copy { dst: Node, src: Node },
    /// `dst ⊇ pts(o) for o ∈ pts(src)` — load `dst = *src`.
    Load { dst: Node, src: Node },
    /// `pts(o) ⊇ src for o ∈ pts(dst)` — store `*dst = src`.
    Store { dst: Node, src: Node },
}

/// Result of the connection-graph analysis on one function.
#[derive(Debug, Clone)]
pub struct ConnResult {
    pts: FxHashMap<Node, BTreeSet<Node>>,
    /// Number of fixpoint iterations (complexity experiments read this).
    pub iterations: usize,
}

impl ConnResult {
    /// The points-to set of a variable.
    pub fn points_to(&self, v: VarId) -> BTreeSet<Node> {
        self.pts.get(&Node::Var(v)).cloned().unwrap_or_default()
    }

    /// Whether `v` may point to the unknown outside world.
    pub fn may_point_unknown(&self, v: VarId) -> bool {
        self.points_to(v).contains(&Node::Unknown)
    }
}

/// Runs the connection-graph analysis on `func`.
pub fn analyze_func(
    _program: &Program,
    res: &Resolution,
    _types: &TypeInfo,
    func: &Func,
) -> ConnResult {
    let mut c = Collector {
        res,
        constraints: Vec::new(),
        next_temp: 0,
    };
    // Parameters may point anywhere the caller chose.
    for &p in res.params_of(func.id) {
        c.constraints.push(Constraint::Base {
            dst: Node::Var(p),
            obj: Node::Unknown,
        });
    }
    c.block(&func.body);
    // Returned values flow to the unknown world.
    // (Collected during the walk via Store into Unknown.)

    let mut pts: FxHashMap<Node, BTreeSet<Node>> = FxHashMap::default();
    // Unknown points to unknown: loads through it stay unknown.
    pts.entry(Node::Unknown).or_default().insert(Node::Unknown);

    let mut iterations = 0;
    loop {
        iterations += 1;
        let mut changed = false;
        for con in &c.constraints {
            match con {
                Constraint::Base { dst, obj } => {
                    changed |= pts.entry(*dst).or_default().insert(*obj);
                }
                Constraint::Copy { dst, src } => {
                    let add: Vec<Node> = pts
                        .get(src)
                        .map(|s| s.iter().copied().collect())
                        .unwrap_or_default();
                    let d = pts.entry(*dst).or_default();
                    for n in add {
                        changed |= d.insert(n);
                    }
                }
                Constraint::Load { dst, src } => {
                    let objs: Vec<Node> = pts
                        .get(src)
                        .map(|s| s.iter().copied().collect())
                        .unwrap_or_default();
                    for o in objs {
                        let add: Vec<Node> = pts
                            .get(&o)
                            .map(|s| s.iter().copied().collect())
                            .unwrap_or_default();
                        let d = pts.entry(*dst).or_default();
                        for n in add {
                            changed |= d.insert(n);
                        }
                    }
                }
                Constraint::Store { dst, src } => {
                    let objs: Vec<Node> = pts
                        .get(dst)
                        .map(|s| s.iter().copied().collect())
                        .unwrap_or_default();
                    let add: Vec<Node> = pts
                        .get(src)
                        .map(|s| s.iter().copied().collect())
                        .unwrap_or_default();
                    for o in objs {
                        let d = pts.entry(o).or_default();
                        for n in &add {
                            changed |= d.insert(*n);
                        }
                    }
                }
            }
        }
        if !changed {
            break;
        }
        assert!(iterations < 10_000, "connection graph failed to converge");
    }
    ConnResult { pts, iterations }
}

struct Collector<'a> {
    res: &'a Resolution,
    constraints: Vec<Constraint>,
    next_temp: u32,
}

impl<'a> Collector<'a> {
    fn temp(&mut self) -> Node {
        self.next_temp += 1;
        // Temps live in ExprId space far above real ids.
        Node::Alloc(ExprId(u32::MAX - self.next_temp))
    }

    fn block(&mut self, block: &Block) {
        for stmt in &block.stmts {
            self.stmt(stmt);
        }
    }

    fn stmt(&mut self, stmt: &Stmt) {
        match &stmt.kind {
            StmtKind::VarDecl { names, init, .. } | StmtKind::ShortDecl { names, init } => {
                for (i, _) in names.iter().enumerate() {
                    let Some(v) = self.res.decl_of(stmt.id, i) else {
                        continue;
                    };
                    if init.len() == names.len() {
                        let node = self.eval(&init[i]);
                        self.constraints.push(Constraint::Copy {
                            dst: Node::Var(v),
                            src: node,
                        });
                    } else if !init.is_empty() {
                        // Multi-value call: unknown.
                        self.constraints.push(Constraint::Base {
                            dst: Node::Var(v),
                            obj: Node::Unknown,
                        });
                    }
                }
            }
            StmtKind::Assign { lhs, op, rhs } => {
                if op.is_some() {
                    return;
                }
                if rhs.len() == 1 && lhs.len() > 1 {
                    for l in lhs {
                        self.store_into(l, Node::Unknown);
                    }
                    return;
                }
                for (l, r) in lhs.iter().zip(rhs) {
                    let src = self.eval(r);
                    self.store_into(l, src);
                }
            }
            StmtKind::If { then, els, .. } => {
                self.block(then);
                if let Some(els) = els {
                    self.stmt(els);
                }
            }
            StmtKind::For {
                init, post, body, ..
            } => {
                if let Some(init) = init {
                    self.stmt(init);
                }
                if let Some(post) = post {
                    self.stmt(post);
                }
                self.block(body);
            }
            StmtKind::Return { exprs } => {
                for e in exprs {
                    let n = self.eval(e);
                    self.constraints.push(Constraint::Store {
                        dst: Node::Unknown,
                        src: n,
                    });
                    // The value itself reaches the caller.
                    self.constraints.push(Constraint::Copy {
                        dst: Node::Unknown,
                        src: n,
                    });
                }
            }
            StmtKind::Expr { expr } => {
                self.eval(expr);
            }
            StmtKind::BlockStmt { block } => self.block(block),
            StmtKind::Defer { call } => {
                self.eval(call);
            }
            StmtKind::Switch {
                subject,
                cases,
                default,
            } => {
                self.eval(subject);
                for case in cases {
                    self.block(&case.body);
                }
                if let Some(default) = default {
                    self.block(default);
                }
            }
            StmtKind::Break | StmtKind::Continue | StmtKind::Free { .. } => {}
        }
    }

    /// Assignment into an lvalue.
    fn store_into(&mut self, lv: &Expr, src: Node) {
        match &lv.kind {
            ExprKind::Ident(_) => {
                if let Some(v) = self.res.def_of(lv.id) {
                    self.constraints.push(Constraint::Copy {
                        dst: Node::Var(v),
                        src,
                    });
                }
            }
            ExprKind::Unary {
                op: UnOp::Deref,
                operand,
            } => {
                let p = self.eval(operand);
                let t = self.temp();
                self.constraints.push(Constraint::Copy { dst: t, src });
                self.constraints.push(Constraint::Store { dst: p, src: t });
            }
            ExprKind::Field { base, .. } | ExprKind::Index { base, .. } => {
                // Field-insensitive: storing into x.f stores into x; storing
                // into p.f / s[i] stores through the pointer.
                let b = self.eval_address_or_value(base);
                let t = self.temp();
                self.constraints.push(Constraint::Copy { dst: t, src });
                self.constraints.push(Constraint::Store { dst: b, src: t });
            }
            _ => {}
        }
    }

    /// For store bases: a variable acts as a pointer to itself when it is a
    /// struct value (field-insensitivity) and as a plain pointer otherwise.
    fn eval_address_or_value(&mut self, e: &Expr) -> Node {
        match &e.kind {
            ExprKind::Ident(_) => {
                if let Some(v) = self.res.def_of(e.id) {
                    let t = self.temp();
                    // t points at v's storage and holds v's value.
                    self.constraints.push(Constraint::Base {
                        dst: t,
                        obj: Node::Var(v),
                    });
                    self.constraints.push(Constraint::Copy {
                        dst: t,
                        src: Node::Var(v),
                    });
                    t
                } else {
                    Node::Unknown
                }
            }
            _ => self.eval(e),
        }
    }

    /// Evaluates an expression to a node holding its value.
    fn eval(&mut self, e: &Expr) -> Node {
        match &e.kind {
            ExprKind::Ident(_) => self
                .res
                .def_of(e.id)
                .map(Node::Var)
                .unwrap_or(Node::Unknown),
            ExprKind::IntLit(_) | ExprKind::BoolLit(_) | ExprKind::StrLit(_) | ExprKind::Nil => {
                self.temp()
            }
            ExprKind::Unary { op, operand } => match op {
                UnOp::Addr => {
                    let t = self.temp();
                    match &operand.kind {
                        ExprKind::Ident(_) => {
                            if let Some(v) = self.res.def_of(operand.id) {
                                self.constraints.push(Constraint::Base {
                                    dst: t,
                                    obj: Node::Var(v),
                                });
                            }
                        }
                        ExprKind::StructLit { fields, .. } => {
                            let obj = Node::Alloc(operand.id);
                            self.constraints.push(Constraint::Base { dst: t, obj });
                            for f in fields {
                                let fv = self.eval(f);
                                self.constraints
                                    .push(Constraint::Copy { dst: obj, src: fv });
                            }
                        }
                        ExprKind::Field { base, .. } | ExprKind::Index { base, .. } => {
                            // &x.f ≈ &x (field-insensitive); &s[i] ≈ s.
                            let b = self.eval_address_or_value(base);
                            self.constraints.push(Constraint::Copy { dst: t, src: b });
                        }
                        _ => {
                            let v = self.eval(operand);
                            self.constraints.push(Constraint::Copy { dst: t, src: v });
                        }
                    }
                    t
                }
                UnOp::Deref => {
                    let p = self.eval(operand);
                    let t = self.temp();
                    self.constraints.push(Constraint::Load { dst: t, src: p });
                    t
                }
                UnOp::Neg | UnOp::Not => self.temp(),
            },
            ExprKind::Binary { .. } => self.temp(),
            ExprKind::Field { base, .. } => {
                // Value field of a struct value: the struct's node
                // (field-insensitive); through a pointer: a load.
                match &base.kind {
                    ExprKind::Ident(_) => self.eval(base),
                    _ => {
                        let b = self.eval(base);
                        let t = self.temp();
                        self.constraints.push(Constraint::Load { dst: t, src: b });
                        t
                    }
                }
            }
            ExprKind::Index { base, .. } => {
                let b = self.eval(base);
                let t = self.temp();
                self.constraints.push(Constraint::Load { dst: t, src: b });
                t
            }
            ExprKind::SliceExpr { base, .. } => self.eval(base),
            ExprKind::Call { args, .. } => {
                for a in args {
                    let n = self.eval(a);
                    self.constraints.push(Constraint::Store {
                        dst: Node::Unknown,
                        src: n,
                    });
                    self.constraints.push(Constraint::Copy {
                        dst: Node::Unknown,
                        src: n,
                    });
                }
                Node::Unknown
            }
            ExprKind::Builtin { kind, args, .. } => match kind {
                Builtin::Make | Builtin::New => {
                    let t = self.temp();
                    self.constraints.push(Constraint::Base {
                        dst: t,
                        obj: Node::Alloc(e.id),
                    });
                    t
                }
                Builtin::Append => {
                    let s = self.eval(&args[0]);
                    let v = self.eval(&args[1]);
                    self.constraints.push(Constraint::Store { dst: s, src: v });
                    s
                }
                _ => {
                    for a in args {
                        self.eval(a);
                    }
                    self.temp()
                }
            },
            ExprKind::StructLit { fields, .. } => {
                let t = self.temp();
                for f in fields {
                    let fv = self.eval(f);
                    self.constraints.push(Constraint::Copy { dst: t, src: fv });
                }
                t
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minigo_syntax::frontend;

    fn run(src: &str) -> (Resolution, ConnResult) {
        let (p, r, t) = frontend(src).expect("frontend");
        let func = p.funcs.last().expect("has function").clone();
        let cr = analyze_func(&p, &r, &t, &func);
        (r, cr)
    }

    fn var_named(res: &Resolution, name: &str) -> VarId {
        VarId(
            res.vars()
                .iter()
                .position(|v| v.name == name)
                .unwrap_or_else(|| panic!("no var {name}")) as u32,
        )
    }

    /// Table 3's connection-graph column: PointsTo(pd2) = {c, d} — the
    /// indirect store *ppd = pc is tracked.
    #[test]
    fn tracks_indirect_stores_fig1() {
        let (r, cr) = run(
            "func f() { c := 1\n d := 2\n pc := &c\n pd := &d\n ppd := &pd\n *ppd = pc\n pd2 := *ppd\n pd2 = pd2 }\n",
        );
        let pts = cr.points_to(var_named(&r, "pd2"));
        let c = Node::Var(var_named(&r, "c"));
        let d = Node::Var(var_named(&r, "d"));
        assert!(pts.contains(&c), "connection graph finds c: {pts:?}");
        assert!(pts.contains(&d), "and d: {pts:?}");
    }

    #[test]
    fn simple_chain() {
        let (r, cr) = run("func f() { x := 1\n p := &x\n q := p\n q = q }\n");
        let pts = cr.points_to(var_named(&r, "q"));
        assert!(pts.contains(&Node::Var(var_named(&r, "x"))));
        assert!(!pts.contains(&Node::Unknown));
    }

    #[test]
    fn load_through_double_pointer() {
        let (r, cr) = run("func f() { x := 1\n p := &x\n pp := &p\n q := *pp\n q = q }\n");
        let pts = cr.points_to(var_named(&r, "q"));
        assert!(pts.contains(&Node::Var(var_named(&r, "x"))));
    }

    #[test]
    fn params_point_to_unknown() {
        let (r, cr) = run("func f(p *int) { q := p\n q = q }\n");
        assert!(cr.may_point_unknown(var_named(&r, "q")));
    }

    #[test]
    fn iterations_reported() {
        let (_, cr) = run("func f() { x := 1\n p := &x\n *p = 2 }\n");
        assert!(cr.iterations >= 1);
    }
}
