//! Call graph construction and bottom-up ordering.
//!
//! Go orders intra-procedural analysis inner-to-outer so that call sites
//! find known parameter tags (§4.4). We compute strongly connected
//! components (Tarjan) and process them in reverse topological order;
//! functions inside a non-trivial SCC (mutual recursion) and self-recursive
//! functions fall back to the default tag for their in-SCC calls.

use minigo_syntax::fxhash::FxHashMap;
use minigo_syntax::{Block, Expr, ExprKind, FuncId, IdMap, Program, Stmt, StmtKind};

/// The program's direct-call graph.
#[derive(Debug, Clone, Default)]
pub struct CallGraph {
    /// callees[f] = functions f calls (deduplicated).
    callees: IdMap<FuncId, Vec<FuncId>>,
    /// Bottom-up processing order: callees before callers.
    order: Vec<FuncId>,
    /// SCC index per function; functions in the same SCC are mutually
    /// recursive.
    scc: IdMap<FuncId, usize>,
    /// SCC sizes (for recursion detection).
    scc_size: Vec<usize>,
    /// Self-recursive functions (call themselves directly).
    self_recursive: IdMap<FuncId, bool>,
}

impl CallGraph {
    /// Builds the call graph for `program`.
    pub fn build(program: &Program) -> Self {
        let by_name: FxHashMap<&str, FuncId> = program
            .funcs
            .iter()
            .map(|f| (f.name.as_str(), f.id))
            .collect();
        let mut cg = CallGraph::default();
        for func in &program.funcs {
            let mut calls = Vec::new();
            collect_block(&func.body, &mut |name| {
                if let Some(&fid) = by_name.get(name) {
                    calls.push(fid);
                }
            });
            let mut selfrec = false;
            calls.retain(|&c| {
                if c == func.id {
                    selfrec = true;
                }
                true
            });
            calls.sort();
            calls.dedup();
            cg.self_recursive.insert(func.id, selfrec);
            cg.callees.insert(func.id, calls);
        }
        cg.compute_sccs(program);
        cg
    }

    /// Functions in bottom-up order (callees first).
    pub fn bottom_up(&self) -> &[FuncId] {
        &self.order
    }

    /// The functions `f` calls directly.
    pub fn callees_of(&self, f: FuncId) -> &[FuncId] {
        self.callees.get(f).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Whether `caller` and `callee` are mutually recursive (same SCC) or
    /// the call is a direct self-call — either way the callee's tag is not
    /// available when the caller is analyzed.
    pub fn call_unresolvable(&self, caller: FuncId, callee: FuncId) -> bool {
        if caller == callee {
            return true;
        }
        match (self.scc.get(caller), self.scc.get(callee)) {
            (Some(a), Some(b)) => a == b,
            _ => true,
        }
    }

    /// Whether `f` participates in recursion at all.
    pub fn is_recursive(&self, f: FuncId) -> bool {
        self.self_recursive.get(f).copied().unwrap_or(false)
            || self
                .scc
                .get(f)
                .map(|&s| self.scc_size[s] > 1)
                .unwrap_or(false)
    }

    fn compute_sccs(&mut self, program: &Program) {
        // Iterative Tarjan to avoid deep recursion on generated programs.
        #[derive(Clone)]
        struct NodeState {
            index: Option<u32>,
            lowlink: u32,
            on_stack: bool,
        }
        let n = program.funcs.len();
        let mut state = vec![
            NodeState {
                index: None,
                lowlink: 0,
                on_stack: false,
            };
            n
        ];
        let mut stack: Vec<usize> = Vec::new();
        let mut next_index = 0u32;
        let mut scc_of = vec![usize::MAX; n];
        let mut scc_count = 0usize;
        let mut scc_sizes: Vec<usize> = Vec::new();
        // Components are discovered callee-first, which is exactly the
        // bottom-up order we want.
        let mut order: Vec<FuncId> = Vec::new();

        for start in 0..n {
            if state[start].index.is_some() {
                continue;
            }
            // Explicit DFS stack: (node, next-callee-cursor).
            let mut dfs: Vec<(usize, usize)> = vec![(start, 0)];
            while let Some(&(v, cursor)) = dfs.last() {
                if cursor == 0 {
                    state[v].index = Some(next_index);
                    state[v].lowlink = next_index;
                    next_index += 1;
                    stack.push(v);
                    state[v].on_stack = true;
                }
                let callees = self.callees_of(program.funcs[v].id);
                if cursor < callees.len() {
                    dfs.last_mut().expect("nonempty").1 += 1;
                    let w = callees[cursor].index();
                    if state[w].index.is_none() {
                        dfs.push((w, 0));
                    } else if state[w].on_stack {
                        state[v].lowlink = state[v].lowlink.min(state[w].index.expect("indexed"));
                    }
                    continue;
                }
                // v finished.
                dfs.pop();
                if let Some(&(parent, _)) = dfs.last() {
                    let vl = state[v].lowlink;
                    state[parent].lowlink = state[parent].lowlink.min(vl);
                }
                if Some(state[v].lowlink) == state[v].index {
                    let mut size = 0;
                    loop {
                        let w = stack.pop().expect("scc stack nonempty");
                        state[w].on_stack = false;
                        scc_of[w] = scc_count;
                        size += 1;
                        order.push(program.funcs[w].id);
                        if w == v {
                            break;
                        }
                    }
                    scc_sizes.push(size);
                    scc_count += 1;
                }
            }
        }
        for (i, &s) in scc_of.iter().enumerate() {
            self.scc.insert(program.funcs[i].id, s);
        }
        self.scc_size = scc_sizes;
        self.order = order;
    }
}

fn collect_block(block: &Block, f: &mut impl FnMut(&str)) {
    for stmt in &block.stmts {
        collect_stmt(stmt, f);
    }
}

fn collect_stmt(stmt: &Stmt, f: &mut impl FnMut(&str)) {
    match &stmt.kind {
        StmtKind::VarDecl { init, .. } => init.iter().for_each(|e| collect_expr(e, f)),
        StmtKind::ShortDecl { init, .. } => init.iter().for_each(|e| collect_expr(e, f)),
        StmtKind::Assign { lhs, rhs, .. } => {
            lhs.iter().for_each(|e| collect_expr(e, f));
            rhs.iter().for_each(|e| collect_expr(e, f));
        }
        StmtKind::If { cond, then, els } => {
            collect_expr(cond, f);
            collect_block(then, f);
            if let Some(els) = els {
                collect_stmt(els, f);
            }
        }
        StmtKind::For {
            init,
            cond,
            post,
            body,
        } => {
            if let Some(init) = init {
                collect_stmt(init, f);
            }
            if let Some(cond) = cond {
                collect_expr(cond, f);
            }
            if let Some(post) = post {
                collect_stmt(post, f);
            }
            collect_block(body, f);
        }
        StmtKind::Return { exprs } => exprs.iter().for_each(|e| collect_expr(e, f)),
        StmtKind::Expr { expr } => collect_expr(expr, f),
        StmtKind::BlockStmt { block } => collect_block(block, f),
        StmtKind::Defer { call } => collect_expr(call, f),
        StmtKind::Switch {
            subject,
            cases,
            default,
        } => {
            collect_expr(subject, f);
            for case in cases {
                case.values.iter().for_each(|v| collect_expr(v, f));
                collect_block(&case.body, f);
            }
            if let Some(default) = default {
                collect_block(default, f);
            }
        }
        StmtKind::Break | StmtKind::Continue => {}
        StmtKind::Free { target, .. } => collect_expr(target, f),
    }
}

fn collect_expr(expr: &Expr, f: &mut impl FnMut(&str)) {
    match &expr.kind {
        ExprKind::Call { callee, args } => {
            f(callee);
            args.iter().for_each(|a| collect_expr(a, f));
        }
        ExprKind::Unary { operand, .. } => collect_expr(operand, f),
        ExprKind::Binary { lhs, rhs, .. } => {
            collect_expr(lhs, f);
            collect_expr(rhs, f);
        }
        ExprKind::Field { base, .. } => collect_expr(base, f),
        ExprKind::Index { base, index } => {
            collect_expr(base, f);
            collect_expr(index, f);
        }
        ExprKind::SliceExpr { base, lo, hi } => {
            collect_expr(base, f);
            for bound in [lo, hi].into_iter().flatten() {
                collect_expr(bound, f);
            }
        }
        ExprKind::Builtin { args, .. } => args.iter().for_each(|a| collect_expr(a, f)),
        ExprKind::StructLit { fields, .. } => fields.iter().for_each(|e| collect_expr(e, f)),
        ExprKind::IntLit(_)
        | ExprKind::BoolLit(_)
        | ExprKind::StrLit(_)
        | ExprKind::Nil
        | ExprKind::Ident(_) => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minigo_syntax::parse;

    fn order_names(src: &str) -> Vec<String> {
        let p = parse(src).unwrap();
        let cg = CallGraph::build(&p);
        cg.bottom_up()
            .iter()
            .map(|&f| p.funcs[f.index()].name.clone())
            .collect()
    }

    #[test]
    fn bottom_up_puts_callees_first() {
        let order = order_names("func a() { b()\n c() }\nfunc b() { c() }\nfunc c() {}\n");
        let pos = |n: &str| order.iter().position(|x| x == n).unwrap();
        assert!(pos("c") < pos("b"));
        assert!(pos("b") < pos("a"));
    }

    #[test]
    fn detects_self_recursion() {
        let p = parse("func f(n int) int { if n < 1 { return 0 }\n return f(n-1) }\n").unwrap();
        let cg = CallGraph::build(&p);
        let f = p.funcs[0].id;
        assert!(cg.is_recursive(f));
        assert!(cg.call_unresolvable(f, f));
    }

    #[test]
    fn detects_mutual_recursion() {
        let p = parse(
            "func even(n int) bool { if n == 0 { return true }\n return odd(n-1) }\nfunc odd(n int) bool { if n == 0 { return false }\n return even(n-1) }\nfunc top() bool { return even(4) }\n",
        )
        .unwrap();
        let cg = CallGraph::build(&p);
        let even = p.funcs[0].id;
        let odd = p.funcs[1].id;
        let top = p.funcs[2].id;
        assert!(cg.is_recursive(even));
        assert!(cg.is_recursive(odd));
        assert!(!cg.is_recursive(top));
        assert!(cg.call_unresolvable(even, odd));
        assert!(!cg.call_unresolvable(top, even));
    }

    #[test]
    fn calls_found_in_all_positions() {
        let p = parse(
            "func g() int { return 1 }\nfunc f(n int) { if g() > 0 { }\n for i := g(); i < g(); i += g() { }\n defer print(g())\n s := make([]int, g())\n s[g()-1] = g() }\n",
        )
        .unwrap();
        let cg = CallGraph::build(&p);
        assert_eq!(cg.callees_of(p.funcs[1].id), &[p.funcs[0].id]);
    }

    #[test]
    fn order_covers_all_functions() {
        let order = order_names("func a() {}\nfunc b() { a() }\nfunc c() {}\n");
        assert_eq!(order.len(), 3);
    }
}
