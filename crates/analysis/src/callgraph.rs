//! Call graph construction and bottom-up ordering.
//!
//! Go orders intra-procedural analysis inner-to-outer so that call sites
//! find known parameter tags (§4.4). We compute strongly connected
//! components (Tarjan) and process them in reverse topological order;
//! functions inside a non-trivial SCC (mutual recursion) and self-recursive
//! functions fall back to the default tag for their in-SCC calls.

use minigo_syntax::fxhash::FxHashMap;
use minigo_syntax::visit::{self, Walk};
use minigo_syntax::{ExprKind, FuncId, IdMap, Program};

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
            visit::exprs(&func.body, |e| {
                if let ExprKind::Call { callee, .. } = &e.kind {
                    calls.extend(by_name.get(callee.as_str()));
                }
                Walk::Descend
            });
            let selfrec = calls.contains(&func.id);
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
