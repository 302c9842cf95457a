//! The free-safety auditor: an independent verification pass over the
//! *instrumented* AST.
//!
//! After GoFree's primary analysis (§4.1–§4.4) has decided where to
//! insert `tcfree`/`TcfreeSlice`/`TcfreeMap`, this module re-derives —
//! from scratch, SafeDrop-style, sharing no code or data with the
//! escape-graph fixpoint — a proof obligation for every inserted free
//! site:
//!
//! > no variable live after this statement may point into the freed
//! > object (or its backing store).
//!
//! The auditor runs its own forward may-point-to abstract interpretation
//! (alias sets per statement, field-keyed containment, loop fixpoints)
//! and its own backward liveness pass (see [`flow`]), plus a small
//! bottom-up callee-summary layer for the paper's §4.4/§4.6.3
//! cross-call ownership patterns. Each site gets an [`AuditVerdict`];
//! under [`AuditMode::Deny`] the pipeline strips every `Unproven` site
//! before execution ([`strip_unproven`]).
//!
//! The dynamic counterpart is the shadow-heap sanitizer in
//! `minigo-runtime` — `audit deny` (static) and `--sanitize` (dynamic)
//! cross-validate each other over the workload corpus and the fuzz
//! generator.

mod flow;

use minigo_syntax::fxhash::{FxHashMap, FxHashSet};
use minigo_syntax::{
    Block, Expr, ExprKind, FreeKind, Func, Program, Resolution, Span, Stmt, StmtId, StmtKind,
    TypeInfo,
};

use flow::{analyze_func, closure, summarize, AbsObj, FieldKey, FnSummary, FuncFlow, ObjSet};

/// How the pipeline reacts to the auditor's findings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AuditMode {
    /// Do not run the auditor.
    #[default]
    Off,
    /// Run it and report unproven sites, but execute the program as
    /// instrumented.
    Warn,
    /// Run it and strip every unproven free before execution, counting
    /// the suppressions in `Metrics::frees_suppressed`.
    Deny,
}

impl std::fmt::Display for AuditMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AuditMode::Off => write!(f, "off"),
            AuditMode::Warn => write!(f, "warn"),
            AuditMode::Deny => write!(f, "deny"),
        }
    }
}

impl std::str::FromStr for AuditMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "off" => Ok(AuditMode::Off),
            "warn" => Ok(AuditMode::Warn),
            "deny" => Ok(AuditMode::Deny),
            other => Err(format!(
                "unknown audit mode {other:?} (expected off, warn, or deny)"
            )),
        }
    }
}

/// The auditor's judgement on one free site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AuditVerdict {
    /// The proof obligation was discharged: no live variable can reach
    /// the freed storage, and the object cannot already be freed.
    Proved,
    /// Discharged except that the object may already have been freed on
    /// some path — with no intervening allocation, so the runtime's §5
    /// `AlreadyFree` bail tolerates the repeat free.
    ProvedDoubleFreeTolerated,
    /// The obligation could not be discharged; the reason names the
    /// failing conjunct (also reused by `minigo --explain`).
    Unproven(String),
}

impl AuditVerdict {
    /// Whether this verdict discharges the site's proof obligation.
    pub fn is_proved(&self) -> bool {
        !matches!(self, AuditVerdict::Unproven(_))
    }
}

impl std::fmt::Display for AuditVerdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AuditVerdict::Proved => write!(f, "proved"),
            AuditVerdict::ProvedDoubleFreeTolerated => {
                write!(f, "proved (tolerated double free)")
            }
            AuditVerdict::Unproven(reason) => write!(f, "UNPROVEN: {reason}"),
        }
    }
}

/// One audited `tcfree` site.
#[derive(Debug, Clone)]
pub struct AuditSite {
    /// The `Free` statement's id.
    pub stmt: StmtId,
    /// The enclosing function's name.
    pub func: String,
    /// The freed expression rendered as source (usually a variable name).
    pub target: String,
    /// Which `tcfree` family member the site calls.
    pub kind: FreeKind,
    /// The site's source span (synthetic for compiler-inserted frees).
    pub span: Span,
    /// The auditor's judgement.
    pub verdict: AuditVerdict,
}

/// The auditor's report over a whole program.
#[derive(Debug, Clone, Default)]
pub struct AuditReport {
    /// Every free site in the instrumented program, in source order.
    pub sites: Vec<AuditSite>,
}

impl AuditReport {
    /// Number of sites whose obligation was discharged (including
    /// tolerated double frees).
    pub fn proved(&self) -> usize {
        self.sites.iter().filter(|s| s.verdict.is_proved()).count()
    }

    /// The unproven sites.
    pub fn unproven(&self) -> impl Iterator<Item = &AuditSite> {
        self.sites.iter().filter(|s| !s.verdict.is_proved())
    }

    /// Fraction of sites proved; 1.0 for a program with no free sites.
    pub fn proof_rate(&self) -> f64 {
        if self.sites.is_empty() {
            1.0
        } else {
            self.proved() as f64 / self.sites.len() as f64
        }
    }

    /// A human-readable multi-line rendering (one line per site).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for s in &self.sites {
            out.push_str(&format!(
                "{}: {}({}) in {}: {}\n",
                if s.span.is_empty() {
                    "<inserted>".to_string()
                } else {
                    format!("@{}..{}", s.span.start, s.span.end)
                },
                s.kind,
                s.target,
                s.func,
                s.verdict
            ));
        }
        out
    }
}

/// Renders a free target expression for diagnostics.
fn render_target(e: &Expr) -> String {
    match &e.kind {
        ExprKind::Ident(name) => name.clone(),
        ExprKind::Field { base, name } => format!("{}.{}", render_target(base), name),
        _ => "<expr>".to_string(),
    }
}

/// Audits every `tcfree` site of an instrumented program.
///
/// Deliberately takes only the front-end artifacts — not the primary
/// [`crate::Analysis`] — so a bug in the escape-graph fixpoint cannot
/// propagate into the proofs (the independence argument, DESIGN.md §8).
pub fn audit(program: &Program, res: &Resolution, types: &TypeInfo) -> AuditReport {
    // Bottom-up callee summaries; recursion cycles stay conservative.
    let mut summaries: FxHashMap<String, FnSummary> = FxHashMap::default();
    let mut flows: FxHashMap<String, FuncFlow> = FxHashMap::default();
    let mut visiting: FxHashSet<String> = FxHashSet::default();
    for func in &program.funcs {
        summarize_func(
            program,
            res,
            types,
            func,
            &mut summaries,
            &mut flows,
            &mut visiting,
        );
    }

    let mut report = AuditReport::default();
    for func in &program.funcs {
        let Some(fl) = flows.get(&func.name) else {
            continue;
        };
        collect_sites(func, &func.body, fl, &mut report);
    }
    report
}

fn summarize_func(
    program: &Program,
    res: &Resolution,
    types: &TypeInfo,
    func: &Func,
    summaries: &mut FxHashMap<String, FnSummary>,
    flows: &mut FxHashMap<String, FuncFlow>,
    visiting: &mut FxHashSet<String>,
) {
    if summaries.contains_key(&func.name) || visiting.contains(&func.name) {
        return;
    }
    visiting.insert(func.name.clone());
    // Analyze callees first so their summaries are precise; members of a
    // recursion cycle fall back to `FnSummary::conservative` (the lookup
    // miss in `eval_call_multi`).
    for callee in callees_of(&func.body) {
        if let Some(cf) = program.funcs.iter().find(|f| f.name == callee) {
            summarize_func(program, res, types, cf, summaries, flows, visiting);
        }
    }
    let fl = analyze_func(res, types, summaries, func);
    let summary = summarize(func, res, &fl, summaries);
    summaries.insert(func.name.clone(), summary);
    flows.insert(func.name.clone(), fl);
    visiting.remove(&func.name);
}

fn callees_of(block: &Block) -> Vec<String> {
    fn walk_expr(e: &Expr, out: &mut Vec<String>) {
        if let ExprKind::Call { callee, args } = &e.kind {
            out.push(callee.clone());
            for a in args {
                walk_expr(a, out);
            }
            return;
        }
        match &e.kind {
            ExprKind::Unary { operand, .. } => walk_expr(operand, out),
            ExprKind::Binary { lhs, rhs, .. } => {
                walk_expr(lhs, out);
                walk_expr(rhs, out);
            }
            ExprKind::Field { base, .. } => walk_expr(base, out),
            ExprKind::Index { base, index } => {
                walk_expr(base, out);
                walk_expr(index, out);
            }
            ExprKind::SliceExpr { base, lo, hi } => {
                walk_expr(base, out);
                for b in [lo, hi].into_iter().flatten() {
                    walk_expr(b, out);
                }
            }
            ExprKind::Builtin { args, .. } => {
                for a in args {
                    walk_expr(a, out);
                }
            }
            ExprKind::StructLit { fields, .. } => {
                for f in fields {
                    walk_expr(f, out);
                }
            }
            _ => {}
        }
    }
    fn walk_stmt(s: &Stmt, out: &mut Vec<String>) {
        match &s.kind {
            StmtKind::VarDecl { init, .. } | StmtKind::ShortDecl { init, .. } => {
                init.iter().for_each(|e| walk_expr(e, out))
            }
            StmtKind::Assign { lhs, rhs, .. } => {
                lhs.iter().chain(rhs).for_each(|e| walk_expr(e, out))
            }
            StmtKind::If { cond, then, els } => {
                walk_expr(cond, out);
                walk_block(then, out);
                if let Some(e) = els {
                    walk_stmt(e, out);
                }
            }
            StmtKind::For {
                init,
                cond,
                post,
                body,
            } => {
                if let Some(i) = init {
                    walk_stmt(i, out);
                }
                if let Some(c) = cond {
                    walk_expr(c, out);
                }
                if let Some(p) = post {
                    walk_stmt(p, out);
                }
                walk_block(body, out);
            }
            StmtKind::Return { exprs } => exprs.iter().for_each(|e| walk_expr(e, out)),
            StmtKind::Expr { expr } => walk_expr(expr, out),
            StmtKind::BlockStmt { block } => walk_block(block, out),
            StmtKind::Defer { call } => walk_expr(call, out),
            StmtKind::Switch {
                subject,
                cases,
                default,
            } => {
                walk_expr(subject, out);
                for case in cases {
                    case.values.iter().for_each(|v| walk_expr(v, out));
                    walk_block(&case.body, out);
                }
                if let Some(d) = default {
                    walk_block(d, out);
                }
            }
            StmtKind::Free { target, .. } => walk_expr(target, out),
            StmtKind::Break | StmtKind::Continue => {}
        }
    }
    fn walk_block(b: &Block, out: &mut Vec<String>) {
        for s in &b.stmts {
            walk_stmt(s, out);
        }
    }
    let mut out = Vec::new();
    walk_block(block, &mut out);
    out
}

/// Walks a function collecting verdicts for its `Free` statements, in
/// source order.
fn collect_sites(func: &Func, block: &Block, fl: &FuncFlow, report: &mut AuditReport) {
    for stmt in &block.stmts {
        match &stmt.kind {
            StmtKind::Free { target, kind } => {
                let verdict = judge(stmt.id, fl);
                report.sites.push(AuditSite {
                    stmt: stmt.id,
                    func: func.name.clone(),
                    target: render_target(target),
                    kind: *kind,
                    span: stmt.span,
                    verdict,
                });
            }
            StmtKind::If { then, els, .. } => {
                collect_sites(func, then, fl, report);
                if let Some(e) = els {
                    collect_sites_stmt(func, e, fl, report);
                }
            }
            StmtKind::For { body, .. } => collect_sites(func, body, fl, report),
            StmtKind::BlockStmt { block } => collect_sites(func, block, fl, report),
            StmtKind::Switch { cases, default, .. } => {
                for case in cases {
                    collect_sites(func, &case.body, fl, report);
                }
                if let Some(d) = default {
                    collect_sites(func, d, fl, report);
                }
            }
            _ => {}
        }
    }
}

fn collect_sites_stmt(func: &Func, stmt: &Stmt, fl: &FuncFlow, report: &mut AuditReport) {
    // Wrap a lone statement (else-if chain) as a one-statement walk.
    match &stmt.kind {
        StmtKind::If { then, els, .. } => {
            collect_sites(func, then, fl, report);
            if let Some(e) = els {
                collect_sites_stmt(func, e, fl, report);
            }
        }
        StmtKind::BlockStmt { block } => collect_sites(func, block, fl, report),
        _ => {}
    }
}

/// Judges one free site against its recorded snapshot.
fn judge(stmt: StmtId, fl: &FuncFlow) -> AuditVerdict {
    let Some(snap) = fl.sites.get(&stmt) else {
        // Unreachable code: the free never executes.
        return AuditVerdict::Proved;
    };
    if snap.targets.is_empty() {
        // Provably nil (or a non-reference): freeing nil is a no-op.
        return AuditVerdict::Proved;
    }
    for o in &snap.targets {
        match o {
            AbsObj::Unknown => {
                return AuditVerdict::Unproven(
                    "the freed reference may point to storage of unknown provenance".to_string(),
                )
            }
            AbsObj::Param(p) => {
                return AuditVerdict::Unproven(format!(
                    "the freed reference may point to caller-provided storage (parameter {p})"
                ))
            }
            _ => {}
        }
    }
    // Escape: the target reachable from anything the caller (or a defer)
    // can still see. Parameters are caller-visible roots unconditionally.
    let roots: ObjSet = std::iter::once(AbsObj::Unknown)
        .chain((0..fl.freed_params.len()).map(AbsObj::Param))
        .collect();
    let escaped = closure(&fl.contains, &roots);
    if snap.targets.iter().any(|o| escaped.contains(o)) {
        return AuditVerdict::Unproven(
            "the freed object may have escaped into caller-visible or deferred storage".to_string(),
        );
    }
    // Liveness: no live variable may reach the freed object. A variable
    // whose remaining uses are all projections of specific struct fields
    // (`live_fields_after`) only reaches the struct objects themselves
    // plus the contents of those fields — the refinement that proves
    // partial frees `tcfree(x.f)` while `x.g` stays live.
    for v in &snap.live_after {
        let Some(vp) = snap.state.pts.get(v) else {
            continue;
        };
        let reach = match snap.live_fields_after.get(v) {
            Some(fields) => {
                let mut roots = ObjSet::new();
                for o in vp {
                    for f in fields {
                        if let Some(inner) = fl.contains.get(&(*o, FieldKey::Field(f.clone()))) {
                            roots.extend(inner.iter().copied());
                        }
                    }
                }
                let mut r = closure(&fl.contains, &roots);
                r.extend(vp.iter().copied());
                r
            }
            None => closure(&fl.contains, vp),
        };
        if reach.iter().any(|o| snap.targets.contains(o)) {
            return AuditVerdict::Unproven(format!(
                "a variable live after the free (var #{}) may reference the freed object",
                v.0
            ));
        }
    }
    // Double free: tolerated only when no allocation could have reused
    // the storage since the earlier free.
    let doubled: Vec<&AbsObj> = snap
        .targets
        .iter()
        .filter(|o| snap.state.freed.contains_key(o))
        .collect();
    if !doubled.is_empty() {
        if doubled
            .iter()
            .all(|o| snap.state.freed.get(o).copied().unwrap_or(false))
        {
            return AuditVerdict::ProvedDoubleFreeTolerated;
        }
        return AuditVerdict::Unproven(
            "the object may already be freed, with intervening allocations that may have \
             reused its storage"
                .to_string(),
        );
    }
    AuditVerdict::Proved
}

/// Removes every `Free` statement in `unproven` from a clone of
/// `program`, returning the stripped program and the number of sites
/// removed. Used by the pipeline under [`AuditMode::Deny`].
pub fn strip_unproven(program: &Program, report: &AuditReport) -> (Program, u64) {
    let unproven: FxHashSet<StmtId> = report.unproven().map(|s| s.stmt).collect();
    if unproven.is_empty() {
        return (program.clone(), 0);
    }
    let mut stripped = program.clone();
    let mut removed = 0u64;
    for func in &mut stripped.funcs {
        strip_block(&mut func.body, &unproven, &mut removed);
    }
    (stripped, removed)
}

fn strip_block(block: &mut Block, unproven: &FxHashSet<StmtId>, removed: &mut u64) {
    block.stmts.retain(|s| {
        let drop = matches!(s.kind, StmtKind::Free { .. }) && unproven.contains(&s.id);
        if drop {
            *removed += 1;
        }
        !drop
    });
    for stmt in &mut block.stmts {
        strip_stmt(stmt, unproven, removed);
    }
}

fn strip_stmt(stmt: &mut Stmt, unproven: &FxHashSet<StmtId>, removed: &mut u64) {
    match &mut stmt.kind {
        StmtKind::If { then, els, .. } => {
            strip_block(then, unproven, removed);
            if let Some(e) = els {
                strip_stmt(e, unproven, removed);
            }
        }
        StmtKind::For { body, .. } => strip_block(body, unproven, removed),
        StmtKind::BlockStmt { block } => strip_block(block, unproven, removed),
        StmtKind::Switch { cases, default, .. } => {
            for case in cases {
                strip_block(&mut case.body, unproven, removed);
            }
            if let Some(d) = default {
                strip_block(d, unproven, removed);
            }
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use minigo_syntax::{parse, resolve, typecheck};

    fn audited(src: &str) -> AuditReport {
        let program = parse(src).unwrap();
        let mut res = resolve(&program).unwrap();
        let types = typecheck(&program, &res).unwrap();
        let analysis = crate::analyze(&program, &res, &types, &crate::AnalyzeOptions::default());
        let program = crate::instrument(&program, &mut res, &analysis);
        audit(&program, &res, &types)
    }

    #[test]
    fn local_scratch_slice_is_proved() {
        let r =
            audited("func main() { n := 100\n s := make([]int, n)\n s[0] = 1\n print(s[0]) }\n");
        assert_eq!(r.sites.len(), 1, "{:?}", r);
        assert_eq!(r.sites[0].verdict, AuditVerdict::Proved);
        assert!((r.proof_rate() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn hand_written_premature_free_is_unproven() {
        // tcfree followed by a live read of the same slice.
        let program =
            parse("func main() { s := make([]int, 64)\n s[0] = 7\n tcfree(s)\n print(s[0]) }\n")
                .unwrap();
        let res = resolve(&program).unwrap();
        let types = typecheck(&program, &res).unwrap();
        let r = audit(&program, &res, &types);
        assert_eq!(r.sites.len(), 1);
        assert!(
            !r.sites[0].verdict.is_proved(),
            "premature free must not verify: {:?}",
            r.sites[0].verdict
        );
    }

    #[test]
    fn returned_slice_free_is_unproven() {
        let program = parse(
            "func f() []int { s := make([]int, 8)\n tcfree(s)\n return s }\nfunc main() { print(len(f())) }\n",
        )
        .unwrap();
        let res = resolve(&program).unwrap();
        let types = typecheck(&program, &res).unwrap();
        let r = audit(&program, &res, &types);
        assert_eq!(r.sites.len(), 1);
        assert!(!r.sites[0].verdict.is_proved());
    }

    #[test]
    fn adjacent_alias_free_is_tolerated() {
        let program = parse(
            "func main() { s := make([]int, 8)\n w := s[0:4]\n s[0] = len(w)\n tcfree(s)\n tcfree(w) }\n",
        )
        .unwrap();
        let res = resolve(&program).unwrap();
        let types = typecheck(&program, &res).unwrap();
        let r = audit(&program, &res, &types);
        assert_eq!(r.sites.len(), 2);
        assert_eq!(r.sites[0].verdict, AuditVerdict::Proved);
        assert_eq!(r.sites[1].verdict, AuditVerdict::ProvedDoubleFreeTolerated);
    }

    #[test]
    fn alias_free_with_intervening_alloc_is_unproven() {
        let program = parse(
            "func main() { s := make([]int, 8)\n w := s[0:4]\n tcfree(s)\n t := make([]int, 8)\n t[0] = 1\n tcfree(w)\n print(t[0]) }\n",
        )
        .unwrap();
        let res = resolve(&program).unwrap();
        let types = typecheck(&program, &res).unwrap();
        let r = audit(&program, &res, &types);
        assert_eq!(r.sites.len(), 2);
        assert!(!r.sites[1].verdict.is_proved());
    }

    #[test]
    fn factory_result_free_in_caller_is_proved() {
        // §4.4 content tags: caller frees the callee-allocated map.
        let r = audited(
            "func mk() map[int]int { m := make(map[int]int)\n m[1] = 2\n return m }\nfunc main() { m := mk()\n print(m[1]) }\n",
        );
        assert!(
            r.sites.iter().all(|s| s.verdict.is_proved()),
            "{}",
            r.render()
        );
    }

    #[test]
    fn escaped_into_param_is_unproven() {
        let program = parse(
            "type Box struct { p []int }\nfunc fill(b *Box) { s := make([]int, 4)\n b.p = s\n tcfree(s) }\nfunc main() { b := &Box{nil}\n fill(b)\n print(len(b.p)) }\n",
        )
        .unwrap();
        let res = resolve(&program).unwrap();
        let types = typecheck(&program, &res).unwrap();
        let r = audit(&program, &res, &types);
        let fill_site = r.sites.iter().find(|s| s.func == "fill").unwrap();
        assert!(!fill_site.verdict.is_proved(), "{}", r.render());
    }

    #[test]
    fn loop_local_free_is_proved() {
        let r = audited(
            "func main() { total := 0\n n := 64\n for i := 0; i < 10; i += 1 { s := make([]int, n)\n s[0] = i\n total += s[0] }\n print(total) }\n",
        );
        assert_eq!(r.sites.len(), 1, "{}", r.render());
        assert_eq!(r.sites[0].verdict, AuditVerdict::Proved);
    }

    #[test]
    fn strip_removes_only_unproven() {
        let program =
            parse("func main() { s := make([]int, 8)\n tcfree(s)\n print(s[0]) }\n").unwrap();
        let res = resolve(&program).unwrap();
        let types = typecheck(&program, &res).unwrap();
        let report = audit(&program, &res, &types);
        assert_eq!(report.proved(), 0);
        let (stripped, removed) = strip_unproven(&program, &report);
        assert_eq!(removed, 1);
        let count = {
            fn frees(b: &Block) -> usize {
                b.stmts
                    .iter()
                    .map(|s| match &s.kind {
                        StmtKind::Free { .. } => 1,
                        StmtKind::BlockStmt { block } => frees(block),
                        StmtKind::If { then, .. } => frees(then),
                        StmtKind::For { body, .. } => frees(body),
                        _ => 0,
                    })
                    .sum()
            }
            stripped.funcs.iter().map(|f| frees(&f.body)).sum::<usize>()
        };
        assert_eq!(count, 0);
    }

    fn audited_lastuse(src: &str) -> (AuditReport, String) {
        let program = parse(src).unwrap();
        let mut res = resolve(&program).unwrap();
        let mut types = typecheck(&program, &res).unwrap();
        let analysis = crate::analyze(&program, &res, &types, &crate::AnalyzeOptions::default());
        let plan = crate::liveness::plan_placement(&program, &res, &types, &analysis);
        let program = crate::instrument_with_plan(&program, &mut res, &mut types, &analysis, &plan);
        let text = minigo_syntax::print_program(&program);
        (audit(&program, &res, &types), text)
    }

    #[test]
    fn advanced_free_is_proved() {
        let (r, text) = audited_lastuse(
            "func main() { n := 16\n s := make([]int, n)\n s[0] = 1\n t := make([]int, n)\n t[0] = s[0]\n print(t[0])\n print(n) }\n",
        );
        // s's free is advanced past t's tail uses; both sites prove.
        assert!(r.sites.len() >= 2, "{text}\n{}", r.render());
        assert!(
            r.sites.iter().all(|s| s.verdict.is_proved()),
            "{text}\n{}",
            r.render()
        );
        let free = text.find("tcfree(s)").expect(&text);
        let t_use = text.find("print(t[0])").expect(&text);
        assert!(free < t_use, "s freed before t's last use: {text}");
    }

    #[test]
    fn advance_past_dead_callee_arg_is_proved() {
        let (r, text) = audited_lastuse(
            "func g(s []int, n int) int { return n + 1 }\nfunc main() { n := 8\n s := make([]int, n)\n s[0] = 1\n x := g(s, 2)\n print(x)\n print(n) }\n",
        );
        let free = text.find("tcfree(s)").expect(&text);
        let call = text.find("g(s, 2)").expect(&text);
        assert!(free < call, "free advanced past the dead-arg call: {text}");
        assert!(
            r.sites.iter().all(|s| s.verdict.is_proved()),
            "auditor re-proves the dead-arg advance: {text}\n{}",
            r.render()
        );
    }

    #[test]
    fn ptr_struct_partial_free_is_proved_while_base_lives() {
        let (r, text) = audited_lastuse(
            "type T struct { a []int\n b map[int]int }\nfunc main() { n := 8\n x := &T{make([]int, n), make(map[int]int)}\n x.a[0] = 1\n print(x.a[0])\n x.b[1] = 2\n print(x.b[1])\n print(n) }\n",
        );
        assert!(text.contains("tcfree(x.a)"), "{text}");
        assert!(text.contains("tcfree(x.b)"), "{text}");
        let free_a = text.find("tcfree(x.a)").unwrap();
        let use_b = text.find("x.b[1] = 2").unwrap();
        assert!(free_a < use_b, "x.a freed while x.b still live: {text}");
        assert!(
            r.sites.iter().all(|s| s.verdict.is_proved()),
            "field-refined liveness proves the partial frees: {text}\n{}",
            r.render()
        );
        assert!(r.sites.iter().any(|s| s.target == "x.a"), "{}", r.render());
    }

    #[test]
    fn planted_premature_lastuse_free_stays_unproven() {
        // A hand-written free emulating a last-use misjudgment: the
        // auditor must refuse it even in a lastuse-planned program.
        let (r, _text) = audited_lastuse(
            "func main() { s := make([]int, 8)\n s[0] = 7\n tcfree(s)\n print(s[0]) }\n",
        );
        let site = r.sites.iter().find(|s| s.target == "s").unwrap();
        assert!(!site.verdict.is_proved(), "{}", r.render());
    }

    #[test]
    fn audit_mode_parses() {
        assert_eq!("warn".parse::<AuditMode>().unwrap(), AuditMode::Warn);
        assert_eq!("deny".parse::<AuditMode>().unwrap(), AuditMode::Deny);
        assert!("loud".parse::<AuditMode>().is_err());
        assert_eq!(AuditMode::Deny.to_string(), "deny");
    }
}
