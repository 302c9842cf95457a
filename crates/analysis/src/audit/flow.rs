//! The auditor's own data-flow machinery: a forward may-point-to
//! abstract interpretation over the instrumented AST plus a backward
//! variable liveness pass, both independent of the primary escape-graph
//! analysis (see DESIGN.md §8 for the independence argument).

use std::collections::{BTreeMap, BTreeSet};

use minigo_syntax::fxhash::FxHashMap;
use minigo_syntax::visit::{Node, Visitor, Walk};
use minigo_syntax::{
    Block, Builtin, Expr, ExprId, ExprKind, Func, Resolution, Stmt, StmtKind, Type, TypeInfo, UnOp,
    VarId,
};

/// An abstract heap object in the auditor's domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) enum AbsObj {
    /// The object allocated by a `make`/`new`/`&T{}`/`append`-growth
    /// expression in the current function.
    Site(ExprId),
    /// A fresh object returned (result index `.1`) by the call at `.0`,
    /// per the callee's summary.
    CallFresh(ExprId, usize),
    /// The object a formal parameter referenced at entry.
    Param(usize),
    /// Anything the auditor cannot identify (loads from unknown storage,
    /// opaque call results). Never provable to free.
    Unknown,
}

/// How a reference was stored into an object — the field sensitivity of
/// the containment relation.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum FieldKey {
    /// Through `*p`.
    Deref,
    /// Slice or map element.
    Elem,
    /// A named struct field.
    Field(String),
}

pub(crate) type ObjSet = BTreeSet<AbsObj>;
/// `(container, field) -> contained objects`, accumulated
/// flow-insensitively per function.
pub(crate) type Contains = BTreeMap<(AbsObj, FieldKey), ObjSet>;

/// The flow-sensitive part of the forward state.
#[derive(Debug, Clone, PartialEq, Default)]
pub(crate) struct FlowState {
    /// May-point-to sets per variable.
    pub pts: BTreeMap<VarId, ObjSet>,
    /// Objects that may already be freed at this point. The flag is
    /// `true` while no allocation has happened since the free on any
    /// path — the condition under which a repeat free is the runtime's
    /// *tolerated* `AlreadyFree` bail rather than a storage-reuse hazard.
    pub freed: BTreeMap<AbsObj, bool>,
}

impl FlowState {
    fn join(&mut self, other: &FlowState) {
        for (v, set) in &other.pts {
            self.pts.entry(*v).or_default().extend(set.iter().copied());
        }
        for (o, tolerable) in &other.freed {
            self.freed
                .entry(*o)
                .and_modify(|t| *t = *t && *tolerable)
                .or_insert(*tolerable);
        }
    }

    /// Any allocation may reuse storage vacated by an earlier free:
    /// after it, repeat frees of those objects are no longer tolerable.
    fn clear_tolerable(&mut self) {
        for t in self.freed.values_mut() {
            *t = false;
        }
    }
}

/// What the auditor records at one `tcfree` site.
#[derive(Debug, Clone)]
pub(crate) struct SiteSnapshot {
    /// The may-point-to set of the freed expression.
    pub targets: ObjSet,
    /// The full flow state just before the free.
    pub state: FlowState,
    /// Variables (deref-)live after the free statement.
    pub live_after: BTreeSet<VarId>,
    /// Field refinement: a variable present here (always also in
    /// `live_after`) is only ever used again through the named struct
    /// fields, so the liveness conjunct may restrict its reach to those
    /// fields' contents (plus the struct objects themselves). Supports
    /// proving partial frees `tcfree(x.f)` while `x.g` stays live.
    pub live_fields_after: BTreeMap<VarId, BTreeSet<String>>,
}

/// Everything the forward+backward passes derive for one function.
#[derive(Debug, Clone, Default)]
pub(crate) struct FuncFlow {
    /// Per-free-site snapshots, keyed by the `Free` statement id.
    pub sites: FxHashMap<minigo_syntax::StmtId, SiteSnapshot>,
    /// The final containment relation.
    pub contains: Contains,
    /// Joined may-point-to sets of each result value over all exits.
    pub result_pts: Vec<ObjSet>,
    /// Parameters the function may free (directly or via callees).
    pub freed_params: Vec<bool>,
}

/// The interprocedural summary the auditor derives per function —
/// deliberately simpler than the primary analysis's `FuncSummary`
/// (content tags + back-propagation): just enough to classify results
/// and argument effects.
#[derive(Debug, Clone)]
pub(crate) struct FnSummary {
    /// Per result index: classification of the returned reference.
    pub results: Vec<ResSummary>,
    /// Per parameter: may the callee store the argument somewhere that
    /// outlives the call (escape)?
    pub leaks: Vec<bool>,
    /// Per parameter: may the callee free the argument's object?
    pub frees: Vec<bool>,
    /// Per parameter: may the callee touch the argument's referent at
    /// all? `false` only when every occurrence of the parameter in the
    /// callee is a bare pass-through into a position that is itself
    /// unused — derived syntactically, bottom-up, independently of the
    /// primary analysis's `UseSummary`. Lets the liveness pass ignore
    /// dead arguments at call sites (context-sensitive last use).
    pub uses: Vec<bool>,
}

/// Summary of one result position.
#[derive(Debug, Clone, Default)]
pub(crate) struct ResSummary {
    /// The result may be a fresh object the caller now owns.
    pub fresh: bool,
    /// The result may alias these parameters (§4.6.3 passthrough).
    pub aliases: Vec<usize>,
    /// The result may reference these parameters' objects *inside* a
    /// returned container.
    pub contains_params: Vec<usize>,
    /// The result may be anything (analysis gave up).
    pub opaque: bool,
}

impl FnSummary {
    /// The sound default: every result opaque, every argument may leak
    /// and may be freed. Used for recursion cycles and unknown callees.
    pub fn conservative(nparams: usize, nresults: usize) -> Self {
        FnSummary {
            results: (0..nresults)
                .map(|_| ResSummary {
                    opaque: true,
                    ..ResSummary::default()
                })
                .collect(),
            leaks: vec![true; nparams],
            frees: vec![true; nparams],
            uses: vec![true; nparams],
        }
    }

    /// Whether the parameter at `idx` may be used; out-of-range
    /// positions are conservatively used.
    pub fn param_used(&self, idx: usize) -> bool {
        self.uses.get(idx).copied().unwrap_or(true)
    }
}

/// Transitive containment closure of `roots` (all field keys).
pub(crate) fn closure(contains: &Contains, roots: &ObjSet) -> ObjSet {
    let mut out = roots.clone();
    let mut work: Vec<AbsObj> = roots.iter().copied().collect();
    while let Some(o) = work.pop() {
        for ((container, _), inner) in contains.iter() {
            if *container == o {
                for i in inner {
                    if out.insert(*i) {
                        work.push(*i);
                    }
                }
            }
        }
    }
    out
}

const MAX_LOOP_ITERS: usize = 64;

/// The forward abstract interpreter for one function.
pub(crate) struct FlowAnalyzer<'a> {
    pub res: &'a Resolution,
    pub types: &'a TypeInfo,
    pub summaries: &'a FxHashMap<String, FnSummary>,
    pub func: &'a Func,
    pub contains: Contains,
    /// Snapshot per Free site (last visit wins: the fixpoint state).
    pub sites: FxHashMap<minigo_syntax::StmtId, (ObjSet, FlowState)>,
    /// Result pts joined over all exits.
    pub result_pts: Vec<ObjSet>,
    pub freed_params: Vec<bool>,
    /// Per-loop break-state accumulators (stack).
    breaks: Vec<Vec<FlowState>>,
    /// Per-loop continue-state accumulators (stack).
    continues: Vec<Vec<FlowState>>,
}

impl<'a> FlowAnalyzer<'a> {
    pub fn new(
        res: &'a Resolution,
        types: &'a TypeInfo,
        summaries: &'a FxHashMap<String, FnSummary>,
        func: &'a Func,
    ) -> Self {
        FlowAnalyzer {
            res,
            types,
            summaries,
            func,
            contains: Contains::new(),
            sites: FxHashMap::default(),
            result_pts: vec![ObjSet::new(); func.results.len()],
            freed_params: vec![false; func.params.len()],
            breaks: Vec::new(),
            continues: Vec::new(),
        }
    }

    /// Runs the analysis over the whole function body.
    pub fn run(&mut self) {
        let mut state = FlowState::default();
        for (i, vid) in self.res.params_of(self.func.id).iter().enumerate() {
            if self.var_may_hold_refs(*vid) {
                state
                    .pts
                    .insert(*vid, std::iter::once(AbsObj::Param(i)).collect());
            }
        }
        if let Some(exit) = self.exec_block(&self.func.body, state) {
            // Implicit return of named results at fall-through.
            self.record_exit_from_named_results(&exit);
        }
    }

    fn var_may_hold_refs(&self, vid: VarId) -> bool {
        self.types
            .var(vid)
            .map(|t| self.types.contains_pointers(t))
            .unwrap_or(true)
    }

    fn expr_may_hold_refs(&self, e: &Expr) -> bool {
        match self.types.expr(e.id) {
            Some(t) => self.types.contains_pointers(t),
            // Synthesized (instrumented) expressions have no recorded
            // type; fall back to the declared variable type.
            None => match &e.kind {
                ExprKind::Ident(_) => self
                    .res
                    .def_of(e.id)
                    .map(|v| self.var_may_hold_refs(v))
                    .unwrap_or(true),
                _ => true,
            },
        }
    }

    fn record_exit_from_named_results(&mut self, state: &FlowState) {
        let results: Vec<VarId> = self.res.results_of(self.func.id).to_vec();
        for (i, vid) in results.iter().enumerate() {
            let set = state.pts.get(vid).cloned().unwrap_or_default();
            self.result_pts[i].extend(set);
        }
    }

    fn exec_block(&mut self, block: &Block, mut state: FlowState) -> Option<FlowState> {
        for stmt in &block.stmts {
            state = self.exec_stmt(stmt, state)?;
        }
        Some(state)
    }

    /// Executes one statement; `None` means control never falls through
    /// (return/break/continue/panic).
    fn exec_stmt(&mut self, stmt: &Stmt, mut state: FlowState) -> Option<FlowState> {
        match &stmt.kind {
            StmtKind::VarDecl { names, init, .. } | StmtKind::ShortDecl { names, init } => {
                let values = self.eval_rhs_list(names.len(), init, &mut state);
                for (idx, set) in values.into_iter().enumerate() {
                    if let Some(vid) = self.res.decl_of(stmt.id, idx) {
                        state.pts.insert(vid, set);
                    }
                }
                Some(state)
            }
            StmtKind::Assign { lhs, op, rhs } => {
                let values = self.eval_rhs_list(lhs.len(), rhs, &mut state);
                for (l, vs) in lhs.iter().zip(values) {
                    self.store(l, vs, op.is_some(), &mut state);
                }
                Some(state)
            }
            StmtKind::If { cond, then, els } => {
                self.eval(cond, &mut state);
                let then_out = self.exec_block(then, state.clone());
                let els_out = match els {
                    Some(e) => self.exec_stmt(e, state),
                    None => Some(state),
                };
                match (then_out, els_out) {
                    (Some(mut a), Some(b)) => {
                        a.join(&b);
                        Some(a)
                    }
                    (Some(a), None) | (None, Some(a)) => Some(a),
                    (None, None) => None,
                }
            }
            StmtKind::For {
                init,
                cond,
                post,
                body,
            } => {
                if let Some(init) = init {
                    state = self.exec_stmt(init, state)?;
                }
                self.breaks.push(Vec::new());
                self.continues.push(Vec::new());
                let mut head = state;
                for _ in 0..MAX_LOOP_ITERS {
                    let mut entry = head.clone();
                    if let Some(cond) = cond {
                        self.eval(cond, &mut entry);
                    }
                    let body_out = self.exec_block(body, entry);
                    let mut iter_end = FlowState::default();
                    let mut any = false;
                    if let Some(out) = body_out {
                        iter_end = out;
                        any = true;
                    }
                    for c in self
                        .continues
                        .last_mut()
                        .map(std::mem::take)
                        .unwrap_or_default()
                    {
                        if any {
                            iter_end.join(&c);
                        } else {
                            iter_end = c;
                            any = true;
                        }
                    }
                    if any {
                        if let Some(post) = post {
                            iter_end = self.exec_stmt(post, iter_end).unwrap_or_default();
                        }
                        let mut new_head = head.clone();
                        new_head.join(&iter_end);
                        if new_head == head {
                            break;
                        }
                        head = new_head;
                    } else {
                        break;
                    }
                }
                self.continues.pop();
                // Exit: condition-false at the head, plus every break.
                let mut exit = head.clone();
                if let Some(cond) = cond {
                    self.eval(cond, &mut exit);
                }
                let mut fallthrough = cond.is_some();
                for b in self.breaks.pop().unwrap_or_default() {
                    if fallthrough {
                        exit.join(&b);
                    } else {
                        exit = b;
                        fallthrough = true;
                    }
                }
                if fallthrough {
                    Some(exit)
                } else {
                    None
                }
            }
            StmtKind::Return { exprs } => {
                if exprs.is_empty() {
                    self.record_exit_from_named_results(&state);
                } else {
                    let values = self.eval_rhs_list(self.func.results.len(), exprs, &mut state);
                    for (i, set) in values.into_iter().enumerate() {
                        if i < self.result_pts.len() {
                            self.result_pts[i].extend(set);
                        }
                    }
                }
                None
            }
            StmtKind::Expr { expr } => {
                self.eval(expr, &mut state);
                Some(state)
            }
            StmtKind::BlockStmt { block } => self.exec_block(block, state),
            StmtKind::Defer { call } => {
                // The deferred call runs at function exit with captured
                // values: everything it can reach escapes the auditor's
                // per-statement reasoning.
                if let ExprKind::Call { args, .. } | ExprKind::Builtin { args, .. } = &call.kind {
                    for a in args {
                        let set = self.eval(a, &mut state);
                        self.escape(set);
                    }
                } else {
                    let set = self.eval(call, &mut state);
                    self.escape(set);
                }
                Some(state)
            }
            StmtKind::Switch {
                subject,
                cases,
                default,
            } => {
                self.eval(subject, &mut state);
                let mut out: Option<FlowState> = None;
                let join_into = |o: Option<FlowState>, out: &mut Option<FlowState>| {
                    if let Some(s) = o {
                        match out {
                            Some(acc) => acc.join(&s),
                            None => *out = Some(s),
                        }
                    }
                };
                for case in cases {
                    let mut s = state.clone();
                    for v in &case.values {
                        self.eval(v, &mut s);
                    }
                    let o = self.exec_block(&case.body, s);
                    join_into(o, &mut out);
                }
                match default {
                    Some(d) => {
                        let o = self.exec_block(d, state);
                        join_into(o, &mut out);
                    }
                    // No default: the subject may match no case.
                    None => join_into(Some(state), &mut out),
                }
                out
            }
            StmtKind::Break => {
                if let Some(b) = self.breaks.last_mut() {
                    b.push(state);
                }
                None
            }
            StmtKind::Continue => {
                if let Some(c) = self.continues.last_mut() {
                    c.push(state);
                }
                None
            }
            StmtKind::Free { target, .. } => {
                let targets = self.eval(target, &mut state);
                // Snapshot before mutating: the obligation is judged
                // against the state the free executes in.
                self.sites.insert(stmt.id, (targets.clone(), state.clone()));
                for o in targets {
                    if let AbsObj::Param(p) = o {
                        if let Some(fp) = self.freed_params.get_mut(p) {
                            *fp = true;
                        }
                    }
                    if !matches!(o, AbsObj::Unknown) {
                        state.freed.insert(o, true);
                    }
                }
                Some(state)
            }
        }
    }

    /// Evaluates a right-hand-side list: either a matching list of
    /// `want` expressions or a single multi-value call.
    fn eval_rhs_list(&mut self, want: usize, exprs: &[Expr], state: &mut FlowState) -> Vec<ObjSet> {
        if exprs.len() == 1 && want > 1 {
            if let ExprKind::Call { .. } = &exprs[0].kind {
                return self.eval_call_multi(&exprs[0], want, state);
            }
        }
        let mut out: Vec<ObjSet> = exprs.iter().map(|e| self.eval(e, state)).collect();
        out.resize(want, ObjSet::new());
        out
    }

    /// Records that `set`'s objects escape the function's reasoning
    /// (stored where the auditor cannot see).
    fn escape(&mut self, set: ObjSet) {
        if !set.is_empty() {
            self.contains
                .entry((AbsObj::Unknown, FieldKey::Elem))
                .or_default()
                .extend(set);
        }
    }

    /// Loads `key` out of every object in `base`.
    fn load(&self, base: &ObjSet, key: &FieldKey) -> ObjSet {
        let mut out = ObjSet::new();
        for o in base {
            if let Some(inner) = self.contains.get(&(*o, key.clone())) {
                out.extend(inner.iter().copied());
            }
            // Loads from objects the auditor did not build itself may
            // yield references it never saw stored.
            if !matches!(o, AbsObj::Site(_)) {
                out.insert(AbsObj::Unknown);
            }
        }
        out
    }

    /// Stores `vs` into the location denoted by lvalue `l`.
    fn store(&mut self, l: &Expr, vs: ObjSet, compound: bool, state: &mut FlowState) {
        match &l.kind {
            ExprKind::Ident(_) => {
                if let Some(vid) = self.res.def_of(l.id) {
                    if compound {
                        state.pts.entry(vid).or_default().extend(vs);
                    } else {
                        state.pts.insert(vid, vs);
                    }
                }
            }
            ExprKind::Index { base, index } => {
                let bset = self.eval(base, state);
                self.eval(index, state);
                // A map store may grow the table (an allocation).
                if matches!(self.types.expr(base.id), Some(Type::Map(_, _))) {
                    state.clear_tolerable();
                }
                for o in bset {
                    self.contains
                        .entry((o, FieldKey::Elem))
                        .or_default()
                        .extend(vs.iter().copied());
                }
            }
            ExprKind::Field { base, name } => {
                if matches!(self.types.expr(base.id), Some(Type::Named(_))) {
                    // Value-struct field store: fold into the variable's
                    // flattened reference set.
                    let mut merged = self.eval(base, state);
                    merged.extend(vs.iter().copied());
                    self.store(base, merged, true, state);
                } else {
                    let bset = self.eval(base, state);
                    for o in bset {
                        self.contains
                            .entry((o, FieldKey::Field(name.clone())))
                            .or_default()
                            .extend(vs.iter().copied());
                    }
                }
            }
            ExprKind::Unary {
                op: UnOp::Deref,
                operand,
            } => {
                let bset = self.eval(operand, state);
                for o in bset {
                    self.contains
                        .entry((o, FieldKey::Deref))
                        .or_default()
                        .extend(vs.iter().copied());
                }
            }
            _ => {
                // An lvalue shape the auditor does not model: give up on
                // these references.
                self.escape(vs);
            }
        }
    }

    /// Evaluates an expression's may-point-to set, applying side effects
    /// (allocation-site kills, call summaries) to `state`.
    fn eval(&mut self, e: &Expr, state: &mut FlowState) -> ObjSet {
        let typed_refs = self.expr_may_hold_refs(e);
        match &e.kind {
            ExprKind::IntLit(_) | ExprKind::BoolLit(_) | ExprKind::StrLit(_) | ExprKind::Nil => {
                ObjSet::new()
            }
            ExprKind::Ident(_) => {
                if !typed_refs {
                    return ObjSet::new();
                }
                self.res
                    .def_of(e.id)
                    .and_then(|v| state.pts.get(&v).cloned())
                    .unwrap_or_default()
            }
            ExprKind::Unary { op, operand } => match op {
                UnOp::Deref => {
                    let base = self.eval(operand, state);
                    if typed_refs {
                        self.load(&base, &FieldKey::Deref)
                    } else {
                        ObjSet::new()
                    }
                }
                UnOp::Addr => {
                    // &T{...} allocates a fresh object; &x aliases a
                    // variable's storage, which the auditor's
                    // object-granular domain cannot name.
                    if let ExprKind::StructLit { name, fields } = &operand.kind {
                        let site = AbsObj::Site(e.id);
                        state.clear_tolerable();
                        state.freed.remove(&site);
                        let field_names: Vec<String> = self
                            .types
                            .fields_of(name)
                            .map(|fs| fs.iter().map(|(n, _)| n.clone()).collect())
                            .unwrap_or_default();
                        for (i, f) in fields.iter().enumerate() {
                            let vs = self.eval(f, state);
                            let key = field_names
                                .get(i)
                                .map(|n| FieldKey::Field(n.clone()))
                                .unwrap_or(FieldKey::Elem);
                            if !vs.is_empty() {
                                self.contains.entry((site, key)).or_default().extend(vs);
                            }
                        }
                        std::iter::once(site).collect()
                    } else {
                        let inner = self.eval(operand, state);
                        self.escape(inner);
                        state.clear_tolerable();
                        std::iter::once(AbsObj::Unknown).collect()
                    }
                }
                UnOp::Neg | UnOp::Not => {
                    self.eval(operand, state);
                    ObjSet::new()
                }
            },
            ExprKind::Binary { lhs, rhs, .. } => {
                self.eval(lhs, state);
                self.eval(rhs, state);
                ObjSet::new()
            }
            ExprKind::Field { base, name } => {
                let bset = self.eval(base, state);
                if !typed_refs {
                    return ObjSet::new();
                }
                if matches!(self.types.expr(base.id), Some(Type::Named(_))) {
                    // Value struct: flattened references.
                    bset
                } else {
                    self.load(&bset, &FieldKey::Field(name.clone()))
                }
            }
            ExprKind::Index { base, index } => {
                let bset = self.eval(base, state);
                self.eval(index, state);
                if typed_refs {
                    self.load(&bset, &FieldKey::Elem)
                } else {
                    ObjSet::new()
                }
            }
            ExprKind::SliceExpr { base, lo, hi } => {
                // A reslice shares the base's backing array.
                let bset = self.eval(base, state);
                for bound in [lo, hi].into_iter().flatten() {
                    self.eval(bound, state);
                }
                bset
            }
            ExprKind::Call { .. } => self
                .eval_call_multi(e, 1, state)
                .into_iter()
                .next()
                .unwrap_or_default(),
            ExprKind::Builtin { kind, args, .. } => self.eval_builtin(e, *kind, args, state),
            ExprKind::StructLit { fields, .. } => {
                // A bare struct literal is a stack value: its reference
                // set is the union of its fields'.
                let mut out = ObjSet::new();
                for f in fields {
                    out.extend(self.eval(f, state));
                }
                out
            }
        }
    }

    fn eval_builtin(
        &mut self,
        e: &Expr,
        kind: Builtin,
        args: &[Expr],
        state: &mut FlowState,
    ) -> ObjSet {
        match kind {
            Builtin::Make | Builtin::New => {
                for a in args {
                    self.eval(a, state);
                }
                let site = AbsObj::Site(e.id);
                state.clear_tolerable();
                state.freed.remove(&site);
                std::iter::once(site).collect()
            }
            Builtin::Append => {
                let base = args
                    .first()
                    .map(|a| self.eval(a, state))
                    .unwrap_or_default();
                let val = args.get(1).map(|a| self.eval(a, state)).unwrap_or_default();
                let site = AbsObj::Site(e.id);
                state.clear_tolerable();
                state.freed.remove(&site);
                let mut out = base.clone();
                out.insert(site);
                if !val.is_empty() {
                    for o in &out {
                        self.contains
                            .entry((*o, FieldKey::Elem))
                            .or_default()
                            .extend(val.iter().copied());
                    }
                }
                // Growth copies the old elements into the new array.
                let carried = self.load(&base, &FieldKey::Elem);
                if !carried.is_empty() {
                    self.contains
                        .entry((site, FieldKey::Elem))
                        .or_default()
                        .extend(carried);
                }
                out
            }
            Builtin::Panic => {
                for a in args {
                    let set = self.eval(a, state);
                    self.escape(set);
                }
                ObjSet::new()
            }
            _ => {
                // len/cap/delete/print/itoa: evaluate operands for their
                // effects; no references produced.
                for a in args {
                    self.eval(a, state);
                }
                ObjSet::new()
            }
        }
    }

    /// Applies a call's summary; returns one may-point-to set per result.
    fn eval_call_multi(&mut self, e: &Expr, want: usize, state: &mut FlowState) -> Vec<ObjSet> {
        let ExprKind::Call { callee, args } = &e.kind else {
            return vec![ObjSet::new(); want];
        };
        let arg_sets: Vec<ObjSet> = args.iter().map(|a| self.eval(a, state)).collect();
        let summary = self
            .summaries
            .get(callee)
            .cloned()
            .unwrap_or_else(|| FnSummary::conservative(args.len(), want));
        for (i, set) in arg_sets.iter().enumerate() {
            if summary.leaks.get(i).copied().unwrap_or(true) {
                self.escape(set.clone());
            }
            if summary.frees.get(i).copied().unwrap_or(true) {
                for o in set {
                    if !matches!(o, AbsObj::Unknown) {
                        state.freed.insert(*o, false);
                        if let AbsObj::Param(p) = o {
                            // Transitively freeing our own caller's arg.
                            if let Some(fp) = self.freed_params.get_mut(*p) {
                                *fp = true;
                            }
                        }
                    }
                }
            }
        }
        // The callee may allocate: earlier frees lose tolerability.
        state.clear_tolerable();
        let mut out = Vec::with_capacity(want);
        for idx in 0..want {
            let mut set = ObjSet::new();
            match summary.results.get(idx) {
                Some(r) => {
                    if r.fresh {
                        let fresh = AbsObj::CallFresh(e.id, idx);
                        state.freed.remove(&fresh);
                        set.insert(fresh);
                        for p in &r.contains_params {
                            if let Some(ap) = arg_sets.get(*p) {
                                self.contains
                                    .entry((fresh, FieldKey::Elem))
                                    .or_default()
                                    .extend(ap.iter().copied());
                            }
                        }
                    }
                    for p in &r.aliases {
                        if let Some(ap) = arg_sets.get(*p) {
                            set.extend(ap.iter().copied());
                        }
                    }
                    if r.opaque {
                        set.insert(AbsObj::Unknown);
                    }
                }
                None => {
                    set.insert(AbsObj::Unknown);
                }
            }
            out.push(set);
        }
        out
    }
}

/// The backward liveness domain: live variables, with an optional
/// per-variable *field refinement*. A variable in `refined` (always also
/// in `vars`) is only ever used again through the named struct fields —
/// every other use path is dead — so the judge may restrict its reach to
/// those fields' contents. A bare (non-projection) use discards the
/// refinement.
#[derive(Debug, Clone, PartialEq, Default)]
pub(crate) struct LiveSet {
    /// Variables live at this point.
    pub vars: BTreeSet<VarId>,
    /// Field-refined subset of `vars`.
    pub refined: BTreeMap<VarId, BTreeSet<String>>,
}

impl LiveSet {
    fn use_bare(&mut self, v: VarId) {
        self.vars.insert(v);
        self.refined.remove(&v);
    }

    fn use_field(&mut self, v: VarId, field: &str) {
        if self.vars.insert(v) {
            // First (backward) use seen: live through this field only.
            self.refined.entry(v).or_default().insert(field.to_string());
        } else if let Some(s) = self.refined.get_mut(&v) {
            s.insert(field.to_string());
        }
        // Already live unrefined: stays unrefined.
    }

    fn kill(&mut self, v: VarId) {
        self.vars.remove(&v);
        self.refined.remove(&v);
    }

    /// Path join: a variable is refined in the result only if no joined
    /// path uses it unrefined; its field set is the union over paths.
    fn join(&self, other: &LiveSet) -> LiveSet {
        let mut vars = self.vars.clone();
        vars.extend(other.vars.iter().copied());
        let mut refined = BTreeMap::new();
        for v in &vars {
            let a_full = self.vars.contains(v) && !self.refined.contains_key(v);
            let b_full = other.vars.contains(v) && !other.refined.contains_key(v);
            if a_full || b_full {
                continue;
            }
            let mut s: BTreeSet<String> = self.refined.get(v).cloned().unwrap_or_default();
            if let Some(x) = other.refined.get(v) {
                s.extend(x.iter().cloned());
            }
            refined.insert(*v, s);
        }
        LiveSet { vars, refined }
    }
}

/// Backward deref-liveness: computes, for every `Free` statement, the
/// set of variables live *after* it. A variable occurrence counts as a
/// use everywhere except as the direct target of a `Free` statement —
/// freeing a dangling reference is the runtime's tolerated path, while
/// any other use may reach the freed storage. Two refinements feed the
/// liveness-driven placement proofs: field projections (`x.f`) refine
/// rather than fully pin the base variable, and a bare argument handed
/// to a callee position the callee provably never uses
/// ([`FnSummary::uses`]) is not a use at all.
pub(crate) struct Liveness<'a> {
    res: &'a Resolution,
    func: &'a Func,
    summaries: &'a FxHashMap<String, FnSummary>,
    /// live-after sets per Free statement.
    pub live_after: FxHashMap<minigo_syntax::StmtId, LiveSet>,
    breaks: Vec<Vec<LiveSet>>,
    continues: Vec<Vec<LiveSet>>,
}

impl<'a> Liveness<'a> {
    pub fn new(
        res: &'a Resolution,
        func: &'a Func,
        summaries: &'a FxHashMap<String, FnSummary>,
    ) -> Self {
        Liveness {
            res,
            func,
            summaries,
            live_after: FxHashMap::default(),
            breaks: Vec::new(),
            continues: Vec::new(),
        }
    }

    pub fn run(&mut self) {
        // Named results are read by the caller at exit.
        let mut exit = LiveSet::default();
        for v in self.res.results_of(self.func.id) {
            exit.use_bare(*v);
        }
        let body = &self.func.body;
        self.back_block(body, exit);
    }

    fn uses(&self, e: &Expr, out: &mut LiveSet) {
        occurrences(e, self.res, self.summaries, |v, field| match field {
            Some(name) => out.use_field(v, name),
            None => out.use_bare(v),
        });
    }

    fn back_block(&mut self, block: &Block, mut live: LiveSet) -> LiveSet {
        for stmt in block.stmts.iter().rev() {
            live = self.back_stmt(stmt, live);
        }
        live
    }

    fn back_stmt(&mut self, stmt: &Stmt, live: LiveSet) -> LiveSet {
        match &stmt.kind {
            StmtKind::VarDecl { init, .. } | StmtKind::ShortDecl { init, .. } => {
                let mut l = live;
                for idx in 0.. {
                    match self.res.decl_of(stmt.id, idx) {
                        Some(v) => {
                            l.kill(v);
                        }
                        None => break,
                    }
                }
                for e in init {
                    self.uses(e, &mut l);
                }
                l
            }
            StmtKind::Assign { lhs, op, rhs } => {
                let mut l = live;
                for target in lhs {
                    if let ExprKind::Ident(_) = &target.kind {
                        if op.is_none() {
                            if let Some(v) = self.res.def_of(target.id) {
                                l.kill(v);
                            }
                        } else {
                            self.uses(target, &mut l);
                        }
                    } else {
                        self.uses(target, &mut l);
                    }
                }
                for e in rhs {
                    self.uses(e, &mut l);
                }
                l
            }
            StmtKind::If { cond, then, els } => {
                let then_in = self.back_block(then, live.clone());
                let els_in = match els {
                    Some(e) => self.back_stmt(e, live),
                    None => live,
                };
                let mut l = then_in.join(&els_in);
                self.uses(cond, &mut l);
                l
            }
            StmtKind::For {
                init,
                cond,
                post,
                body,
            } => {
                self.breaks.push(vec![live.clone()]);
                self.continues.push(Vec::new());
                let mut head = live.clone();
                for _ in 0..MAX_LOOP_ITERS {
                    let mut h = head.clone();
                    if let Some(cond) = cond {
                        self.uses(cond, &mut h);
                    }
                    // Continue jumps to post, i.e. to the head after post.
                    let mut post_in = h.clone();
                    if let Some(post) = post {
                        post_in = self.back_stmt(post, post_in);
                    }
                    if let Some(c) = self.continues.last_mut() {
                        c.clear();
                        c.push(post_in.clone());
                    }
                    let body_in = self.back_block(body, post_in);
                    let mut new_head = head.join(&body_in);
                    if let Some(cond) = cond {
                        self.uses(cond, &mut new_head);
                    }
                    if new_head == head {
                        break;
                    }
                    head = new_head;
                }
                self.breaks.pop();
                self.continues.pop();
                match init {
                    Some(init) => self.back_stmt(init, head),
                    None => head,
                }
            }
            StmtKind::Return { exprs } => {
                let mut l = LiveSet::default();
                if exprs.is_empty() {
                    for v in self.res.results_of(self.func.id) {
                        l.use_bare(*v);
                    }
                }
                for e in exprs {
                    self.uses(e, &mut l);
                }
                l
            }
            StmtKind::Expr { expr } => {
                let mut l = live;
                self.uses(expr, &mut l);
                l
            }
            StmtKind::BlockStmt { block } => self.back_block(block, live),
            StmtKind::Defer { call } => {
                let mut l = live;
                self.uses(call, &mut l);
                l
            }
            StmtKind::Switch {
                subject,
                cases,
                default,
            } => {
                let mut l = LiveSet::default();
                let mut first = true;
                for case in cases {
                    let case_in = self.back_block(&case.body, live.clone());
                    l = if first { case_in } else { l.join(&case_in) };
                    first = false;
                    let mut vals = LiveSet::default();
                    for v in &case.values {
                        self.uses(v, &mut vals);
                    }
                    l = l.join(&vals);
                }
                let dflt = match default {
                    Some(d) => self.back_block(d, live),
                    None => live,
                };
                l = if first { dflt } else { l.join(&dflt) };
                self.uses(subject, &mut l);
                l
            }
            StmtKind::Break => self
                .breaks
                .last()
                .and_then(|b| b.first())
                .cloned()
                .unwrap_or_default(),
            StmtKind::Continue => self
                .continues
                .last()
                .and_then(|c| c.first())
                .cloned()
                .unwrap_or_default(),
            StmtKind::Free { .. } => {
                // The target occurrence is not a use: freeing an already-
                // dead reference is the tolerated path.
                self.live_after.insert(stmt.id, live.clone());
                live
            }
        }
    }
}

/// Runs both passes over one function.
pub(crate) fn analyze_func(
    res: &Resolution,
    types: &TypeInfo,
    summaries: &FxHashMap<String, FnSummary>,
    func: &Func,
) -> FuncFlow {
    let mut fwd = FlowAnalyzer::new(res, types, summaries, func);
    fwd.run();
    let mut live = Liveness::new(res, func, summaries);
    live.run();
    let mut sites = FxHashMap::default();
    for (stmt, (targets, state)) in fwd.sites.drain() {
        let ls = live.live_after.get(&stmt).cloned().unwrap_or_default();
        sites.insert(
            stmt,
            SiteSnapshot {
                targets,
                state,
                live_after: ls.vars,
                live_fields_after: ls.refined,
            },
        );
    }
    FuncFlow {
        sites,
        contains: fwd.contains,
        result_pts: fwd.result_pts,
        freed_params: fwd.freed_params,
    }
}

/// Every variable occurrence under `node`, `x.f` reported as a use of
/// field `f`, except a bare argument passed to a callee position whose
/// summary says it is never used: the callee cannot touch the referent.
fn occurrences<'a, N: Node>(
    node: &'a N,
    res: &Resolution,
    summaries: &FxHashMap<String, FnSummary>,
    f: impl FnMut(VarId, Option<&'a str>),
) {
    struct Occurrences<'r, F> {
        res: &'r Resolution,
        summaries: &'r FxHashMap<String, FnSummary>,
        f: F,
    }
    impl<'a, F: FnMut(VarId, Option<&'a str>)> Visitor<'a> for Occurrences<'_, F> {
        fn expr(&mut self, e: &'a Expr) -> Walk {
            match &e.kind {
                ExprKind::Ident(_) => {
                    if let Some(v) = self.res.def_of(e.id) {
                        (self.f)(v, None);
                    }
                }
                ExprKind::Field { base, name } => {
                    if let (ExprKind::Ident(_), Some(v)) = (&base.kind, self.res.def_of(base.id)) {
                        (self.f)(v, Some(name));
                        return Walk::Skip;
                    }
                }
                ExprKind::Call { callee, args } => {
                    let sum = self.summaries.get(callee);
                    for (i, a) in args.iter().enumerate() {
                        let dead = matches!(a.kind, ExprKind::Ident(_))
                            && sum.is_some_and(|s| !s.param_used(i));
                        if !dead {
                            let _ = a.walk(self);
                        }
                    }
                    return Walk::Skip;
                }
                _ => {}
            }
            Walk::Descend
        }
    }
    let _ = node.walk(&mut Occurrences { res, summaries, f });
}

/// Syntactic parameter-use walk: a parameter is used on any occurrence
/// but a dead pass-through (see [`occurrences`]). Freeing a parameter's
/// object touches it too: a caller must not advance its own free past
/// the call. The auditor's independent counterpart of the planner's
/// `UseSummary` derivation.
pub(crate) fn param_uses(
    res: &Resolution,
    func: &Func,
    summaries: &FxHashMap<String, FnSummary>,
) -> Vec<bool> {
    let params = res.params_of(func.id);
    let mut used = vec![false; params.len()];
    occurrences(&func.body, res, summaries, |v, _| {
        if let Some(i) = params.iter().position(|p| *p == v) {
            used[i] = true;
        }
    });
    used
}

/// Derives a callee summary from a completed per-function analysis.
pub(crate) fn summarize(
    func: &Func,
    res: &Resolution,
    flow: &FuncFlow,
    summaries: &FxHashMap<String, FnSummary>,
) -> FnSummary {
    let nparams = func.params.len();
    let roots: ObjSet = std::iter::once(AbsObj::Unknown)
        .chain((0..nparams).map(AbsObj::Param))
        .collect();
    let escaped = closure(&flow.contains, &roots);

    // Objects reachable from each result, for cross-result aliasing.
    let result_reach: Vec<ObjSet> = flow
        .result_pts
        .iter()
        .map(|s| closure(&flow.contains, s))
        .collect();

    let mut results = Vec::with_capacity(flow.result_pts.len());
    for (idx, set) in flow.result_pts.iter().enumerate() {
        let mut r = ResSummary::default();
        for o in set {
            match o {
                AbsObj::Param(p) => r.aliases.push(*p),
                AbsObj::Unknown => r.opaque = true,
                AbsObj::Site(_) | AbsObj::CallFresh(_, _) => {
                    r.fresh = true;
                    if escaped.contains(o) {
                        // The "fresh" object also escaped somewhere the
                        // caller cannot see — not safely caller-owned.
                        r.opaque = true;
                    }
                }
            }
        }
        // A result whose reachable objects overlap another result's
        // (beyond shared params) must stay opaque: two CallFresh tags
        // would wrongly look disjoint to the caller.
        for (jdx, other) in result_reach.iter().enumerate() {
            if jdx == idx {
                continue;
            }
            if result_reach[idx].iter().any(|o| {
                matches!(o, AbsObj::Site(_) | AbsObj::CallFresh(_, _)) && other.contains(o)
            }) {
                r.opaque = true;
            }
        }
        // Params reachable *inside* the returned container.
        for o in &result_reach[idx] {
            if let AbsObj::Param(p) = o {
                if !r.aliases.contains(p) {
                    r.contains_params.push(*p);
                }
            }
        }
        results.push(r);
    }

    let mut leaks = vec![false; nparams];
    for (i, leak) in leaks.iter_mut().enumerate() {
        // Param(i) stored under Unknown or under another param's object.
        let other_roots: ObjSet = std::iter::once(AbsObj::Unknown)
            .chain((0..nparams).filter(|p| *p != i).map(AbsObj::Param))
            .collect();
        if closure(&flow.contains, &other_roots).contains(&AbsObj::Param(i)) {
            *leak = true;
        }
    }

    FnSummary {
        results,
        leaks,
        frees: flow.freed_params.clone(),
        uses: param_uses(res, func, summaries),
    }
}
