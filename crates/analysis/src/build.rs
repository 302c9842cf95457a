//! Escape graph construction from the AST (table 2 of the paper, plus the
//! slice/map/call modeling of §4.4–§4.6).
//!
//! The builder walks one function and emits locations and weighted edges.
//! It is flow-insensitive and field-insensitive, exactly like Go's
//! analysis: statement order does not matter, and all fields of a struct
//! share the struct's location. Indirect stores are *not* tracked — the
//! stored value flows to the `heapLoc` dummy, and (for GoFree) the pointer
//! stored through is marked `Exposes` (definition 4.11 clause 3).
//!
//! The same graph is built for both "plain Go" and GoFree modes; the modes
//! differ only in which constraints the solver applies and in what the
//! decision/instrumentation layers do with the solution.

use minigo_syntax::fxhash::FxHashMap;
use minigo_syntax::{
    Builtin, Expr, ExprId, ExprKind, Func, FuncId, IdMap, Program, Resolution, StmtKind, Type,
    TypeInfo, UnOp, VarId,
};

use crate::graph::{AllocKind, ContentOrigin, EscapeGraph, LocId, LocKind, HEAP_LOC};
use crate::summary::FuncSummary;

/// An allocation site (a `make`, `new`, or `&T{..}` expression).
#[derive(Debug, Clone)]
pub struct AllocSite {
    /// The site's location in the escape graph.
    pub loc: LocId,
    /// What kind of object it creates.
    pub kind: AllocKind,
    /// Compile-time size in bytes, if constant.
    pub const_size: Option<u64>,
}

/// One function's escape graph plus the site tables later passes need.
#[derive(Debug, Clone)]
pub struct FuncGraph {
    /// The function.
    pub func: FuncId,
    /// The graph (solve it with [`crate::solve::solve`]).
    pub graph: EscapeGraph,
    /// The per-function `return` dummy location.
    pub return_dummy: LocId,
    /// Variable → location. Hashed rather than an [`IdMap`]: the keys
    /// are one function's variables, a sliver of the program's id space.
    pub var_locs: FxHashMap<VarId, LocId>,
    /// Allocation expression → site info (hashed, like `var_locs`).
    pub alloc_sites: FxHashMap<ExprId, AllocSite>,
    /// Callee-side content tags, one per result (§4.4), used when this
    /// function's summary is extracted.
    pub result_tags: Vec<LocId>,
}

impl FuncGraph {
    /// The location of variable `v`, which must belong to this function.
    pub fn loc_of(&self, v: VarId) -> LocId {
        self.var_locs[&v]
    }
}

/// Builds the escape graph for `func`, resolving call sites against
/// `summaries` (missing entries use the conservative default tag).
pub fn build_func_graph(
    program: &Program,
    res: &Resolution,
    types: &TypeInfo,
    func: &Func,
    summaries: &IdMap<FuncId, FuncSummary>,
) -> FuncGraph {
    let mut b = Builder {
        program,
        res,
        types,
        summaries,
        g: EscapeGraph::new(),
        return_dummy: HEAP_LOC, // replaced below
        var_locs: FxHashMap::default(),
        alloc_sites: FxHashMap::default(),
        result_tags: Vec::new(),
        decl_depth: 1,
        loop_depth: 0,
        func,
    };

    // The per-function return dummy (definition 4.2): HeapAlloc(return) is
    // true (def 4.10) and DeclDepth(return) = -1 (def 4.13), which makes
    // every pointer to a returned object Outlived inside the callee.
    let ret = b.g.add_location(LocKind::ReturnDummy, -1, -1, true);
    b.g.loc_mut(ret).heap_alloc = true;
    b.return_dummy = ret;

    // Locations for every variable of this function.
    for &vid in res.vars_of(func.id) {
        let info = res.var(vid);
        let ty = types.var(vid);
        let pointerful = ty.map(|t| types.contains_pointers(t)).unwrap_or(true);
        let loc = b.g.add_location(
            LocKind::Var(vid),
            info.loop_depth,
            info.decl_depth,
            pointerful,
        );
        b.var_locs.insert(vid, loc);
    }

    // Result locations flow into the return dummy; GoFree also attaches a
    // content tag c_j per result with an edge c_j -(-1)-> r_j (§4.4).
    for (j, &rvar) in res.results_of(func.id).iter().enumerate() {
        let rloc = b.var_locs[&rvar];
        b.g.add_edge(rloc, ret, 0);
        let pointerful = b.g.loc(rloc).pointerful;
        let tag = b.g.add_location(
            LocKind::Content(ContentOrigin::CallResult(ExprId(u32::MAX), j)),
            0,
            1,
            pointerful,
        );
        b.g.add_edge(tag, rloc, -1);
        b.result_tags.push(tag);
    }

    // Formal parameters have unknown callers during intra-procedural
    // analysis: Incomplete(param) = true (definition 4.12 clause a).
    for &pvar in res.params_of(func.id) {
        let ploc = b.var_locs[&pvar];
        if b.g.loc(ploc).pointerful {
            b.g.loc_mut(ploc).incomplete = true;
        }
    }

    for stmt in &func.body.stmts {
        b.stmt(stmt);
    }

    FuncGraph {
        func: func.id,
        graph: b.g,
        return_dummy: b.return_dummy,
        var_locs: b.var_locs,
        alloc_sites: b.alloc_sites,
        result_tags: b.result_tags,
    }
}

struct Builder<'a> {
    program: &'a Program,
    res: &'a Resolution,
    types: &'a TypeInfo,
    summaries: &'a IdMap<FuncId, FuncSummary>,
    g: EscapeGraph,
    return_dummy: LocId,
    var_locs: FxHashMap<VarId, LocId>,
    alloc_sites: FxHashMap<ExprId, AllocSite>,
    result_tags: Vec<LocId>,
    decl_depth: i32,
    loop_depth: i32,
    func: &'a Func,
}

impl<'a> Builder<'a> {
    fn loc_of_var(&self, expr: &Expr) -> Option<LocId> {
        let vid = self.res.def_of(expr.id)?;
        self.var_locs.get(&vid).copied()
    }

    fn expr_pointerful(&self, e: &Expr) -> bool {
        self.types
            .expr(e.id)
            .map(|t| self.types.contains_pointers(t))
            .unwrap_or(true)
    }

    fn temp(&mut self, e: &Expr, pointerful: bool) -> LocId {
        self.g.add_location(
            LocKind::Temp(e.id),
            self.loop_depth,
            self.decl_depth,
            pointerful,
        )
    }

    // ---- statements ----

    fn stmt(&mut self, stmt: &minigo_syntax::Stmt) {
        match &stmt.kind {
            StmtKind::VarDecl { names, init, .. } | StmtKind::ShortDecl { names, init } => {
                let dsts: Vec<LocId> = (0..names.len())
                    .map(|i| {
                        let vid = self.res.decl_of(stmt.id, i).expect("resolved declaration");
                        self.var_locs[&vid]
                    })
                    .collect();
                if init.len() == 1 && names.len() > 1 {
                    let targets: Vec<(LocId, i32)> = dsts.iter().map(|&d| (d, 0)).collect();
                    self.multi_value(&init[0], &targets);
                } else {
                    for (i, e) in init.iter().enumerate() {
                        self.connect(dsts[i], 0, e);
                    }
                }
            }
            StmtKind::Assign { lhs, op, rhs } => {
                if op.is_some() {
                    // Compound assignment only exists for ints and strings,
                    // so no pointers flow — but a compound store into a map
                    // or slice is still an indirect store (exposure, and
                    // possible bucket growth for maps).
                    self.effect_only(&rhs[0]);
                    match &lhs[0].kind {
                        ExprKind::Index { base, index } => {
                            self.effect_only(index);
                            let is_map = matches!(self.types.expr(base.id), Some(Type::Map(_, _)));
                            self.indirect_store(base, None, is_map.then_some(lhs[0].id));
                        }
                        ExprKind::Unary {
                            op: UnOp::Deref,
                            operand,
                        } => self.indirect_store(operand, None, None),
                        _ => {}
                    }
                    return;
                }
                if rhs.len() == 1 && lhs.len() > 1 {
                    // Parallel destructuring of a multi-value call: route
                    // each result through a temp, then into the lvalue.
                    let temps: Vec<(LocId, i32)> = lhs
                        .iter()
                        .map(|l| (self.temp(l, self.expr_pointerful(l)), 0))
                        .collect();
                    self.multi_value(&rhs[0], &temps);
                    for (l, (t, _)) in lhs.iter().zip(&temps) {
                        self.assign_from_loc(l, *t);
                    }
                } else {
                    for (l, r) in lhs.iter().zip(rhs) {
                        self.assign(l, r);
                    }
                }
            }
            StmtKind::If { cond, then, els } => {
                self.effect_only(cond);
                self.decl_depth += 1;
                for s in &then.stmts {
                    self.stmt(s);
                }
                self.decl_depth -= 1;
                if let Some(els) = els {
                    self.stmt(els);
                }
            }
            StmtKind::For {
                init,
                cond,
                post,
                body,
            } => {
                self.decl_depth += 1; // implicit for-scope
                if let Some(init) = init {
                    self.stmt(init);
                }
                if let Some(cond) = cond {
                    self.effect_only(cond);
                }
                if let Some(post) = post {
                    self.stmt(post);
                }
                self.decl_depth += 1;
                self.loop_depth += 1;
                for s in &body.stmts {
                    self.stmt(s);
                }
                self.loop_depth -= 1;
                self.decl_depth -= 2;
            }
            StmtKind::Return { exprs } => {
                let results = self.res.results_of(self.func.id).to_vec();
                if exprs.len() == 1 && results.len() > 1 {
                    let targets: Vec<(LocId, i32)> =
                        results.iter().map(|r| (self.var_locs[r], 0)).collect();
                    self.multi_value(&exprs[0], &targets);
                } else {
                    for (rvar, e) in results.iter().zip(exprs) {
                        let d = self.var_locs[rvar];
                        self.connect(d, 0, e);
                    }
                }
            }
            StmtKind::Expr { expr } => self.effect_only(expr),
            StmtKind::BlockStmt { block } => {
                self.decl_depth += 1;
                for s in &block.stmts {
                    self.stmt(s);
                }
                self.decl_depth -= 1;
            }
            StmtKind::Defer { call } => {
                // Deferred calls run at function exit: their argument values
                // must survive until then, and the objects they reference
                // are banned from freeing (§5, "Safety upon Defer and
                // Panic").
                self.effect_only(call);
                if let ExprKind::Call { args, .. } | ExprKind::Builtin { args, .. } = &call.kind {
                    for a in args {
                        if self.expr_pointerful(a) {
                            self.connect(HEAP_LOC, 0, a);
                        }
                        self.pin_idents(a);
                    }
                }
            }
            StmtKind::Switch {
                subject,
                cases,
                default,
            } => {
                self.effect_only(subject);
                for case in cases {
                    for v in &case.values {
                        self.effect_only(v);
                    }
                    self.decl_depth += 1;
                    for st in &case.body.stmts {
                        self.stmt(st);
                    }
                    self.decl_depth -= 1;
                }
                if let Some(default) = default {
                    self.decl_depth += 1;
                    for st in &default.stmts {
                        self.stmt(st);
                    }
                    self.decl_depth -= 1;
                }
            }
            StmtKind::Break | StmtKind::Continue => {}
            StmtKind::Free { target, .. } => self.effect_only(target),
        }
    }

    /// Evaluates an expression for its side effects (calls, allocations)
    /// without a meaningful destination.
    fn effect_only(&mut self, e: &Expr) {
        let t = self.temp(e, self.expr_pointerful(e));
        self.connect(t, 0, e);
    }

    /// Marks every variable mentioned in `e` as pinned (never freed).
    fn pin_idents(&mut self, e: &Expr) {
        match &e.kind {
            ExprKind::Ident(_) => {
                if let Some(loc) = self.loc_of_var(e) {
                    self.g.loc_mut(loc).pinned = true;
                }
            }
            ExprKind::Unary { operand, .. } => self.pin_idents(operand),
            ExprKind::Binary { lhs, rhs, .. } => {
                self.pin_idents(lhs);
                self.pin_idents(rhs);
            }
            ExprKind::Field { base, .. } => self.pin_idents(base),
            ExprKind::Index { base, index } => {
                self.pin_idents(base);
                self.pin_idents(index);
            }
            ExprKind::SliceExpr { base, lo, hi } => {
                self.pin_idents(base);
                for bound in [lo, hi].into_iter().flatten() {
                    self.pin_idents(bound);
                }
            }
            ExprKind::Call { args, .. } | ExprKind::Builtin { args, .. } => {
                for a in args {
                    self.pin_idents(a);
                }
            }
            ExprKind::StructLit { fields, .. } => {
                for f in fields {
                    self.pin_idents(f);
                }
            }
            _ => {}
        }
    }

    // ---- assignments ----

    fn assign(&mut self, lv: &Expr, rhs: &Expr) {
        match &lv.kind {
            ExprKind::Ident(_) => {
                if let Some(loc) = self.loc_of_var(lv) {
                    self.connect(loc, 0, rhs);
                }
            }
            ExprKind::Unary {
                op: UnOp::Deref,
                operand,
            } => self.indirect_store(operand, Some(rhs), None),
            ExprKind::Field { .. } => match self.direct_root(lv) {
                Some(root_loc) => self.connect(root_loc, 0, rhs),
                None => {
                    let base = match &lv.kind {
                        ExprKind::Field { base, .. } => base,
                        _ => unreachable!(),
                    };
                    self.indirect_store(base, Some(rhs), None);
                }
            },
            ExprKind::Index { base, index } => {
                self.effect_only(index);
                let is_map = matches!(self.types.expr(base.id), Some(Type::Map(_, _)));
                let grow = is_map.then_some(lv.id);
                self.indirect_store(base, Some(rhs), grow);
            }
            _ => {
                // The type checker rejects other lvalues.
                self.effect_only(rhs);
            }
        }
    }

    /// Assignment of an already-evaluated temp into an lvalue (used by
    /// parallel destructuring).
    fn assign_from_loc(&mut self, lv: &Expr, src: LocId) {
        match &lv.kind {
            ExprKind::Ident(_) => {
                if let Some(loc) = self.loc_of_var(lv) {
                    self.g.add_edge(src, loc, 0);
                }
            }
            _ => {
                // Indirect store of the temp's value.
                self.g.add_edge(src, HEAP_LOC, 0);
                match &lv.kind {
                    ExprKind::Unary {
                        op: UnOp::Deref,
                        operand,
                    } => self.indirect_store(operand, None, None),
                    ExprKind::Field { base, .. } | ExprKind::Index { base, .. } => {
                        let is_map = matches!(self.types.expr(base.id), Some(Type::Map(_, _)));
                        self.indirect_store(base, None, is_map.then_some(lv.id));
                    }
                    _ => {}
                }
            }
        }
    }

    /// Models `*ptr = rhs` (and stores through fields/indexes): the stored
    /// value conservatively escapes to the heap (table 2 row 4), and the
    /// pointer stored through becomes `Exposes` (definition 4.11 clause 3).
    /// Map stores additionally model possible bucket growth (§4.6.2).
    fn indirect_store(&mut self, ptr: &Expr, rhs: Option<&Expr>, map_growth: Option<ExprId>) {
        if let Some(rhs) = rhs {
            if self.expr_pointerful(rhs) {
                self.connect(HEAP_LOC, 0, rhs);
            } else {
                self.effect_only(rhs);
            }
        }
        let expose_loc = match &ptr.kind {
            ExprKind::Ident(_) => self.loc_of_var(ptr),
            _ => {
                let t = self.temp(ptr, true);
                self.connect(t, 0, ptr);
                Some(t)
            }
        };
        if let Some(loc) = expose_loc {
            if self.g.loc(loc).pointerful {
                self.g.loc_mut(loc).exposes = true;
            }
            if let Some(site) = map_growth {
                // A store may grow the map: a fresh heap bucket array the
                // map then points to.
                let grow = self.g.add_location(
                    LocKind::Content(ContentOrigin::MapGrowth(site)),
                    self.loop_depth,
                    self.decl_depth,
                    true,
                );
                self.g.loc_mut(grow).heap_alloc = true;
                self.g.add_edge(grow, loc, -1);
            }
        }
    }

    /// If the lvalue chain reaches a variable through struct *values* only
    /// (no pointer hops), returns that variable's location.
    fn direct_root(&mut self, e: &Expr) -> Option<LocId> {
        match &e.kind {
            ExprKind::Ident(_) => self.loc_of_var(e),
            ExprKind::Field { base, .. } => {
                match self.types.expr(base.id) {
                    Some(Type::Named(_)) => self.direct_root(base),
                    _ => None, // pointer hop or unknown: indirect
                }
            }
            _ => None,
        }
    }

    // ---- expression flow ----

    /// Routes the value of `e` into `dst` with dereference offset `k`
    /// (k = 0: plain value flow; k = -1: address-of; k = +1: load).
    fn connect(&mut self, dst: LocId, k: i32, e: &Expr) {
        match &e.kind {
            ExprKind::IntLit(_) | ExprKind::BoolLit(_) | ExprKind::StrLit(_) | ExprKind::Nil => {}
            ExprKind::Ident(_) => {
                if let Some(loc) = self.loc_of_var(e) {
                    self.g.add_edge(loc, dst, k);
                }
            }
            ExprKind::Unary { op, operand } => match op {
                UnOp::Addr => self.connect(dst, k - 1, operand),
                UnOp::Deref => self.connect(dst, k + 1, operand),
                UnOp::Neg | UnOp::Not => self.effect_only(operand),
            },
            ExprKind::Binary { lhs, rhs, .. } => {
                // Arithmetic/comparison/string ops carry no pointers.
                self.effect_only(lhs);
                self.effect_only(rhs);
            }
            ExprKind::Field { base, .. } => {
                let through_ptr = matches!(self.types.expr(base.id), Some(Type::Ptr(_)));
                self.connect(dst, if through_ptr { k + 1 } else { k }, base);
            }
            ExprKind::Index { base, index } => {
                self.effect_only(index);
                match self.types.expr(base.id) {
                    Some(Type::Slice(_) | Type::Map(_, _)) => self.connect(dst, k + 1, base),
                    _ => self.effect_only(base),
                }
            }
            ExprKind::SliceExpr { base, lo, hi } => {
                // The reslice aliases the same backing array: plain value
                // flow (§4.6.1).
                for bound in [lo, hi].into_iter().flatten() {
                    self.effect_only(bound);
                }
                self.connect(dst, k, base);
            }
            ExprKind::StructLit { fields, .. } => {
                if k <= -1 {
                    // &T{...}: a fresh object allocation.
                    let (size, pointerful) = match self.types.expr(e.id) {
                        Some(t) => (
                            Some(self.types.inline_size(t)),
                            self.types.contains_pointers(t),
                        ),
                        None => (None, true),
                    };
                    let a = self.alloc_loc(e, AllocKind::Object, size, pointerful);
                    for f in fields {
                        self.connect(a, 0, f);
                    }
                    self.g.add_edge(a, dst, k);
                } else {
                    // Value semantics: field values live in the destination.
                    for f in fields {
                        self.connect(dst, k, f);
                    }
                }
            }
            ExprKind::Builtin {
                kind,
                ty_args,
                args,
            } => {
                self.builtin(e, *kind, ty_args, args, dst, k);
            }
            ExprKind::Call { .. } => {
                self.multi_value(e, &[(dst, k)]);
            }
        }
    }

    fn alloc_loc(
        &mut self,
        e: &Expr,
        kind: AllocKind,
        const_size: Option<u64>,
        pointerful: bool,
    ) -> LocId {
        let loc = self.g.add_location(
            LocKind::Alloc(e.id, kind),
            self.loop_depth,
            self.decl_depth,
            pointerful,
        );
        // Non-constant or oversized allocations can never live on the
        // stack; seeding HeapAlloc here both records the decision and lets
        // PointsToHeap (definition 4.16) see them.
        let forced_heap = match const_size {
            Some(sz) => sz > crate::MAX_STACK_BYTES,
            None => true,
        };
        if forced_heap {
            self.g.loc_mut(loc).heap_alloc = true;
        }
        self.alloc_sites.insert(
            e.id,
            AllocSite {
                loc,
                kind,
                const_size,
            },
        );
        loc
    }

    fn builtin(
        &mut self,
        e: &Expr,
        kind: Builtin,
        ty_args: &[Type],
        args: &[Expr],
        dst: LocId,
        k: i32,
    ) {
        match kind {
            Builtin::Make => {
                let ty = &ty_args[0];
                match ty {
                    Type::Slice(elem) => {
                        for a in args {
                            self.effect_only(a);
                        }
                        let cap_expr = args.last();
                        let const_cap = cap_expr.and_then(|a| match a.kind {
                            ExprKind::IntLit(v) if v >= 0 => Some(v as u64),
                            _ => None,
                        });
                        let const_size = const_cap.map(|c| c * self.types.inline_size(elem));
                        let pointerful = self.types.contains_pointers(elem);
                        let a = self.alloc_loc(e, AllocKind::SliceArray, const_size, pointerful);
                        self.g.add_edge(a, dst, k - 1);
                    }
                    Type::Map(_, _) => {
                        // hmap + one initial bucket: constant-sized, so a
                        // non-escaping map can live on the stack (table 8's
                        // "Stack maps" column).
                        let pointerful = match ty {
                            Type::Map(k, v) => {
                                self.types.contains_pointers(k) || self.types.contains_pointers(v)
                            }
                            _ => true,
                        };
                        let a = self.alloc_loc(
                            e,
                            AllocKind::MapBuckets,
                            Some(crate::MAP_BASE_BYTES),
                            pointerful,
                        );
                        self.g.add_edge(a, dst, k - 1);
                    }
                    _ => {}
                }
            }
            Builtin::New => {
                let size = self.types.inline_size(&ty_args[0]);
                let pointerful = self.types.contains_pointers(&ty_args[0]);
                let a = self.alloc_loc(e, AllocKind::Object, Some(size), pointerful);
                self.g.add_edge(a, dst, k - 1);
            }
            Builtin::Append => {
                // Result aliases the old array...
                self.connect(dst, k, &args[0]);
                // ...or a fresh heap array from implicit growth (§4.6.1).
                let m = self.g.add_location(
                    LocKind::Content(ContentOrigin::SliceAppend(e.id)),
                    self.loop_depth,
                    self.decl_depth,
                    true,
                );
                self.g.loc_mut(m).heap_alloc = true;
                self.g.add_edge(m, dst, k - 1);
                // The appended value is stored through the slice: an
                // indirect store.
                if self.expr_pointerful(&args[1]) {
                    self.connect(HEAP_LOC, 0, &args[1]);
                } else {
                    self.effect_only(&args[1]);
                }
            }
            Builtin::Panic => {
                for a in args {
                    if self.expr_pointerful(a) {
                        self.connect(HEAP_LOC, 0, a);
                    } else {
                        self.effect_only(a);
                    }
                    self.pin_idents(a);
                }
            }
            Builtin::Len | Builtin::Cap | Builtin::Delete | Builtin::Print | Builtin::Itoa => {
                for a in args {
                    self.effect_only(a);
                }
            }
        }
    }

    /// Instantiates a call site: the callee's extended parameter tag is
    /// embedded as a subgraph (§4.4). `dsts` are the destinations of the
    /// call's results with their dereference offsets.
    fn multi_value(&mut self, call: &Expr, dsts: &[(LocId, i32)]) {
        let (callee, args) = match &call.kind {
            ExprKind::Call { callee, args } => (callee, args),
            _ => {
                // A non-call in multi-value position was rejected by the
                // type checker; single-value fallthrough.
                if let [(dst, k)] = dsts {
                    self.connect(*dst, *k, call);
                }
                return;
            }
        };
        let fid = self
            .res
            .func_by_name(callee)
            .expect("resolver checked callees");
        let callee_func = &self.program.funcs[fid.index()];
        let default = FuncSummary::default_tag(callee_func.params.len(), callee_func.results.len());
        let summaries = self.summaries;
        let tag = summaries.get(fid).unwrap_or(&default);

        // Evaluate arguments into temps.
        let mut arg_temps = Vec::with_capacity(args.len());
        for a in args {
            let t = self.temp(a, self.expr_pointerful(a));
            self.connect(t, 0, a);
            arg_temps.push(t);
        }
        for (i, &t) in arg_temps.iter().enumerate() {
            if tag.param_exposes.get(i).copied().unwrap_or(true) && self.g.loc(t).pointerful {
                self.g.loc_mut(t).exposes = true;
            }
        }
        for edge in tag.heap_edges() {
            // Only value-level escape matters to the caller: derefs == -1
            // would mean the callee's own parameter copy escaped, which is
            // invisible here.
            if edge.derefs >= 0 {
                if let Some(&t) = arg_temps.get(edge.param) {
                    self.g.add_edge(t, HEAP_LOC, edge.derefs);
                }
            }
        }

        for (j, &(dst, k)) in dsts.iter().enumerate() {
            // Content tag: what result j points to (callee allocations).
            let c = self.g.add_location(
                LocKind::Content(ContentOrigin::CallResult(call.id, j)),
                self.loop_depth,
                self.decl_depth,
                true,
            );
            if tag.result_heap.get(j).copied().unwrap_or(true) {
                self.g.loc_mut(c).heap_alloc = true;
            }
            if tag.result_incomplete.get(j).copied().unwrap_or(true) {
                // The callee's indirect stores mean the result may point at
                // objects the graph does not track: the destination's own
                // points-to set is incomplete (§4.4's fig. 7 `old`).
                if self.g.loc(dst).pointerful {
                    self.g.loc_mut(dst).incomplete = true;
                    self.g.loc_mut(dst).incomplete_internal = true;
                }
            }
            self.g.add_edge(c, dst, k - 1);

            for edge in tag.edges_to_result(j) {
                let Some(&t) = arg_temps.get(edge.param) else {
                    continue;
                };
                if edge.derefs == -1 {
                    // The callee returned the address of (a copy holding)
                    // the argument's value: the value flows into the
                    // result's content, and conservatively also straight
                    // into the destination (a parallel value-flow track may
                    // have been shadowed by MinDerefs taking the minimum).
                    self.g.add_edge(t, c, 0);
                    self.g.add_edge(t, dst, k.max(0));
                } else {
                    self.g.add_edge(t, dst, edge.derefs + k);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solve::{points_to, solve, SolveConfig};
    use minigo_syntax::frontend;

    fn build_first(src: &str) -> (minigo_syntax::Program, Resolution, TypeInfo, FuncGraph) {
        let (p, r, t) = frontend(src).expect("frontend");
        let fg = build_func_graph(&p, &r, &t, &p.funcs[0], &IdMap::default());
        (p, r, t, fg)
    }

    fn loc_by_name(fg: &FuncGraph, res: &Resolution, name: &str) -> LocId {
        let vid = res
            .vars_of(fg.func)
            .iter()
            .find(|&&v| res.var(v).name == name);
        fg.loc_of(*vid.unwrap_or_else(|| panic!("no variable named {name}")))
    }

    #[test]
    fn simple_pointer_flow() {
        let (_, r, _, mut fg) = build_first("func f() { x := 1\n p := &x\n q := p\n q = q }\n");
        solve(&mut fg.graph, &SolveConfig::default());
        let x = loc_by_name(&fg, &r, "x");
        let q = loc_by_name(&fg, &r, "q");
        assert_eq!(points_to(&fg.graph, q), vec![x]);
        assert!(!fg.graph.loc(x).heap_alloc, "nothing escapes");
    }

    #[test]
    fn make_slice_const_vs_dynamic() {
        let (_, _, _, fg) = build_first(
            "func f(n int) { s1 := make([]int, 335)\n s2 := make([]int, n)\n s1[0] = s2[0] }\n",
        );
        let sites: Vec<_> = fg.alloc_sites.values().collect();
        assert_eq!(sites.len(), 2);
        let const_site = sites.iter().find(|s| s.const_size.is_some()).unwrap();
        let dyn_site = sites.iter().find(|s| s.const_size.is_none()).unwrap();
        assert_eq!(const_site.const_size, Some(335 * 8));
        assert!(!fg.graph.loc(const_site.loc).heap_alloc);
        assert!(
            fg.graph.loc(dyn_site.loc).heap_alloc,
            "dynamic size forces heap (fig. 3's make2)"
        );
    }

    #[test]
    fn oversized_const_alloc_forced_to_heap() {
        let (_, _, _, fg) = build_first("func f() { s := make([]int, 100000)\n s[0] = 1 }\n");
        let site = fg.alloc_sites.values().next().unwrap();
        assert!(fg.graph.loc(site.loc).heap_alloc);
    }

    #[test]
    fn indirect_store_escapes_value_and_exposes_pointer() {
        let (_, r, _, mut fg) = build_first(
            "func f() { c := 1\n d := 2\n pc := &c\n pd := &d\n ppd := &pd\n *ppd = pc\n pd2 := *ppd\n pd2 = pd2 }\n",
        );
        solve(&mut fg.graph, &SolveConfig::default());
        let c = loc_by_name(&fg, &r, "c");
        let pd2 = loc_by_name(&fg, &r, "pd2");
        let ppd = loc_by_name(&fg, &r, "ppd");
        // The indirect store exposed ppd and sent pc's value to the heap,
        // so c is heap-allocated (fig. 1)...
        assert!(fg.graph.loc(c).heap_alloc);
        assert!(fg.graph.loc(ppd).exposes);
        // ...and pd2's points-to set, which misses c, is incomplete
        // (table 3's Go column + GoFree's completeness analysis).
        let pts = points_to(&fg.graph, pd2);
        assert!(!pts.contains(&c), "Go's graph misses c");
        assert!(
            fg.graph.loc(pd2).incomplete,
            "GoFree refuses to free pd2 (table 3)"
        );
    }

    #[test]
    fn return_makes_pointers_outlived() {
        let (_, r, _, mut fg) =
            build_first("func f() []int { s := make([]int, 100000)\n return s }\n");
        solve(&mut fg.graph, &SolveConfig::default());
        let s = loc_by_name(&fg, &r, "s");
        assert!(fg.graph.loc(s).outlived, "returned object escapes");
        assert!(!fg.graph.loc(s).to_free());
    }

    #[test]
    fn local_heap_slice_is_freeable() {
        let (_, r, _, mut fg) = build_first("func f(n int) { s := make([]int, n)\n s[0] = 1 }\n");
        solve(&mut fg.graph, &SolveConfig::default());
        let s = loc_by_name(&fg, &r, "s");
        let l = fg.graph.loc(s);
        assert!(l.points_to_heap);
        assert!(!l.incomplete);
        assert!(!l.outlived);
        assert!(l.to_free(), "fig. 3's make2 pattern");
    }

    #[test]
    fn append_adds_heap_content() {
        let (_, r, _, mut fg) = build_first(
            "func f(n int) { var s []int\n for i := 0; i < n; i += 1 { s = append(s, i) }\n s[0] = 1 }\n",
        );
        solve(&mut fg.graph, &SolveConfig::default());
        let s = loc_by_name(&fg, &r, "s");
        assert!(fg.graph.loc(s).points_to_heap);
        assert!(fg.graph.loc(s).to_free(), "append-grown local slice");
    }

    #[test]
    fn map_store_adds_growth_content() {
        let (_, r, _, mut fg) = build_first(
            "func f(n int) { m := make(map[int]int)\n for i := 0; i < n; i += 1 { m[i] = i } }\n",
        );
        solve(&mut fg.graph, &SolveConfig::default());
        let m = loc_by_name(&fg, &r, "m");
        assert!(fg.graph.loc(m).points_to_heap, "growth buckets are heap");
        assert!(fg.graph.loc(m).to_free());
    }

    #[test]
    fn defer_pins_arguments() {
        let (_, r, _, mut fg) =
            build_first("func f(n int) { s := make([]int, n)\n defer print(len(s)) }\n");
        solve(&mut fg.graph, &SolveConfig::default());
        let s = loc_by_name(&fg, &r, "s");
        assert!(fg.graph.loc(s).pinned);
        assert!(!fg.graph.loc(s).to_free());
    }

    #[test]
    fn loop_alloc_bound_to_outer_pointer_heap_allocates() {
        let (_, r, _, mut fg) = build_first(
            "func f(n int) { var keep *int\n for i := 0; i < n; i += 1 { x := i\n keep = &x }\n keep = keep }\n",
        );
        solve(&mut fg.graph, &SolveConfig::default());
        let x = loc_by_name(&fg, &r, "x");
        assert!(
            fg.graph.loc(x).heap_alloc,
            "loop-carried address forces heap (def 4.10 loop rule)"
        );
    }

    #[test]
    fn params_are_incomplete() {
        let (_, r, _, mut fg) = build_first("func f(p *int) { q := p\n q = q }\n");
        solve(&mut fg.graph, &SolveConfig::default());
        let p = loc_by_name(&fg, &r, "p");
        let q = loc_by_name(&fg, &r, "q");
        assert!(fg.graph.loc(p).incomplete);
        assert!(fg.graph.loc(q).incomplete, "flows from an unknown param");
    }

    #[test]
    fn unknown_callee_uses_default_tag() {
        let (_, r, _, mut fg) = build_first(
            "func f(n int) []int { if n == 0 { return make([]int, 1) }\n r := f(n - 1)\n return r }\n",
        );
        solve(&mut fg.graph, &SolveConfig::default());
        let r = loc_by_name(&fg, &r, "r");
        assert!(
            fg.graph.loc(r).incomplete,
            "recursive call gets the conservative default tag"
        );
    }

    #[test]
    fn nested_scopes_fig6() {
        // Fig. 6 of the paper: s1/s2 freeable in their scopes, s3 outlived.
        let src = r#"
func nested(n int) {
    var keep []int
    {
        s1 := make([]int, n)
        s1[0] = 1
        {
            s2 := make([]int, n)
            s2[0] = 2
        }
        {
            s3 := make([]int, n)
            keep = s3
        }
    }
    keep[0] = 3
}
"#;
        let (_, r, _, mut fg) = build_first(src);
        solve(&mut fg.graph, &SolveConfig::default());
        assert!(fg.graph.loc(loc_by_name(&fg, &r, "s1")).to_free());
        assert!(fg.graph.loc(loc_by_name(&fg, &r, "s2")).to_free());
        let s3 = fg.graph.loc(loc_by_name(&fg, &r, "s3"));
        assert!(s3.outlived);
        assert!(!s3.to_free());
    }

    #[test]
    fn struct_literal_value_vs_address() {
        let (_, _, _, fg) = build_first(
            "type P struct { x int }\nfunc f() { v := P{1}\n q := &P{2}\n q.x = v.x }\n",
        );
        // Only the &P{2} creates an allocation site.
        assert_eq!(fg.alloc_sites.len(), 1);
    }
}
