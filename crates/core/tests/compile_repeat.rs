//! Compile outputs depend on the source alone. Compiling the generated
//! corpus and a fuzz draw twice in one process, under the three option
//! sets the `compile-corpus` benchmark uses, gives the same instrumented
//! program, instruction counts and analysis counters both times — so no
//! output follows the iteration order of a side table. Every `tcfree` the
//! instrumentation synthesizes past the parser's last expression id
//! resolves, and the program runs to the same output on both engines.

use gofree::{
    compile, execute, AuditMode, CompileOptions, Compiled, FreePlacement, Mode, RunConfig, Setting,
    VmEngine,
};
use gofree_workloads::{corpus, fuzzgen};
use minigo_syntax::{parse, Block, ExprKind, Stmt, StmtKind, VarId};

fn sources() -> Vec<(String, String)> {
    let mut out = vec![("corpus200".to_string(), corpus::generate(200))];
    out.extend((0..8).map(|seed| (format!("fuzz{seed}"), fuzzgen::generate(seed))));
    out
}

fn option_sets() -> [(&'static str, CompileOptions); 3] {
    [
        ("go", CompileOptions::go()),
        ("gofree", CompileOptions::default()),
        (
            "lastuse",
            CompileOptions {
                free_placement: FreePlacement::LastUse,
                audit: AuditMode::Warn,
                ..CompileOptions::default()
            },
        ),
    ]
}

/// Everything about a compilation that must not vary between runs.
fn fingerprint(c: &Compiled) -> String {
    let s = &c.analysis.stats;
    format!(
        "lowered={} optimized={} locations={} edges={} walks={} relaxations={} passes={} \
         skipped={} to_free={}\n{}",
        c.lowered.instr_count(),
        c.optimized.instr_count(),
        s.locations,
        s.edges,
        s.solve.walks,
        s.solve.relaxations,
        s.solve.passes,
        s.solve.skipped_walks,
        s.to_free,
        c.instrumented_source(),
    )
}

/// Calls `f` on every statement of `block`, nested ones included.
fn each_stmt(block: &Block, f: &mut impl FnMut(&Stmt)) {
    for stmt in &block.stmts {
        each_nested(stmt, f);
    }
}

fn each_nested(stmt: &Stmt, f: &mut impl FnMut(&Stmt)) {
    f(stmt);
    match &stmt.kind {
        StmtKind::If { then, els, .. } => {
            each_stmt(then, f);
            if let Some(els) = els {
                each_nested(els, f);
            }
        }
        StmtKind::For {
            init, post, body, ..
        } => {
            for s in [init, post].into_iter().flatten() {
                each_nested(s, f);
            }
            each_stmt(body, f);
        }
        StmtKind::BlockStmt { block } => each_stmt(block, f),
        StmtKind::Switch { cases, default, .. } => {
            for case in cases {
                each_stmt(&case.body, f);
            }
            if let Some(default) = default {
                each_stmt(default, f);
            }
        }
        _ => {}
    }
}

/// Checks that every `tcfree` whose target was synthesized past
/// `expr_count` resolves to a variable (and, for a partial free, to typed
/// field projection); returns how many there were.
fn check_synthesized_frees(c: &Compiled, expr_count: u32, cell: &str) -> usize {
    let mut synthesized = 0;
    for func in &c.program.funcs {
        each_stmt(&func.body, &mut |stmt| {
            let StmtKind::Free { target, .. } = &stmt.kind else {
                return;
            };
            if target.id.0 < expr_count {
                return;
            }
            synthesized += 1;
            let ident = match &target.kind {
                ExprKind::Ident(_) => target,
                ExprKind::Field { base, .. } => {
                    assert!(c.types.expr(base.id).is_some(), "{cell}: untyped base");
                    assert!(c.types.expr(target.id).is_some(), "{cell}: untyped field");
                    base
                }
                other => panic!("{cell}: synthesized tcfree of {other:?}"),
            };
            assert!(
                c.resolution.def_of(ident.id).is_some(),
                "{cell}: tcfree target {} does not resolve",
                ident.id
            );
        });
    }
    synthesized
}

fn run_on(c: &Compiled, engine: VmEngine) -> String {
    let setting = match c.analysis.options.mode {
        Mode::Go => Setting::Go,
        Mode::GoFree => Setting::GoFree,
    };
    let cfg = RunConfig {
        engine,
        jobs: 1,
        ..RunConfig::deterministic(0)
    };
    execute(c, setting, &cfg)
        .unwrap_or_else(|e| panic!("{engine}: {e}"))
        .output
}

#[test]
fn compiling_twice_in_one_process_gives_the_same_outputs() {
    let mut synthesized = 0;
    for (name, src) in sources() {
        let expr_count = parse(&src).expect("generated source parses").expr_count;
        for (set, opts) in option_sets() {
            let cell = format!("{name}.{set}");
            let first = compile(&src, &opts).unwrap_or_else(|e| panic!("{cell}: {e}"));
            let second = compile(&src, &opts).unwrap_or_else(|e| panic!("{cell}: {e}"));
            assert_eq!(fingerprint(&first), fingerprint(&second), "{cell}");
            synthesized += check_synthesized_frees(&first, expr_count, &cell);
            assert_eq!(
                run_on(&first, VmEngine::TreeWalk),
                run_on(&first, VmEngine::Bytecode),
                "{cell}"
            );
        }
    }
    assert!(
        synthesized > 0,
        "no tcfree was synthesized: the check is vacuous"
    );
}

#[test]
fn decl_stmt_of_agrees_with_a_scan_of_every_declaration() {
    for (name, src) in sources() {
        let c = compile(&src, &CompileOptions::default()).expect("compiles");
        let res = &c.resolution;
        let mut scanned = vec![None; res.vars().len()];
        for func in &c.program.funcs {
            each_stmt(&func.body, &mut |stmt| {
                if let StmtKind::VarDecl { names, .. } | StmtKind::ShortDecl { names, .. } =
                    &stmt.kind
                {
                    for i in 0..names.len() {
                        let var = res.decl_of(stmt.id, i).expect("declared name resolves");
                        scanned[var.index()] = Some(stmt.id);
                    }
                }
            });
        }
        assert!(
            scanned.iter().any(Option::is_some),
            "{name}: no declarations"
        );
        for (i, want) in scanned.into_iter().enumerate() {
            let var = VarId(i as u32);
            assert_eq!(res.decl_stmt_of(var), want, "{name}: {var:?}");
        }
    }
}
