//! Regenerates table 3: the points-to set of fig. 1's `pd2` under the
//! three escape analyses — Fast Escape Analysis (O(N)), the Go escape
//! graph (O(N²)), and the connection graph (O(N³)).

use crate::{verdict, Options};
use gofree::cli::Observed;
use minigo_escape::baseline::{conn, fast};
use minigo_escape::{
    build_func_graph, points_to, solve, Labels, LocKind, SolveConfig,
};
use minigo_syntax::{frontend, IdMap, VarId};

/// The paper's fig. 1 program (MiniGo syntax).
const FIG1: &str = r#"
type Big struct {
    fat []int
    p *int
}

func fig1(c int, d int) *int {
    s := make([]int, 10)
    bigObj := Big{s, &c}
    pc := &c
    pd := &d
    ppd := &pd
    *ppd = pc
    pd2 := *ppd
    bigObj.p = pd2
    return pd2
}
"#;

pub fn run(_: &Options) -> Result<Option<Observed>, String> {
    let (program, res, types) = frontend(FIG1).expect("fig. 1 compiles");
    let func = program.func("fig1").expect("fig1").clone();
    let var_named = |name: &str| -> VarId {
        VarId(
            res.vars()
                .iter()
                .position(|v| v.name == name)
                .unwrap_or_else(|| panic!("no var {name}")) as u32,
        )
    };
    let pd2 = var_named("pd2");
    let name_of = |v: VarId| res.var(v).name.clone();
    let set = |names: &[String]| format!("{{{}}}", names.join(", "));

    println!("Table 3: PointsTo(L(pd2)) in different escape analyses");
    println!("(program: fig. 1; the indirect store *ppd = pc is the untracked flow)\n");
    println!(
        "{:<22} {:<12} {:<28} complete?",
        "Method", "Complexity", "PointsTo(L(pd2))"
    );

    // Fast Escape Analysis.
    let f = fast::analyze_func(&program, &res, &types, &func);
    let fast_pts: Vec<String> = f
        .points_to(pd2)
        .into_iter()
        .map(|p| match p {
            fast::Pointee::Var(v) => name_of(v),
            fast::Pointee::Alloc(e) => format!("alloc@{e}"),
        })
        .collect();
    println!(
        "{:<22} {:<12} {:<28} {}",
        "Fast Esc. Analysis",
        "O(N)",
        set(&fast_pts),
        if f.is_incomplete(pd2) {
            "no (deref untracked)"
        } else {
            "yes"
        }
    );

    // Go escape graph (+ GoFree completeness analysis).
    let mut fg = build_func_graph(
        &program,
        &res,
        &types,
        &func,
        &IdMap::default()
    );
    solve(&mut fg.graph, &SolveConfig::default());
    let loc = fg.loc_of(pd2);
    let labels = Labels::new(&program, &res, func.id);
    let go_pts: Vec<String> = points_to(&fg.graph, loc)
        .into_iter()
        .filter(|l| {
            matches!(
                fg.graph.loc(*l).kind,
                LocKind::Var(_) | LocKind::Alloc(_, _)
            )
        })
        .map(|l| labels.of(&fg.graph.loc(l).kind))
        .collect();
    println!(
        "{:<22} {:<12} {:<28} {}",
        "Go esc. graph",
        "O(N^2)",
        set(&go_pts),
        if fg.graph.loc(loc).incomplete {
            "no (GoFree: Incomplete, not freed)"
        } else {
            "yes"
        }
    );

    // Connection graph.
    let c = conn::analyze_func(&program, &res, &types, &func);
    let mut conn_pts: Vec<String> = c
        .points_to(pd2)
        .into_iter()
        .filter_map(|n| match n {
            conn::Node::Var(v) => Some(name_of(v)),
            conn::Node::Alloc(e) if e.0 < program.expr_count => Some(format!("alloc@{e}")),
            _ => None,
        })
        .collect();
    conn_pts.sort();
    println!(
        "{:<22} {:<12} {:<28} yes (tracks indirect stores)",
        "Conn. graph",
        "O(N^3)",
        set(&conn_pts)
    );

    // Paper table 3's shape, each row checked.
    let has = |names: &[String], n: &str| names.iter().any(|x| x == n);
    println!();
    println!(
        "Fast loses the whole set at the dereference ({}): {}",
        set(&fast_pts),
        verdict(fast_pts.is_empty())
    );
    println!(
        "Go sees d but misses c, the flow through *ppd ({}): {}",
        set(&go_pts),
        verdict(has(&go_pts, "d") && !has(&go_pts, "c"))
    );
    println!(
        "GoFree flags pd2 Incomplete, so it is never freed: {}",
        verdict(fg.graph.loc(loc).incomplete)
    );
    println!(
        "Conn. graph is complete ({}): {}",
        set(&conn_pts),
        verdict(has(&conn_pts, "c") && has(&conn_pts, "d"))
    );
    assert!(fast_pts.is_empty(), "fast analysis must lose the set");
    assert!(
        has(&go_pts, "d") && !has(&go_pts, "c"),
        "Go graph sees d but not c: {go_pts:?}"
    );
    assert!(
        has(&conn_pts, "c") && has(&conn_pts, "d"),
        "connection graph sees both: {conn_pts:?}"
    );
    assert!(fg.graph.loc(loc).incomplete, "GoFree flags pd2 incomplete");
    println!("\nAll table 3 invariants hold.");
    Ok(None)
}
