//! A tour of the escape analysis on the paper's own examples: fig. 1
//! (completeness), fig. 3 (stack allocation vs explicit deallocation),
//! fig. 6 (nested scopes), and fig. 7 (content tags across calls).
//!
//! ```sh
//! cargo run --example escape_tour
//! ```

use minigo_escape::{
    analyze, build_func_graph, instrument, points_to, solve, AnalyzeOptions, BuildOptions,
    SolveConfig,
};
use minigo_syntax::{frontend, print_program, IdMap};

fn banner(title: &str) {
    println!("\n{}", "=".repeat(66));
    println!("{title}");
    println!("{}", "=".repeat(66));
}

fn show_instrumented(src: &str) {
    let (program, mut res, types) = frontend(src).expect("compiles");
    let analysis = analyze(&program, &res, &types, &AnalyzeOptions::default());
    let out = instrument(&program, &mut res, &analysis);
    println!("{}", print_program(&out));
}

fn main() {
    banner("fig. 3 — stack allocation vs explicit deallocation");
    let fig3 = r#"
func analyses(n int) {
    s1 := make([]int, 335)
    s1[0] = 1
    for i := 1; i < n; i += 1 {
        s2 := make([]int, i)
        s2[0] = i
    }
}

func main() {
    analyses(8)
}
"#;
    println!("make1 (constant size, non-escaping) is stack allocated;");
    println!("make2 (dynamic size) is heap allocated and gets a tcfree:\n");
    show_instrumented(fig3);

    banner("fig. 1 — the escape graph and completeness analysis");
    let fig1 = r#"
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
    return pd2
}

func main() {
    x := 0
    x = x
}
"#;
    let (program, res, types) = frontend(fig1).expect("compiles");
    let func = program.func("fig1").unwrap().clone();
    let mut fg = build_func_graph(
        &program,
        &res,
        &types,
        &func,
        &IdMap::default(),
        &BuildOptions::default(),
    );
    solve(&mut fg.graph, &SolveConfig::default());
    println!("solved properties per location (table 1):\n");
    for id in fg.graph.ids() {
        let l = fg.graph.loc(id);
        if matches!(l.kind, minigo_escape::LocKind::Var(_)) {
            let pts: Vec<String> = points_to(&fg.graph, id)
                .into_iter()
                .map(|p| fg.graph.loc(p).name.clone())
                .collect();
            println!(
                "{:<8} HeapAlloc={:<5} Exposes={:<5} Incomplete={:<5} Outlived={:<5} PointsTo={{{}}}",
                l.name,
                l.heap_alloc,
                l.exposes,
                l.incomplete,
                l.outlived,
                pts.join(", ")
            );
        }
    }

    banner("fig. 6 — nested scopes: s1 and s2 freeable, s3 outlived");
    let fig6 = r#"
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

func main() {
    nested(6)
}
"#;
    show_instrumented(fig6);

    banner("fig. 7 — content tags: fresh freed in the caller, old is not");
    let fig7 = r#"
func partialNew(ps *[]int) (r0 []int, r1 []int) {
    pps := &ps
    *pps = ps
    made := make([]int, 3)
    made[0] = 1
    return made, **pps
}

func main() {
    s := make([]int, 5)
    fresh, old := partialNew(&s)
    fresh[0] = old[0]
}
"#;
    show_instrumented(fig7);
    println!("(`fresh` receives the callee's make through the content tag and is freed;");
    println!(" `old` is incomplete — the callee's indirect store — and is left to GC.)");
}
