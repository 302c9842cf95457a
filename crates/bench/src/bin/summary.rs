//! One-page reproduction summary: runs a quick pass of every experiment
//! and prints the paper-vs-measured verdicts. Useful as a smoke test of
//! the whole artifact (`--runs`/`--quick` apply).

use gofree::{compile, execute, table7_row, table9_row, AuditMode, CompileOptions, Setting};
use gofree_bench::{pct, run_three_settings, HarnessOptions};

fn main() {
    let opts = HarnessOptions::from_args();
    let runs = opts.runs.min(15);
    let base = opts.run_config();
    println!(
        "GoFree reproduction summary ({runs} runs per setting, scale: {:?}, engine: {})\n",
        opts.scale(),
        opts.engine
    );

    let mut time = Vec::new();
    let mut gcs = Vec::new();
    let mut free = Vec::new();
    println!(
        "{:<10} {:>6} {:>6} {:>6}   reclamation S/M/G",
        "project", "time", "GCs", "free"
    );
    for w in gofree_workloads::all(opts.scale()) {
        let (go, gofree, gcoff) = run_three_settings(&w.source, runs, &base);
        let row = table7_row(w.name, &go, &gofree, &gcoff);
        let t9 = table9_row(w.name, &gofree[0]);
        println!(
            "{:<10} {:>6} {:>6} {:>6}   {:>3.0}/{:<3.0}/{:<3.0}",
            row.project,
            pct(row.time.ratio),
            pct(row.gcs.ratio),
            pct(row.free_ratio),
            t9.free_slice * 100.0,
            t9.free_map * 100.0,
            t9.grow_map * 100.0,
        );
        time.push(row.time.ratio);
        gcs.push(row.gcs.ratio);
        free.push(row.free_ratio);
    }
    let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    println!(
        "{:<10} {:>6} {:>6} {:>6}",
        "average",
        pct(avg(&time)),
        pct(avg(&gcs)),
        pct(avg(&free))
    );
    println!("paper      {:>6} {:>6} {:>6}", "98%", "93%", "14%");

    // Headline invariants the artifact must uphold. (At --quick scale the
    // workloads barely trigger GC, so allow time to sit at parity + noise;
    // the full scale reproduces the paper's 98%.)
    let slack = if opts.quick { 1.02 } else { 1.005 };
    assert!(
        avg(&time) <= slack,
        "GoFree must not lose on average: {:.3}",
        avg(&time)
    );
    assert!(avg(&gcs) < 1.0, "GoFree must reduce collections");
    assert!(avg(&free) > 0.05, "GoFree must reclaim a real fraction");

    // Free-safety audit: recompile every workload under `--audit deny`
    // and report, via the run metric, how much reclamation the auditor
    // refused to prove. A healthy artifact suppresses nothing.
    let deny = CompileOptions {
        audit: AuditMode::Deny,
        ..CompileOptions::default()
    };
    let mut audited_sites = 0usize;
    let mut suppressed = 0u64;
    for w in gofree_workloads::all(opts.scale()) {
        let c = compile(&w.source, &deny).expect("workload compiles under deny");
        audited_sites += c.audit.as_ref().expect("audit ran").sites.len();
        let report = execute(&c, Setting::GoFree, &base).expect("audited workload runs");
        suppressed += report.metrics.frees_suppressed;
    }
    println!(
        "\naudit (deny): {suppressed} of {audited_sites} free sites suppressed across workloads \
         (run `--bin audit` for the full sweep)"
    );
    assert_eq!(suppressed, 0, "the auditor must prove every workload free");

    // Table 3's precision ladder.
    let fig1 = "func fig1(c int, d int) *int { pc := &c\n pd := &d\n ppd := &pd\n *ppd = pc\n pd2 := *ppd\n return pd2 }\nfunc main() { x := 0\n x = x }\n";
    let compiled = compile(fig1, &Setting::GoFree.compile_options()).expect("fig1");
    let f = compiled.program.func("fig1").unwrap().id;
    let fg = &compiled.analysis.funcs[f];
    let pd2 = fg
        .graph
        .ids()
        .find(|&i| fg.graph.loc(i).name == "pd2")
        .unwrap();
    assert!(fg.graph.loc(pd2).incomplete);
    println!("\ntable 3: Go graph's PointsTo(pd2) flagged Incomplete -> never freed  OK");
    println!("robustness: run `--bin robustness` / `--bin fuzz` for the soundness suite");
    println!("\nAll headline invariants hold.");

    // `--trace PATH`: export one traced GoFree run of the json workload.
    if opts.trace.is_some() {
        let w = gofree_workloads::by_name("json", opts.scale()).expect("json workload");
        let c = compile(&w.source, &Setting::GoFree.compile_options()).expect("compiles");
        let r = execute(&c, Setting::GoFree, &base).expect("workload runs");
        opts.emit_observability(&r, &c.phase_times);
    }
}
