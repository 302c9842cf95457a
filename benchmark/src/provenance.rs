//! Where a set of numbers came from: the header of `out/latest.json`.

use std::process::Command;

use crate::{batch, compile, service};

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split_once(':')?.1.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// `"a=1,b=2"` for a table of size constants.
fn pairs<'a, K: std::fmt::Display + 'a, V: std::fmt::Display + 'a>(
    table: impl Iterator<Item = &'a (K, V)>,
) -> String {
    let cells: Vec<String> = table.map(|(k, v)| format!("{k}={v}")).collect();
    format!("\"{}\"", cells.join(","))
}

/// The JSON header object: commit, toolchain, host, and every constant
/// that sizes a run.
pub fn header(seed: u64, seconds: u64, quick: bool) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let fields = [
        (
            "git_commit",
            format!("\"{}\"", command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc", format!("\"{}\"", command_line("rustc", &["-V"]))),
        ("nproc", nproc.to_string()),
        ("cpu_model", format!("\"{}\"", cpu_model())),
        ("seed", seed.to_string()),
        ("seconds", seconds.to_string()),
        ("quick", quick.to_string()),
        ("warmups", crate::WARMUPS.to_string()),
        ("setup_repeats_min", crate::SETUP_REPEATS.0.to_string()),
        ("setup_repeats_max", crate::SETUP_REPEATS.1.to_string()),
        ("traced_iters", crate::TRACED_ITERS.to_string()),
        ("compile_corpus_funcs", compile::CORPUS_FUNCS.to_string()),
        ("compile_fuzz_programs", compile::FUZZ_PROGRAMS.to_string()),
        ("batch_scale", format!("\"{:?}\"", batch::SCALE)),
        ("batch_min_heap", batch::MIN_HEAP.to_string()),
        ("steady_requests", service::STEADY_REQUESTS.to_string()),
        ("steady_rps", pairs(service::STEADY_RPS.iter())),
        ("pressure_nodes", service::PRESSURE_NODES.to_string()),
        (
            "pressure_requests",
            pairs(service::PRESSURE_REQUESTS.iter()),
        ),
        ("pressure_rps", service::PRESSURE_RPS.to_string()),
        ("pressure_gogc", service::PRESSURE_GOGC.to_string()),
        ("pressure_min_heap", service::PRESSURE_MIN_HEAP.to_string()),
    ];
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    format!("{{{}}}", body.join(", "))
}

#[cfg(test)]
mod tests {
    /// The lines of a manifest's `[profile.release]` table.
    fn release_profile(manifest: &str) -> Vec<String> {
        manifest
            .lines()
            .skip_while(|l| l.trim() != "[profile.release]")
            .skip(1)
            .take_while(|l| !l.trim_start().starts_with('['))
            .map(|l| l.split('#').next().unwrap_or("").trim().to_string())
            .filter(|l| !l.is_empty())
            .collect()
    }

    /// Build settings change speed without changing code, so the
    /// benchmark must be built the way the repo's own binaries are.
    #[test]
    fn release_profile_equals_the_root_manifest() {
        let root = release_profile(include_str!("../../Cargo.toml"));
        let ours = release_profile(include_str!("../Cargo.toml"));
        assert!(!root.is_empty(), "root manifest has no [profile.release]");
        assert_eq!(ours, root);
    }
}
