//! Reference outputs for the default seed, blessed once and compiled in:
//! the run path only ever reads them.

use crate::harness::Outputs;
use crate::metrics::{DEFAULT_SEED, WORKLOADS};

const FILES: [&str; 4] = [
    include_str!("../expected/compile-corpus.txt"),
    include_str!("../expected/batch-matrix.txt"),
    include_str!("../expected/service-steady.txt"),
    include_str!("../expected/gc-pressure.txt"),
];

fn parse(text: &str) -> Outputs {
    text.lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .filter_map(|l| l.split_once(' '))
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect()
}

/// Checks `outputs` against `expected/<workload>.txt`. Keys name a
/// program (a fuzz program by its own generator seed), so a key found in
/// the file must match under any `--seed`; under the default seed every
/// key must be found.
pub fn check(workload: &str, seed: u64, outputs: &Outputs) -> Result<(), String> {
    let at = WORKLOADS
        .iter()
        .position(|w| *w == workload)
        .ok_or_else(|| format!("unknown workload {workload}"))?;
    let expected = parse(FILES[at]);
    for (key, got) in outputs {
        match expected.iter().find(|(k, _)| k == key) {
            Some((_, want)) if want != got => {
                return Err(format!("{workload}: {key}: expected `{want}`, got `{got}`"));
            }
            None if seed == DEFAULT_SEED => {
                return Err(format!(
                    "{workload}: {key} is not in expected/{workload}.txt (run `bless`)"
                ));
            }
            _ => {}
        }
    }
    Ok(())
}

/// Writes `expected/<workload>.txt` under `dir`; `bless` calls this only
/// after all three engine configurations agreed on every cell.
pub fn write(dir: &std::path::Path, workload: &str, outputs: &Outputs) -> std::io::Result<()> {
    let mut text = format!(
        "# {workload}, seed {DEFAULT_SEED}: written by `bless` after bytecode/full, bytecode/off\n\
         # and tree-walk agreed on every cell. Never edited by hand.\n"
    );
    for (k, v) in outputs {
        text.push_str(&format!("{k} {v}\n"));
    }
    std::fs::write(dir.join(format!("{workload}.txt")), text)
}
