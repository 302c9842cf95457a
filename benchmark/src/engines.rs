//! The differential check every setup runs: the measured engine
//! configuration against the independent ones.

use gofree::{OptLevel, RunConfig, VmEngine};

/// Runs `run` under bytecode/full (the measured configuration), the
/// tree-walk at `OptLevel::Off`, and — for `bless` — bytecode/off, and requires every `digest` to equal the first.
/// Returns the bytecode/full result.
pub fn agree<R>(
    base: &RunConfig,
    bless: bool,
    run: impl Fn(&RunConfig) -> Result<R, String>,
    digest: impl Fn(&R) -> String,
) -> Result<R, String> {
    let measured = run(&RunConfig {
        engine: VmEngine::Bytecode,
        opt: OptLevel::Full,
        ..base.clone()
    })?;
    let mut others = vec![(VmEngine::TreeWalk, OptLevel::Off)];
    if bless {
        others.push((VmEngine::Bytecode, OptLevel::Off));
    }
    for (engine, opt) in others {
        let other = run(&RunConfig {
            engine,
            opt,
            ..base.clone()
        })?;
        if digest(&other) != digest(&measured) {
            return Err(format!(
                "{engine}/{opt} disagrees with bytecode/full: `{}` vs `{}`",
                digest(&other),
                digest(&measured)
            ));
        }
    }
    Ok(measured)
}
