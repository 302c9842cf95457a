//! `bench <experiment> [options]`: runs one experiment of the GoFree
//! evaluation; `bench --list` names them. Every failure exits 1 with one
//! `bench: ...` line on stderr.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match gofree_bench::main_with(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("bench: {msg}");
            ExitCode::FAILURE
        }
    }
}
