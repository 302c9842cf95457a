#!/bin/sh
# The one command: every workload, timed then traced, every metric by
# name with its unit, outputs checked. Run from the repo root; extra
# arguments (--seed, --seconds, --quick, --json) pass through.
set -e
cd "$(dirname "$0")/.."
exec cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- all "$@"
