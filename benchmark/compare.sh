#!/bin/sh
# compare.sh <bin-A> <bin-B> [--pairs N] [--seconds T] [--seed S]
#
# The protocol for a later gain claim (choosing-metrics section 8): two
# prebuilt benchmark executables, A = parent commit, B = the change,
# each from one `cargo build --release` of its own commit into its own
# target directory, e.g.
#
#   git clone . /tmp/parent && git -C /tmp/parent checkout <parent>
#   CARGO_TARGET_DIR=/tmp/tA cargo build --release --offline --manifest-path /tmp/parent/benchmark/Cargo.toml
#   CARGO_TARGET_DIR=/tmp/tB cargo build --release --offline --manifest-path benchmark/Cargo.toml
#   benchmark/compare.sh /tmp/tA/release/gofree-hostbench /tmp/tB/release/gofree-hostbench
#
# Runs >= 10 alternating pairs of timed runs per workload (a fresh seed
# per pair, the same for both sides), prints per-side median and
# quartiles, every ratio with its base, and calls a win only at >= 9/10
# pairs with a median gap wider than A's own interquartile spread. A
# claiming change may not edit benchmark/, so A's copy of the protocol is
# the one that runs.
set -e
[ $# -ge 2 ] || { sed -n '2,20p' "$0"; exit 2; }
a=$1; b=$2; shift 2
cd "$(dirname "$0")/.."
exec "$a" compare "$a" "$b" "$@"
