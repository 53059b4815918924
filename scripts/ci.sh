#!/usr/bin/env bash
# Local mirror of .github/workflows/ci.yml — run before pushing.
#
# The fidelity and determinism jobs re-run the whole quick reproduce
# (once and twice respectively), which takes tens of minutes per run on
# a laptop core, so they are opt-in locally: BRANCHNET_CI_FIDELITY=1
# and/or BRANCHNET_CI_DETERMINISM=1. BRANCHNET_CI_CHAOS=1 re-runs the
# fault-injection suites at 8x the proptest case count (quick).
set -euo pipefail
cd "$(dirname "$0")/.."

cleanup() {
  rm -rf "${fresh:-}" "${runs:-}"
}
trap cleanup EXIT

echo "== build (offline, locked) =="
cargo build --offline --locked --workspace

echo "== build (release) =="
cargo build --release --workspace

echo "== test (release) =="
cargo test -q --release --workspace

echo "== benchmark builds and tests against the crates =="
# perfbench is a package of its own with its own lock file; a library
# change that breaks its build, or that would rewrite
# perfbench/Cargo.lock, fails here rather than in a benchmark run.
cargo test -q --release --offline --locked --manifest-path perfbench/Cargo.toml

echo "== predictor conformance (both lineups + hybrid) =="
# A named pass over the shared lane-conformance laws so a baseline of
# either family that skips lineup registration (or a predictor that
# violates the gauntlet/flush/determinism/storage/family laws) fails
# loudly, not buried in the workspace wall of tests.
cargo test -q --release -p branchnet-trace --test conformance
cargo test -q --release -p branchnet-tage --test conformance
cargo test -q --release -p branchnet-core --test conformance

echo "== nn kernels bit-identical to reference =="
# Conv1d's forward and backward must give every output and gradient
# element the bits of the scalar reference loops (the same additions in
# the same order), so every trained model and artifact stays
# byte-identical.
cargo test -q --release -p branchnet-nn --lib kernels_match_reference

echo "== target differential (ITTAGE vs last-target/BTB) =="
# ITTAGE must resolve the history-correlated interpreter-dispatch
# pattern (>0.95 post-warmup target accuracy) that both strawmen fail.
cargo test -q --release -p branchnet-tage --test differential ittage

echo "== trace format (v2 round trip + streaming) =="
cargo test -q --release -p branchnet-trace --test format

echo "== rustfmt =="
cargo fmt --all --check

echo "== clippy =="
cargo clippy --workspace --all-targets -- -D warnings

if [ "${BRANCHNET_CI_CHAOS:-0}" = "1" ]; then
  echo "== chaos (fault injection, 512 proptest cases, debug) =="
  # Debug profile on purpose: overflow/shift checks are live, so
  # arithmetic on corrupted values panics here even where release
  # would wrap silently.
  PROPTEST_CASES=512 cargo test -q -p branchnet-trace --test chaos
  PROPTEST_CASES=512 cargo test -q -p branchnet-core --test chaos
  PROPTEST_CASES=512 cargo test -q -p branchnet-tage --test chaos
fi

if [ "${BRANCHNET_CI_FIDELITY:-0}" = "1" ]; then
  echo "== fidelity gate =="
  fresh="$(mktemp -d)"
  BRANCHNET_SCALE=quick ./target/release/reproduce --json "$fresh/run" \
    > "$fresh/reproduce_output.txt"
  ./target/release/fidelity_gate "$fresh/run" --baseline baselines/quick
  for f in baselines/quick/*.json; do
    name="$(basename "$f")"
    [ "$name" = manifest.json ] && continue
    cmp "$f" "$fresh/run/$name"
  done
  sed -f scripts/normalize_output.sed reproduce_output.txt > "$fresh/committed.norm"
  sed -f scripts/normalize_output.sed "$fresh/reproduce_output.txt" > "$fresh/fresh.norm"
  diff -u "$fresh/committed.norm" "$fresh/fresh.norm"
fi

if [ "${BRANCHNET_CI_DETERMINISM:-0}" = "1" ]; then
  echo "== thread determinism =="
  runs="$(mktemp -d)"
  BRANCHNET_SCALE=quick BRANCHNET_THREADS=1 \
    ./target/release/reproduce --json "$runs/t1" > /dev/null
  BRANCHNET_SCALE=quick BRANCHNET_THREADS=4 \
    ./target/release/reproduce --json "$runs/t4" > /dev/null
  diff -r -x manifest.json "$runs/t1" "$runs/t4"
fi

echo "CI checks passed."
