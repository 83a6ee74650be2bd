#!/usr/bin/env bash
# Pre-PR gate: formatting, lints, the tier-1 build/test pair and the
# simbench correctness gate, all offline (the build environment has no
# crate registry — see DESIGN.md §3) and --locked, so a drifted
# Cargo.lock fails loudly instead of resolving.
#
# Usage:
#   scripts/check.sh                       # the full gate (default)
#   scripts/check.sh determinism [MODE]    # just the determinism suite,
#                                          # MODE ∈ {fastpath (default),
#                                          #         no-fastpath, sm, multivi}
#   scripts/check.sh campaign [SECS]       # long timeboxed simcheck
#                                          # campaign (default 600 s),
#                                          # resuming the committed state
#
# The determinism and campaign stages are what CI's jobs call, so the
# exact commands — and the engine-mode environment they run under — live
# here and can never drift from the workflows.
set -euo pipefail
cd "$(dirname "$0")/.."

determinism_suite() {
    # Test-name filter for the cargo test invocation; empty runs the
    # whole suite. The multivi leg runs only the multi-VI striping tests
    # (repeat, cross-backend, jobs-count and counter-name byte-equality
    # at vis_per_peer ∈ {1,4}) — they pin their own backends internally,
    # so the leg needs no mode environment.
    filter=""
    case "${1:-fastpath}" in
        fastpath) ;;
        no-fastpath) export VIAMPI_NO_FASTPATH=1 ;;
        sm) export VIAMPI_ENGINE=sm ;;
        multivi) filter="multivi" ;;
        *)
            echo "check.sh: unknown determinism mode '${1}'" >&2
            exit 2
            ;;
    esac
    echo "== determinism suite (mode: ${1:-fastpath})"
    # shellcheck disable=SC2086  # $filter is an optional bare test filter
    cargo test --release --offline --locked -p viampi-bench --test determinism $filter
}

# Timeboxed coverage-directed campaign for $1 seconds, resuming a scratch
# copy of the committed frontier baseline. The committed state only moves
# when a maintainer commits a refreshed map (see tests/corpus/README.md).
# The stage always replays the full minimized corpus
# (tests/corpus/minimized.seeds) before exploring, then pushes the
# coverage frontier for the wall budget; any new violation is shrunk,
# appended to the corpus, and fails the stage. Artifacts land under
# target/campaign/ (state.json + summary.json).
campaign_stage() {
    mkdir -p target/campaign
    cp tests/corpus/campaign_state.json target/campaign/state.json
    cargo run -q --release --offline --locked -p viampi-bench --bin simcheck -- \
        --campaign target/campaign/state.json --timebox "$1" --fault heavy \
        --summary-out target/campaign/summary.json
}

if [[ "${1:-all}" == "determinism" ]]; then
    determinism_suite "${2:-fastpath}"
    exit 0
fi

if [[ "${1:-all}" == "campaign" ]]; then
    echo "== simcheck campaign (timebox: ${2:-600}s, resumes committed coverage)"
    campaign_stage "${2:-600}"
    exit 0
fi

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets --offline --locked -- -D warnings

echo "== tier-1: cargo build --release (offline)"
cargo build --release --offline --locked

echo "== tier-1: cargo test -q (offline, full workspace)"
cargo test -q --offline --locked --workspace

echo "== simbench: smoke test + reference-equality gate (release)"
# The benchmark's own tests: every workload's reference pass must equal
# the committed results/*.json bytes, so a hot-path change that breaks
# byte-identity fails here, before the PR.
cargo test --release --offline --locked --manifest-path simbench/Cargo.toml

echo "== determinism suite under the state-machine backend (VIAMPI_ENGINE=sm)"
# Subshell: the mode's exported environment must not leak into later stages.
(determinism_suite sm)

echo "== simcheck campaign frontier (timeboxed, resumes committed coverage)"
campaign_stage 20

echo "all checks passed"
