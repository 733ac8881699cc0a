#!/usr/bin/env bash
# Tier-1 gate plus lints: everything that must be green before merging.
#
#   scripts/check.sh
#
# Runs the release build, the full test suite, clippy and rustdoc with
# warnings promoted to errors. Fails fast on the first broken step.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test --workspace -q (chaos matrix capped at ${PIM_CHAOS_SEEDS:-8} seeds/family)"
# Every crate's unit and integration tests, not just the root package's.
# The seeded chaos matrices (crates/{harness,serve,fleet}/tests/
# chaos_matrix.rs) default to 64 seeds per fault family; the gate caps
# them so the loop stays fast, and this is the one place check.sh runs
# them. The full matrix is `PIM_CHAOS_SEEDS=64 cargo test -q -p
# pim-harness -p pim-serve -p pim-fleet --test chaos_matrix`.
PIM_CHAOS_SEEDS="${PIM_CHAOS_SEEDS:-8}" cargo test --workspace -q

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --workspace --no-deps (rustdoc warnings are errors)"
# Broken intra-doc links fail here: a deleted module that crate docs
# still link to, a link to a private item, an unresolved name.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> cargo check: perfbench against this tree's crates"
# perfbench is a workspace of its own that calls pim-bench's sweep and
# scorecard functions by path, so nothing above compiles it: a changed
# signature would first show up as a failed benchmark run. Writes only
# the git-ignored perfbench/target.
cargo check --offline --locked --manifest-path perfbench/Cargo.toml --all-targets

echo "==> trace-overhead bench (smoke)"
# Prints the disabled, metrics-only and enabled tracer overhead, the
# case a server meets: two threads running the kernel at once into one
# metrics-only tracer, as wall time per run beside the one-thread
# metrics-only time, and the best-of-N Chrome export of the enabled run
# with its byte count. Print-only; all three lines must be there.
trace_out=$(cargo bench -q -p pim-bench --bench trace_overhead -- --smoke)
echo "$trace_out"
echo "$trace_out" | grep -q "metrics-only tracer" \
    || { echo "trace_overhead bench: metrics-only tracer case missing"; exit 1; }
echo "$trace_out" | grep -q "2 threads on one tracer" \
    || { echo "trace_overhead bench: two-thread shared-tracer case missing"; exit 1; }
echo "$trace_out" | grep -q "chrome export of the enabled run" \
    || { echo "trace_overhead bench: chrome export case missing"; exit 1; }

echo "==> hotpath bench: ranged_vs_scalar (smoke)"
# Prints the ranged-descriptor engine against the per-row scalar walk on
# all three ports, plain and traced under a throttle-only fault plan; the
# bit-identity of the two paths is enforced by
# tests/hotpath_differential.rs, this just keeps the bench compiling and
# running.
hotpath_out=$(cargo bench -q -p pim-bench --bench hotpath -- --smoke)
for case in ranged_vs_scalar/ranged_64k ranged_vs_scalar/traced_faulted_ranged_64k; do
    echo "$hotpath_out" | grep -q "$case" \
        || { echo "hotpath bench: $case case missing"; exit 1; }
done

echo "==> harness selftest (injected panic + hung simulation)"
# Small supervised sweep: two real kernel jobs, one injected panic, one
# watchdog-tripped runaway. The binary exits non-zero unless the failure
# report shows exactly 2 succeeded / 1 failed (panic) / 1 quarantined
# (watchdog-timeout); we additionally assert the counts from the JSON.
selftest_out=$(cargo run -q --release -p pim-bench --bin repro -- --selftest-harness 2>/dev/null)
echo "$selftest_out" | grep -q '"succeeded":2' || { echo "selftest: missing succeeded=2"; exit 1; }
echo "$selftest_out" | grep -q '"quarantined":1' || { echo "selftest: missing quarantined=1"; exit 1; }
echo "$selftest_out" | grep -q '"failed":1' || { echo "selftest: missing failed=1"; exit 1; }
echo "$selftest_out" | grep -q '"panic":1' || { echo "selftest: missing panic taxonomy"; exit 1; }
echo "$selftest_out" | grep -q '"watchdog-timeout":1' || { echo "selftest: missing watchdog taxonomy"; exit 1; }

echo "==> scorecard run: repro --json, scorecard drift + share-partition + attribution drift gates"
# One scorecard sweep writes both archives: BENCH_repro.json (simulated
# scorecard + wall-clock timing) and BENCH_explain.json (the same runs'
# bottleneck attribution). Both are deleted first, so every gate below
# reads this run's files and a run that wrote nothing cannot pass on the
# committed copies. The scorecard block must not drift from the
# committed file: the timing fields move run to run by design, the
# simulated results must not — the ranged access engine and any future
# perf work are held to bit-identical scorecards.
# (The colon keeps the newer "scorecard_summary" line out of the match.)
committed=$(git show HEAD:BENCH_repro.json 2>/dev/null | grep '"scorecard":' || true)
rm -f BENCH_repro.json BENCH_explain.json
cargo run -q --release -p pim-bench --bin repro -- --json >/dev/null
current=$(grep '"scorecard":' BENCH_repro.json)
if [[ -n "$committed" && "$committed" != "$current" ]]; then
    echo "perf smoke: scorecard drifted from committed BENCH_repro.json"
    echo "committed: $committed"
    echo "current:   $current"
    exit 1
fi
grep -o '"wall_ms": [0-9]*' BENCH_repro.json | head -1
# Every record's cycle- and energy-share vector must sum to 1 (the
# attribution must be a true partition of the modeled cost), and the
# headline gap must name one of the six components as dominant.
python3 - <<'EOF'
import json
doc = json.load(open('BENCH_explain.json'))
for r in doc['records']:
    for key in ('cycle_ps', 'energy_pj'):
        lanes = {k: v for k, v in r[key].items() if k != 'total'}
        total = sum(lanes.values())
        if total <= 0:
            raise SystemExit(f"explain: {r['kernel']}/{r['mode']} {key} total {total}")
        share_sum = sum(v / total for v in lanes.values())
        if abs(share_sum - 1.0) > 1e-9:
            raise SystemExit(f"explain: {r['kernel']}/{r['mode']} {key} shares sum {share_sum}")
        if 'total' in r[key] and abs(r[key]['total'] - total) > 1e-6 * max(total, 1.0):
            raise SystemExit(f"explain: {r['kernel']}/{r['mode']} {key} total field disagrees")
labels = ('compute', 'cache', 'coherence', 'dram-queue', 'dram-service', 'pim-link')
dominant = doc.get('headline_gap', {}).get('attribution', {}).get('dominant_component')
if dominant not in labels:
    raise SystemExit(f"explain: headline gap names no dominant component (got {dominant!r})")
print(f"explain: {len(doc['records'])} records, shares partition to 1.0, dominant component {dominant}")
EOF
# The attribution must also match the committed file byte for byte, as
# BENCH_fleet.json must below: it is a pure function of the simulator,
# so any drift is a real change in what the kernels, the memory model or
# the energy model report.
if git cat-file -e HEAD:BENCH_explain.json 2>/dev/null \
    && ! cmp -s <(git show HEAD:BENCH_explain.json) BENCH_explain.json; then
    echo "explain: BENCH_explain.json drifted from the committed report"
    diff <(git show HEAD:BENCH_explain.json) BENCH_explain.json | head -20
    exit 1
fi

echo "==> fleet sweep: 1M-device population + report drift gate"
# One full-scale fleet sweep in the repo root: appends a `fleet-sweep`
# wall-time line to BENCH_history.jsonl (so the perf gate below budgets
# it — the 10k smoke sweeps run in temp dirs and feed nothing) and
# regenerates BENCH_fleet.json, which must match the committed report
# byte for byte: it is a pure function of the sweep key, so any drift
# is a real behavior change in the sampler, the energy model, or the
# sketches.
cargo run -q --release -p pim-bench --bin repro -- \
    --fleet --devices 1000000 --seed 7 --jobs 2 >/dev/null
# (Compare the raw blobs: command substitution would strip the report's
# trailing newline and trip the gate on byte-identical files.)
if git cat-file -e HEAD:BENCH_fleet.json 2>/dev/null \
    && ! cmp -s <(git show HEAD:BENCH_fleet.json) BENCH_fleet.json; then
    echo "fleet sweep: BENCH_fleet.json drifted from the committed report"
    diff <(git show HEAD:BENCH_fleet.json) BENCH_fleet.json | head -20
    exit 1
fi

echo "==> chaos smoke: SIGKILL mid-sweep, recovered rerun byte-identical"
scripts/chaos_smoke.sh

echo "==> fleet smoke: 10k-device sweep, kill+resume bit-identity, quarantine replay"
scripts/fleet_smoke.sh

echo "==> perf gate: history vs committed BENCH_baseline.json"
# The --json and --fleet runs above appended this run's timings to
# BENCH_history.jsonl (the smokes run in temp dirs and append nothing);
# gate on the median of the recent window (machine-speed corrected,
# warn >10%, fail >25%, noise floor 50 ms). It runs last because wall
# clock on a loaded host can fail it where every deterministic check
# above passes, and `set -e` would then skip the checks after it.
if [[ -f BENCH_baseline.json ]]; then
    cargo run -q --release -p pim-bench --bin repro -- --perf-gate
else
    echo "perf gate: no BENCH_baseline.json committed yet; skipping"
fi

echo "==> all checks passed"
