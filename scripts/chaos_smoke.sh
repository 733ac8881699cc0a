#!/usr/bin/env bash
# Chaos smoke: process death, end to end.
#
#   scripts/chaos_smoke.sh
#
# SIGKILL the pim-serve sweep service mid-run, restart it on the same
# journal, rerun the client, and require the recovered sweep's stdout to
# be byte-identical to an uninterrupted serial run. Exercises, over a
# real TCP socket and a real process kill: write-ahead journaling,
# idempotent re-submission, journal replay of finished jobs, and
# re-execution of jobs the crash destroyed.
#
# The seeded I/O-fault matrices (crates/{harness,serve,fleet}/tests/
# chaos_matrix.rs: torn writes, short reads, interrupt storms, disk-full
# onsets, mid-stream connection resets) are ordinary integration tests:
# `cargo test --workspace` runs them at PIM_CHAOS_SEEDS seeds per family
# (check.sh and CI: 8), and the full matrix is
#
#   PIM_CHAOS_SEEDS=64 cargo test -q -p pim-harness -p pim-serve -p pim-fleet --test chaos_matrix
#
# Assumes target/release/repro is already built (scripts/check.sh builds
# it first).
set -euo pipefail
cd "$(dirname "$0")/.."

repro=target/release/repro
cargo build -q --release -p pim-bench --bin repro

chaos_dir=$(mktemp -d)
trap 'rm -rf "$chaos_dir"' EXIT
port=$(( 20000 + $$ % 20000 ))
addr="127.0.0.1:$port"

# The uninterrupted reference run (stdout only; the harness summary goes
# to stderr by design).
"$repro" > "$chaos_dir/serial.txt" 2>/dev/null

wait_for_port() {
    for _ in $(seq 1 100); do
        if (exec 3<>"/dev/tcp/127.0.0.1/$port") 2>/dev/null; then
            exec 3>&- 3<&-
            return 0
        fi
        sleep 0.1
    done
    echo "chaos smoke: server never came up on $addr"
    return 1
}

# Round 1: serve with a journal, let the client submit everything, then
# SIGKILL the server mid-sweep. The client's death is expected collateral.
"$repro" --serve "$addr" --jobs 2 --journal "$chaos_dir/serve.jsonl" 2>/dev/null &
server_pid=$!
wait_for_port
( "$repro" --connect "$addr" >/dev/null 2>&1 || true ) &
client_pid=$!
sleep 1
kill -9 "$server_pid" 2>/dev/null || true
wait "$server_pid" 2>/dev/null || true
wait "$client_pid" 2>/dev/null || true

# Round 2: restart on the same journal. Finished jobs replay from the
# journal; destroyed ones re-run. The client rerun re-attaches by id and
# must print byte-identical stdout, then drain the server.
"$repro" --serve "$addr" --jobs 2 --journal "$chaos_dir/serve.jsonl" 2>/dev/null &
server_pid=$!
wait_for_port
"$repro" --connect "$addr" --drain > "$chaos_dir/served.txt" 2>/dev/null
wait "$server_pid"

if ! cmp -s "$chaos_dir/serial.txt" "$chaos_dir/served.txt"; then
    echo "chaos smoke: recovered sweep output diverged from the serial run"
    diff "$chaos_dir/serial.txt" "$chaos_dir/served.txt" | head -20
    exit 1
fi
echo "chaos smoke: ok (recovered sweep byte-identical to serial run)"
