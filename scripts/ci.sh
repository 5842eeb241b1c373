#!/usr/bin/env bash
# The repository's CI gate, runnable locally: formatting, lints, tests.
#
# Everything runs --offline: every dependency is a crate of this workspace
# (DESIGN.md §6), so the committed Cargo.lock names path crates only and
# nothing is ever fetched. The first gate below fails on any registry or git
# dependency; if a later step fails on `--offline`, the change added one —
# revert it.
#
# Usage: scripts/ci.sh [--no-fmt]   (skip rustfmt, e.g. if not installed)

set -euo pipefail
cd "$(dirname "$0")/.."

run() {
    echo "==> $*"
    "$@"
}

if [[ "${1:-}" != "--no-fmt" ]]; then
    run cargo fmt --all --check
fi

# No registry dependencies: every entry of every dependency table is a
# `path` crate, or `workspace = true` in a member (the workspace table is
# held to `path` itself), and the lockfile has no `source =` line. This also
# keeps serde out of the runtime crates: everything a site writes goes
# through decaf_core::codec, everything else through decaf_trace::json.
BAD_DEPS="$(awk '
    FNR == 1 { table = "" }
    /^\[/ { table = $0; next }
    table ~ /dependencies\./ { print FILENAME ": " table; next }
    table ~ /dependencies\]$/ && /^[A-Za-z0-9_-]+ *=/ {
        if ($0 ~ /path *=/) next
        if (table !~ /workspace/ && $0 ~ /workspace *= *true/) next
        print FILENAME ": " $0
    }' Cargo.toml crates/*/Cargo.toml)"
if [[ -n "$BAD_DEPS" ]] || grep -n '^source = ' Cargo.lock; then
    echo "FAIL: a dependency that is not a path crate of this workspace:" >&2
    echo "$BAD_DEPS" >&2
    exit 1
fi

# One encoding: the JSON wire codec stays deleted.
if [[ "$(grep -c 'mod json' crates/net/src/wire.rs)" != 0 ]]; then
    echo "FAIL: crates/net/src/wire.rs has a 'mod json' again" >&2
    exit 1
fi

# One statement per layout: a type the codec's `wire!` tables write gets
# both its encoder and its decoder from its row, so no twin hand-written
# decoder comes back (crates/core/src/codec.rs, "One table per layout").
if grep -nE 'fn d_(message|propagate|wireop|object_value|object_checkpoint)\b' \
    crates/core/src/codec.rs; then
    echo "FAIL: a twin decoder is back in crates/core/src/codec.rs (add a table row instead)" >&2
    exit 1
fi

# One node loop, two substrates: the threaded substrate, the simulator's
# endpoint facade and the Transport trait stay deleted, and nothing outside
# decaf_net::node drives a Site's queues by hand (tests/end_to_end_sim.rs
# injects a fail-stop notice directly; that is fault injection, not a loop;
# the E5 GVT baseline's sites, bound as `gvt`, are another engine).
if [[ -e crates/net/src/threaded.rs ]]; then
    echo "FAIL: crates/net/src/threaded.rs is back" >&2
    exit 1
fi
if grep -rnE 'SimTransport|trait Transport ' crates/net/src; then
    echo "FAIL: SimTransport or the Transport trait is back under crates/net/src" >&2
    exit 1
fi
if grep -nE '(handle_message|notify_site_failed|drain_outbox|drain_wal)\(' \
    crates/apps/src/bin/decaf_site.rs crates/workload/src/*.rs crates/check/src/*.rs \
    crates/bench/src/*.rs crates/bench/src/bin/*.rs examples/tcp_mesh.rs tests/*.rs |
    grep -v '^tests/end_to_end_sim.rs:.*notify_site_failed(' |
    grep -vE '^crates/bench/src/lib.rs:.*\bgvt\.(drain_outbox|handle_message)\('; then
    echo "FAIL: a Site is driven by hand outside decaf_net::node (use Node::deliver/flush/pump)" >&2
    exit 1
fi

# A view snapshot's read is reserved under no owner, merged with the reads
# from the same lower bound (ReservationSet::reserve_read, DESIGN.md §8);
# only transactions reserve under their own VT.
if grep -nF 'value_reservations.reserve(' \
    crates/core/src/engine/views.rs crates/core/src/engine/handlers.rs; then
    echo "FAIL: a snapshot read is reserved with an owner (use reserve_read)" >&2
    exit 1
fi

# One order for engine state (DESIGN.md §8): the engine and the simulator
# keep no hash container under a per-process key, so every run of the same
# schedule repeats in every process. A std HashMap/HashSet there names its
# fixed hasher in its type (the engine's FixedState or the store's
# NameHasher); `new`, `from` and `with_capacity` exist only for the keyed
# RandomState. message.rs's path-hash unit test hashes under a RandomState
# on purpose and is the one exemption.
KEYED="$(grep -rnE 'Hash(Map|Set)<|Hash(Map|Set)::(new|from|with_capacity)\b|RandomState' \
    crates/core/src crates/net/src/sim.rs |
    grep -vE 'Hash(Map|Set)<.*(FixedState|NameHasher)' |
    grep -vE '^crates/core/src/message.rs:[0-9]+: +let hasher = std::collections::hash_map::RandomState::new\(\);$' ||
    true)"
if [[ -n "$KEYED" ]]; then
    echo "FAIL: a per-process-keyed hash container in the engine or the simulator" \
        "(use a BTreeMap/BTreeSet, or FixedState for a large hot map):" >&2
    echo "$KEYED" >&2
    exit 1
fi

# The TCP mesh's link model stays sans-I/O (DESIGN.md §2.2): every dial,
# write, heartbeat and fail-stop decision is taken in decaf_net::link on a
# time it is given, so its tests step it in virtual time; sockets, threads
# and the clock stay in tcp.rs.
if grep -nE 'std::net|std::thread|std::io|Instant::now|SystemTime' crates/net/src/link.rs; then
    echo "FAIL: crates/net/src/link.rs does I/O or reads a clock (that belongs in tcp.rs)" >&2
    exit 1
fi

# Lints are errors: the tree stays clippy-clean.
run cargo clippy --workspace --all-targets --offline -- -D warnings

# Rustdoc stays warning-free (broken intra-doc links are the usual drift).
run env RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

# Unit, integration, property, and doc tests. The TCP suite spawns real
# decaf-site processes on loopback sockets (ports are kernel-reserved per
# test, so parallel runs do not collide).
run cargo test --workspace --offline -q

# Crash-restart durability gate: three real processes, SIGKILL the durable
# one mid-run, restart it from its --data-dir, and require WAL replay +
# catch-up + convergence on the identical exit value. Included in the
# workspace run above, but gated by name so a test-filter change can never
# silently drop it.
run cargo test -p decaf-apps --test tcp_transport --offline -q \
    durable_site_recovers_from_sigkill_and_rejoins

# The byte goldens, gated by name like the durability test above: the wire
# envelopes (`wire_codec_v2`, whose `golden_v3_every_sample_envelope` pins
# the bytes of every `Message` variant), the WAL frames (`wal`, whose
# `golden_populated_log_frames` pins what a working pair of sites logs,
# every `ObjectValue`/`ListOp`/`TupleOp` arm included) and the codec's own
# unit goldens (the snapshot-read flag bytes, the strict decoder, every
# enum's unknown tags). The codec states each layout once, so a table row
# that swaps two fields or two tags still round-trips: only these bytes see
# it. A snapshot's CONFIRM-READ is held as its wire coding
# (codec::SnapshotReads), so these bytes are also the engine's in-memory
# form of a request.
run cargo test -p decaf-net --test wire_codec_v2 --offline -q
run cargo test -p decaf-core --test wal --offline -q
run cargo test -p decaf-core --lib --offline -q codec::

# The link model's decisions, each checked in virtual time, gated by name
# like the goldens above.
run cargo test -p decaf-net --lib --offline -q link::

# The TCP mesh's accept thread sleeps in accept() and is woken by
# shutdown's dial to its own listener. Ten rounds under a timeout, so a
# shutdown that hangs or an accept/shutdown race that shows once in a few
# runs fails CI instead of wedging it.
echo "==> decaf-net tcp:: unit tests x10 (timeout 300 s)"
run cargo test -p decaf-net --lib --offline --no-run -q
for round in $(seq 1 10); do
    if ! timeout 300 cargo test -p decaf-net --lib --offline -q tcp::; then
        echo "FAIL: decaf-net tcp:: tests, round $round of 10 (exit 124 = hung)" >&2
        exit 1
    fi
done

# The engine's exactness cross-checks are debug assertions (a snapshot's
# flat read set against Store::subtree, primary_of, addr_at and
# value_at(ts); the embedding registry against the list scan). A debug
# build of the benchmark harness arms every one of them over a real
# three-site TCP session with a 256-element list, conflicts and rollbacks,
# which the unit fixtures do not have. The same session arms
# Site::drain_outbox's check that no CONFIRM-READ is queued for a snapshot
# the site no longer holds (retire_snapshot, DESIGN.md §8): the 256-append
# fill supersedes a view's snapshot many times between two drains, and the
# bouts roll back and re-issue them. It also arms SnapshotReads::push's
# check that iter() yields what was pushed: every CONFIRM-READ item the
# session builds is decoded back from its coding and compared. A site that
# trips an assertion may only cost the harness a thread, so a panic line on
# stderr fails the block as well.
echo "==> decaf-e2e duel_list3 --smoke, debug build (timeout 600 s)"
run cargo build -p decaf-e2e -p decaf-apps --bin decaf-e2e --bin decaf-site --offline -q
E2E_ERR="$(mktemp)"
E2E_JSON="$(timeout 600 target/debug/decaf-e2e run --workload duel_list3 --smoke \
    --seed 1 --seconds 3 --trace 0 2>"$E2E_ERR" | tail -n 1)" || true
cat "$E2E_ERR" >&2
E2E_PANICS="$(grep -c 'panicked at' "$E2E_ERR" || true)"
rm -f "$E2E_ERR"
if [[ "$E2E_PANICS" != 0 ]] ||
    ! grep -q '"correct":true' <<<"$E2E_JSON" || ! grep -q '"failed":0[,}]' <<<"$E2E_JSON"; then
    echo "FAIL: debug-build duel_list3 smoke run ($E2E_PANICS panics): $E2E_JSON" >&2
    exit 1
fi

# The deterministic-trace golden test is the observability contract: a
# fixed sim workload must keep producing byte-identical JSONL traces.
run cargo test -p decaf-workload --test trace_golden --offline -q

# The paper tables are pinned: the nine deterministic table binaries (engine
# + simulator only, no wall-clock timings) must print byte-identical JSON to
# crates/bench/golden/<bin>.json. p1_throughput and r1_recovery print
# timings and stay out. A change that moves a table on purpose regenerates
# its golden with `target/release/<bin> --json > crates/bench/golden/<bin>.json`
# and says why.
echo "==> paper tables against crates/bench/golden"
run cargo build -p decaf-bench --release --offline -q
for bin in e1_commit_latency e2_view_latency e3_lost_updates e4_rollback_rate \
    e5_scalability a1_delegate a2_propagation a3_transient_views o1_propagation; do
    if ! target/release/"$bin" --json | cmp - "crates/bench/golden/$bin.json"; then
        echo "FAIL: $bin --json differs from crates/bench/golden/$bin.json" >&2
        exit 1
    fi
done

# Throughput bench smoke: the hot-path bench (two wire modes, v2 binary
# and v2+batch, round an in-process channel ring, plus the CoW section)
# must run end to end, emit well-formed JSON, and lose no envelopes (the
# bin itself exits non-zero when delivered < sent; the checks below also
# pin the report's shape).
echo "==> p1_throughput --json --smoke"
P1_JSON="$(cargo run -p decaf-bench --bin p1_throughput --release --offline -q -- --json --smoke)"
if command -v python3 >/dev/null 2>&1; then
    echo "$P1_JSON" | python3 -c '
import json, sys
r = json.load(sys.stdin)
assert r["bench"] == "p1_throughput", r
assert r["check"]["ok"], r["check"]
assert r["check"]["delivered"] >= r["check"]["sent"], r["check"]
assert len(r["sections"]) == 2, [s["title"] for s in r["sections"]]
'
else
    echo "$P1_JSON" | grep -q '"bench":"p1_throughput"'
    echo "$P1_JSON" | grep -q '"ok":true'
fi

# Model-checker smoke: bounded deterministic-simulation exploration (512
# seeded random fault schedules, 128 crash-restart schedules exercising
# WAL recovery with torn tails and the rejoin protocol, plus one
# exhaustively enumerated 3-site configuration) with every invariant
# oracle armed. The bin exits non-zero on any violation; the checks below
# also pin the exploration floor.
echo "==> decaf-check --smoke --json"
CHECK_JSON="$(cargo run -p decaf-apps --bin decaf-check --release --offline -q -- --smoke --json)"
if command -v python3 >/dev/null 2>&1; then
    echo "$CHECK_JSON" | python3 -c '
import json, sys
r = json.load(sys.stdin)
assert r["ok"], r
assert r["violations"] == 0, r
assert r["random_schedules"] >= 640, r
assert r["exhaustive_schedules"] >= 100, r
assert r["committed"] > 0, r
'
else
    echo "$CHECK_JSON" | grep -q '"ok":true'
    echo "$CHECK_JSON" | grep -q '"violations":0'
fi

# Every checker run repeats across processes: two processes sweeping every
# fault class print the same bytes, counterexample traces included. The
# sweep finds the known kill/crash defects (ROADMAP direction 7) and exits
# 1 for them, so the gate compares the output and accepts exit 0 or 1; any
# other status (a panic) fails it.
echo "==> decaf-check --faults all --seeds 2000 --json, twice, byte-identical"
SWEEP_DIR="$(mktemp -d)"
for run in 1 2; do
    status=0
    target/release/decaf-check --faults all --seeds 2000 --json >"$SWEEP_DIR/$run.json" ||
        status=$?
    if [[ "$status" -gt 1 || ! -s "$SWEEP_DIR/$run.json" ]]; then
        echo "FAIL: decaf-check --faults all sweep $run exited $status" >&2
        exit 1
    fi
done
if ! cmp "$SWEEP_DIR/1.json" "$SWEEP_DIR/2.json"; then
    echo "FAIL: two decaf-check --faults all sweeps printed different reports" >&2
    exit 1
fi
rm -rf "$SWEEP_DIR"

# The frozen counterexample replays: same violations, byte-identical trace
# (exit 0 only if it reproduces). It is a known open defect (ROADMAP
# direction 7), so it must keep failing the same way until that is fixed.
echo "==> decaf-check --replay crates/check/tests/kill_survivors_diverge.json"
run cargo run -p decaf-apps --bin decaf-check --release --offline -q -- \
    --replay crates/check/tests/kill_survivors_diverge.json

# Live-telemetry + stitcher gate: a real 3-process decaf-site mesh on
# loopback, every site dumping its trace to JSONL and site 1 serving the
# --metrics-listen plane. The gate scrapes /metrics over raw TCP (no curl
# dependency) *while* the mesh is still running and requires a non-empty
# decaf_commits_total sample; once all three processes exit 0 it stitches
# the dumps with decaf-trace-stitch and requires exit 0 plus per-site-pair
# propagation histograms and per-VT spans in the report.
echo "==> live /metrics scrape + decaf-trace-stitch over a 3-process TCP mesh"
run cargo build -p decaf-apps --release --offline --bin decaf-site --bin decaf-trace-stitch
MESH_DIR="$(mktemp -d)"
BASE=$((20000 + $$ % 20000))
P1=$BASE P2=$((BASE + 1)) P3=$((BASE + 2)) PM=$((BASE + 3))
PIDS=()
for i in 1 2 3; do
    port_var="P$i"
    args=(--site "$i" --listen "127.0.0.1:${!port_var}" --txns 3
          --linger-ms 4000 --max-runtime-ms 60000
          --trace-out "$MESH_DIR/site$i.jsonl")
    for j in 1 2 3; do
        peer_var="P$j"
        [[ "$j" != "$i" ]] && args+=(--peer "$j=127.0.0.1:${!peer_var}")
    done
    [[ "$i" == 1 ]] && args+=(--metrics-listen "127.0.0.1:$PM")
    target/release/decaf-site "${args[@]}" >"$MESH_DIR/site$i.log" 2>&1 &
    PIDS+=($!)
done

scrape() { # scrape PATH — one-shot HTTP GET against the metrics plane
    exec 9<>"/dev/tcp/127.0.0.1/$PM" || return 1
    printf 'GET %s HTTP/1.1\r\nHost: ci\r\nConnection: close\r\n\r\n' "$1" >&9
    cat <&9
    exec 9<&- 9>&-
}

COMMITS=""
for _ in $(seq 1 150); do
    SAMPLE="$(scrape /metrics 2>/dev/null || true)"
    COMMITS="$(echo "$SAMPLE" | sed -n 's/^decaf_commits_total{site="1"} \([0-9][0-9]*\)$/\1/p')"
    [[ -n "$COMMITS" && "$COMMITS" != "0" ]] && break
    sleep 0.2
done
if [[ -z "$COMMITS" || "$COMMITS" == "0" ]]; then
    echo "FAIL: no live decaf_commits_total sample from the running mesh" >&2
    cat "$MESH_DIR"/site*.log >&2 || true
    kill "${PIDS[@]}" 2>/dev/null || true
    exit 1
fi
echo "live scrape: decaf_commits_total{site=\"1\"} $COMMITS"

for pid in "${PIDS[@]}"; do
    if ! wait "$pid"; then
        echo "FAIL: a decaf-site process exited non-zero" >&2
        cat "$MESH_DIR"/site*.log >&2
        exit 1
    fi
done

echo "==> decaf-trace-stitch site{1,2,3}.jsonl"
target/release/decaf-trace-stitch \
    "$MESH_DIR/site1.jsonl" "$MESH_DIR/site2.jsonl" "$MESH_DIR/site3.jsonl" \
    >"$MESH_DIR/stitch.txt"
if ! grep -Eq '^  [0-9]+->[0-9]+: n=[1-9]' "$MESH_DIR/stitch.txt"; then
    echo "FAIL: stitched report has no non-empty propagation histogram" >&2
    cat "$MESH_DIR/stitch.txt" >&2
    exit 1
fi
if ! grep -Eq '^  vt=' "$MESH_DIR/stitch.txt"; then
    echo "FAIL: stitched report has no per-VT spans" >&2
    cat "$MESH_DIR/stitch.txt" >&2
    exit 1
fi
grep -E '^(events=|  [0-9]+->[0-9]+: n=)' "$MESH_DIR/stitch.txt" | head -8
rm -rf "$MESH_DIR"

echo "CI OK"
