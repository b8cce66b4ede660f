#!/usr/bin/env bash
# Offline verification gate for the repdir workspace.
#
# 1. Greps every Cargo.toml for dependencies that are not in-workspace
#    `repdir-*` path crates (the zero-external-dependency policy, DESIGN.md §6).
# 2. Builds the whole workspace offline (release, all targets).
# 3. Runs the full test suite offline.
# 4. Runs the suite_latency bench in quick mode, which fails unless a lookup
#    costs 1 round of R requests, an insert 2 of R + W, a delete 3 of R + 2W,
#    with no ping, through remote clients and serialized (`reference::Inline`)
#    ones alike, AND the obs-instrumented build (timing armed) stays within
#    5% of the disarmed baseline. Fabric bytes per operation and the
#    speed-up over serialized are reported.
# 5. Runs the latency_policy bench in quick mode on a 5-member R=2/W=4
#    fabric with two slow members, which fails unless each run's 6 clean
#    warm-up inserts cost exactly 6 x (R + W) = 36 data requests and no ping,
#    and the EWMA-driven LatencyPolicy's timed lookups send 0 requests to the
#    slow members and its read prefix is fast members only. The speed-up over
#    RandomPolicy is reported, not gated.
# 6. Runs the scan_bench in quick mode, which fails unless a scan of N=64
#    entries at R=2 costs 2 rounds, 4 requests, 8 fabric messages, no ping and
#    zero re-validations, under quorums {0, 1} over small values and under
#    random quorums over 65-byte values, whose 64 lookups are counted too;
#    fabric bytes and the speed-up over the per-hop reference are reported.
# 7. Runs the ingest_bench in quick mode, which fails unless a 64-key
#    insert_many at R=2/W=2 costs 2 rounds, 4 requests, 8 fabric messages, no
#    ping and zero re-validations, and unless a bulk_scan-shaped delete_many
#    (in process, 512 keys at every 32nd slot of 2^14, 200 batches of 64
#    random odd slots) averages at most 4 rounds under fixed quorums {0, 1};
#    the same probe under random quorums, fabric bytes and the per-key
#    reference's speed-up are reported.
# 8. Runs the repair_bench in quick mode, which fails unless the repair
#    driver converges a stale member byte-identically at exactly its pinned
#    fabric messages and entries pulled on three passes: a sweep of a member
#    that missed ~5% of the keys (26 messages, 6 entries), the stale-vote
#    pass over the same divergence (12, 6), and a sweep of a member whose
#    buckets 0..87 are dirty (16, 76). The 256-bucket full-copy reference
#    is reported, not gated.
# 9. Runs the concurrency experiment (`--bin concurrency`), which exits
#    non-zero if any operation of its threaded writers, disjoint or on one
#    hot key, exhausted ReplicatedDirectory::run's attempts; its rows print
#    aborts per committed transaction and the most attempts one used.
# 10. Runs the benchmark crate's unit tests and `benchmark/run.sh --smoke`
#    (a separate workspace under benchmark/, built against this checkout):
#    the benchmark drives the stack through a small allow-list of public API
#    (`RpcClient::{new, call, scatter}`, `Scatter::gather`,
#    `RemoteSessionClient::{new, DEFAULT_TIMEOUT}`, `DirSuite::{new,
#    in_process, ...}`, `TxnManager::{new, begin, commit}`, ...) and builds
#    wire frames by name — `codec::Request::{Begin, Commit, Abort, Lookup,
#    Insert, Batch}`, `codec::Response::Lookup`, `codec::{encode_request,
#    decode_request, encode_response, decode_response}` — so a change that
#    breaks either fails here instead of in the benchmark pipeline. The
#    smoke sweep's traced `net.msgs_per_op` is then read back from
#    benchmark/out/results.json and must stay within the point operations'
#    round budget (a lookup's or quorum write's collection carries the
#    request: no ping round; a delete is three rounds), so a reintroduced
#    ping round or delete round fails here too; on bulk_scan it is capped at
#    1.3x what the O(n / bulk_chunk)-wave bulk operations measure in smoke
#    mode, so a per-entry or per-key round cannot come back unnoticed.
#    Nothing under benchmark/ is edited by this gate.
# 11. cargo fmt --check and cargo clippy -D warnings keep the tree formatted
#    and lint-clean.
# 12. Appends one line, keyed by commit, to BENCH_history.jsonl: the counts
#    gates 4 to 8 pinned and gate 10's traced net.msgs_per_op. Counts
#    repeat, so the history shows a budget moving, not noise. Then prints
#    the code / comment / test line split of crates/core/src/suite and of
#    every crates/*/src (scripts/suite_loc.sh), the per-crate report every
#    change gives, for information.
#
# Each gate prints its wall-clock duration so a slow regression is
# attributable to the gate that grew. Exits non-zero on the first violation
# or failure.

set -euo pipefail
cd "$(dirname "$0")/.."

gate_start=0
gate() {
    gate_start=$SECONDS
    echo "==> $*"
}
gate_done() {
    echo "    [gate took $((SECONDS - gate_start))s]"
}

gate "dependency policy: only repdir-* path crates allowed"
violations=0
for manifest in Cargo.toml crates/*/Cargo.toml; do
    # Examine dependency-table bodies only: lines "name = ..." or "name.workspace = ..."
    # inside [dependencies] / [dev-dependencies] / [build-dependencies] /
    # [workspace.dependencies] sections.
    bad=$(awk '
        /^\[/ { in_deps = ($0 ~ /^\[(workspace\.)?(dev-|build-)?dependencies\]/) ; next }
        in_deps && /^[a-zA-Z0-9_-]+(\.workspace)?[[:space:]]*=/ {
            name = $1; sub(/\.workspace$/, "", name)
            if (name !~ /^repdir-/) print FILENAME ": " $0
        }
    ' "$manifest" || true)
    if [ -n "$bad" ]; then
        echo "POLICY VIOLATION: non-repdir dependency in $manifest:"
        echo "$bad"
        violations=1
    fi
done
if [ "$violations" -ne 0 ]; then
    echo "FAIL: external dependencies found (see above)"
    exit 1
fi
echo "    ok: no external dependencies declared"
gate_done

gate "cargo build --release --offline --workspace --all-targets"
cargo build --release --offline --workspace --all-targets
gate_done

gate "cargo test -q --offline --workspace"
cargo test -q --offline --workspace
gate_done

gate "cargo build --offline --examples"
cargo build --offline --examples
gate_done

gate "suite_latency --quick --check (lookup 1 round, insert 2, delete 3, no ping; obs overhead <= 5%)"
cargo run --release --offline -p repdir-bench --bin suite_latency -- --quick --check
gate_done

gate "latency_policy --quick --check (warm-up 36 requests / 0 pings; timed lookups send 0 requests to slow members)"
cargo run --release --offline -p repdir-bench --bin latency_policy -- --quick --check
gate_done

gate "scan_bench --quick --check (scan of N=64 at R=2 = 2 rounds, 8 fabric messages; random quorums over 65-B values = the same and 64 lookups)"
cargo run --release --offline -p repdir-bench --bin scan_bench -- --quick --check
gate_done

gate "ingest_bench --quick --check (insert_many of N=64 = 2 rounds, 8 fabric messages; bulk_scan-shaped delete_many <= 4 rounds)"
cargo run --release --offline -p repdir-bench --bin ingest_bench -- --quick --check
gate_done

gate "repair_bench --quick --check (sparse sweep 26 msgs / 6 entries, vote pass 12 / 6, dense sweep 16 / 76)"
cargo run --release --offline -p repdir-bench --bin repair_bench -- --quick --check
gate_done

gate "concurrency (no threaded writer's operation exhausts its retries)"
cargo run --release --offline -p repdir-bench --bin concurrency
gate_done

gate "benchmark crate: unit tests + run.sh --smoke (the benchmark's API allow-list still builds and runs; msgs/op within the round budget)"
cargo test -q --offline --manifest-path benchmark/Cargo.toml
bash benchmark/run.sh --smoke
# With delete's nine rounds in place of three: 17.1 / 26.3-26.5 / 30.8-31.2.
# bulk_scan reads ~25 in smoke mode since adjacent doomed keys coalesce as
# one run (135-142 before); with a round per scanned entry and three per
# deleted key it read 582.
python3 - <<'PY'
import json, sys
caps = {"read_mostly": 17.5, "write_mix": 22.0, "wan_quorum": 29.0, "bulk_scan": 180.0}
seen, bad = set(), []
for run in json.load(open("benchmark/out/results.json"))["runs"]:
    cap = caps.get(run["workload"])
    if cap is None or not run["traced"]:
        continue
    seen.add(run["workload"])
    msgs = run["metrics"]["net.msgs_per_op"]["value"]
    print(f"    {run['workload']}: net.msgs_per_op {msgs:.1f} (cap {cap})")
    if msgs > cap:
        bad.append(run["workload"])
missing = sorted(set(caps) - seen)
if bad or missing:
    sys.exit(f"FAIL: net.msgs_per_op over its cap on {bad}, not reported for {missing}")
PY
gate_done

gate "cargo fmt --check"
cargo fmt --check
gate_done

gate "cargo clippy --offline --workspace --all-targets -- -D warnings"
cargo clippy --offline --workspace --all-targets -- -D warnings
gate_done

gate "BENCH_history.jsonl: this run's counts, keyed by commit"
commit=$(git rev-parse --short HEAD)$(git diff --quiet HEAD -- . ':!BENCH_*' || echo "-dirty")
python3 - "$commit" <<'PY'
import json, sys
load = lambda name: json.load(open(f"BENCH_{name}.json"))
counts = lambda bench, unit: {k: v for k, v in bench.items() if k.endswith("_per_" + unit)}
latency = load("latency_policy")
runs = json.load(open("benchmark/out/results.json"))["runs"]
line = {
    "commit": sys.argv[1],
    "suite_latency": counts(load("quorum_fanout")["configs"][0], "op"),
    "scan": counts(load("scan"), "scan"),
    "ingest": counts(load("ingest"), "ingest"),
    "latency_policy": {
        "warmup_requests": latency["warmup_requests"],
        "warmup_pings": latency["warmup_pings"],
        "lookup_requests": sum(latency["lookup_requests"]["latency"]),
        "slow_member_lookup_requests": latency["slow_member_lookup_requests"],
    },
    "repair": counts(load("repair"), "pass"),
    "net.msgs_per_op": {r["workload"]: r["metrics"]["net.msgs_per_op"]["value"] for r in runs if r["traced"]},
}
with open("BENCH_history.jsonl", "a") as history:
    history.write(json.dumps(line, sort_keys=True) + "\n")
print("    " + json.dumps(line, sort_keys=True))
PY
gate_done

echo "ALL CHECKS PASSED"
echo
bash scripts/suite_loc.sh crates/core/src/suite crates/*/src
