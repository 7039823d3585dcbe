#!/usr/bin/env sh
# Full verification, mirroring what CI would run:
#   1. configure + build into a throwaway build dir
#   2. fast static-verification smoke pass over every workload and
#      config, with the --verify-json reports validated by python3
#   3. full test suite
#   4. differential fuzz smoke: a fixed-seed distda_fuzz campaign
#      plus replay of the committed corpus
#   5. parallel-sweep determinism smoke (--jobs=1 vs --jobs=N CSV)
#      plus byte-identity against the committed golden CSV, and the
#      prefetch, allocation and buffer/channel-override variants
#      against their golden
#   6. observability smoke: --timeline and --stats-json outputs
#      validated by python3, and the golden CSV byte-identical with
#      --report-dir on
#   7. breakdown/report-diff smoke: golden CSV byte-identical with
#      --breakdown on, breakdown JSON validated (conservation, ordered
#      quantiles), and distda_stats diff of two identical runs is
#      empty with exit 0
#   8. plan-analysis smoke: --analyze=json over every workload on
#      both distributed substrates, validated with python3 (no
#      violations, affine bounds proven, liveness proven, at least
#      one memoizable kernel)
#   9. plan-artifact round trip: dump every plan of the quick sweep
#      to a --plan-dir, validate each artifact with distda_plan and
#      re-run loading from the artifacts — the golden quick-sweep CSV
#      must stay byte-identical both ways
#  10. offload-service smoke: distda_serve on a Unix socket under a
#      1k-request mixed distda_load replay (zero failures, >=90%
#      plan-cache hit rate), raw-socket robustness pokes, a served
#      probe report diffed clean against a direct --stats-json run,
#      and a SIGINT drain under load that must exit 0
#  11. quick bench smoke through the sweep engine
#  12. Release build + perf-regression gate (bench/perf_baseline vs
#      the most recent committed BENCH_*.json, via
#      scripts/perf_check.sh)
#  13. perfbench self-test: every benchmark job must validate and its
#      simulated-stat digest must equal perfbench/reference.txt (the
#      bit-exactness gate for every fast path)
#  14. ASan+UBSan and TSan test-suite runs, plus a differential fuzz
#      smoke under ASan and a TSan parallel sweep smoke
#  15. clang-tidy (when available): strict over src/verify + src/sim
#      + src/compiler + src/offload + src/serve (warnings are
#      errors), advisory elsewhere
#  16. optionally ($RUN_BENCH=1) regenerate every table/figure
set -e
cd "$(dirname "$0")/.."

BUILD="${BUILD_DIR:-build-check}"
JOBS="$(nproc)"
GEN=""
command -v ninja >/dev/null 2>&1 && GEN="-G Ninja"

echo "===== configure + build ($BUILD)"
# shellcheck disable=SC2086
cmake -B "$BUILD" $GEN >/dev/null
cmake --build "$BUILD" -j "$(nproc)"

echo "===== static verification smoke (all workloads, all configs)"
for w in dis tra fdt cho adi sei pf nw bfs pr pch pca spmv; do
    "$BUILD"/tools/distda_run --workload="$w" --config=all \
        --verify-json="$BUILD/verify-$w.json"
done
python3 - "$BUILD"/verify-*.json <<'EOF'
import json
import sys

results = 0
for path in sys.argv[1:]:
    for r in json.load(open(path))["results"]:
        name = f"{path}: {r['workload']}/{r['config']}/{r['kernel']}"
        for key in ("partitions", "channels", "diagnostics"):
            assert key in r, f"{name}: result missing '{key}'"
        assert r["errors"] == 0, f"{name}: {r['diagnostics']}"
        results += 1
assert results > 0, "no verification results"
print(f"verify-json OK ({results} kernel results, 0 errors)")
EOF

echo "===== tests"
ctest --test-dir "$BUILD" --output-on-failure -j "$(nproc)"

echo "===== differential fuzz smoke (fixed seed + corpus replay)"
"$BUILD"/tools/distda_fuzz --seed=1 --runs=200 --jobs="$JOBS" --quiet
"$BUILD"/tools/distda_fuzz --corpus=tests/corpus --quiet

echo "===== parallel sweep determinism (--jobs=1 vs --jobs=$JOBS)"
"$BUILD"/tools/distda_run --workload=all --config=all --quick --csv \
    --jobs=1 >"$BUILD/sweep-serial.csv" 2>/dev/null
"$BUILD"/tools/distda_run --workload=all --config=all --quick --csv \
    --jobs="$JOBS" >"$BUILD/sweep-parallel.csv" 2>/dev/null
cmp "$BUILD/sweep-serial.csv" "$BUILD/sweep-parallel.csv"
cmp tests/golden/quick_sweep.csv "$BUILD/sweep-serial.csv"
{
    "$BUILD"/tools/distda_run --workload=all --quick --csv \
        --config=Dist-DA-IO+SW --jobs="$JOBS"
    "$BUILD"/tools/distda_run --workload=all --quick --csv \
        --config=Dist-DA-F+A --jobs="$JOBS" | tail -n +2
    "$BUILD"/tools/distda_run --workload=all --quick --csv \
        --config=Dist-DA-F --buffer=1024 --channel=4 --jobs="$JOBS" |
        tail -n +2
} >"$BUILD/sweep-variants.csv" 2>/dev/null
cmp tests/golden/quick_variants.csv "$BUILD/sweep-variants.csv"

echo "===== observability smoke (--timeline / --stats-json)"
"$BUILD"/tools/distda_run --workload=pr --config=Dist-DA-F --quick \
    --timeline="$BUILD/pr.timeline.json" \
    --stats-json="$BUILD/pr.stats.json" >/dev/null
python3 - "$BUILD/pr.timeline.json" "$BUILD/pr.stats.json" <<'EOF'
import json
import sys

trace = json.load(open(sys.argv[1]))
events = trace["traceEvents"]
assert events, "timeline has no events"
phases = {e.get("ph") for e in events}
assert {"X", "M"} <= phases, f"missing event phases: {phases}"
cats = {e.get("cat") for e in events if e.get("ph") == "X"}
assert len(cats) >= 4, f"expected spans from >=4 subsystems: {cats}"

report = json.load(open(sys.argv[2]))
for key in ("workload", "config", "validated", "metrics", "stats",
            "timeline"):
    assert key in report, f"report missing '{key}'"
dists = report["stats"]["dist"]
assert any(isinstance(v, dict) and v.get("type") == "distribution"
           and v.get("count", 0) > 0 for v in dists.values()), \
    "report has no populated distribution"
print("observability outputs OK "
      f"({len(events)} events, {len(cats)} span categories)")
EOF
# Reports go to files only: the sweep CSV on stdout must stay
# byte-identical with observability enabled.
"$BUILD"/tools/distda_run --workload=all --config=all --quick --csv \
    --jobs="$JOBS" --report-dir="$BUILD/reports" \
    >"$BUILD/sweep-obs.csv" 2>/dev/null
cmp tests/golden/quick_sweep.csv "$BUILD/sweep-obs.csv"

echo "===== breakdown + report-diff smoke (--breakdown / distda_stats)"
# The golden CSV must stay byte-identical with the breakdown table on
# (it rides stderr under --csv).
"$BUILD"/tools/distda_run --workload=all --config=all --quick --csv \
    --jobs="$JOBS" --breakdown \
    >"$BUILD/sweep-breakdown.csv" 2>/dev/null
cmp tests/golden/quick_sweep.csv "$BUILD/sweep-breakdown.csv"
"$BUILD"/tools/distda_run --workload=fdt --config=all --quick \
    --breakdown=json >"$BUILD/breakdown.json" 2>/dev/null
python3 - "$BUILD/breakdown.json" <<'EOF'
import json
import sys

doc = json.load(open(sys.argv[1]))
runs = doc["breakdown"]
assert len(runs) == 6, f"expected 6 configs, got {len(runs)}"
rows = 0
for run in runs:
    for k in run["kernels"]:
        name = f"{run['workload']}/{run['config']}/{k['kernel']}"
        phases = sum(k["phases"].values())
        assert phases == k["e2e_ticks"], \
            f"{name}: phases {phases} != e2e {k['e2e_ticks']}"
        assert k["p50_ticks"] <= k["p95_ticks"] <= k["p99_ticks"], \
            f"{name}: quantiles out of order"
        assert k["min_ticks"] <= k["max_ticks"], f"{name}: min > max"
        assert k["invocations"] > 0, f"{name}: no invocations"
        rows += 1
assert rows > 0, "breakdown document has no kernel rows"
print(f"breakdown OK ({rows} kernel rows, conservation holds)")
EOF
# Two identical runs must diff clean with exit status 0.
"$BUILD"/tools/distda_run --workload=bfs --config=Dist-DA-IO --quick \
    --stats-json="$BUILD/diff-a.json" >/dev/null 2>&1
"$BUILD"/tools/distda_run --workload=bfs --config=Dist-DA-IO --quick \
    --stats-json="$BUILD/diff-b.json" >/dev/null 2>&1
"$BUILD"/tools/distda_stats diff "$BUILD/diff-a.json" \
    "$BUILD/diff-b.json" --changed-only

echo "===== plan-analysis smoke (--analyze=json, both substrates)"
"$BUILD"/tools/distda_run --workload=all --config=Dist-DA-IO --quick \
    --analyze=json >"$BUILD/analysis-io.json" 2>/dev/null
"$BUILD"/tools/distda_run --workload=all --config=Dist-DA-F --quick \
    --analyze=json >"$BUILD/analysis-f.json" 2>/dev/null
python3 - "$BUILD/analysis-io.json" "$BUILD/analysis-f.json" <<'EOF'
import json
import sys

for path in sys.argv[1:]:
    doc = json.load(open(path))
    assert doc["violations"] == 0, f"{path}: violations reported"
    entries = doc["analysis"]
    assert entries, f"{path}: empty analysis section"
    kernels = [k for e in entries for k in e["kernels"]]
    assert kernels, f"{path}: no kernels analyzed"
    memoizable = 0
    for k in kernels:
        name = k["kernel"]
        assert k["bounds"]["violated"] == 0, \
            f"{path}: {name} has violated bounds"
        for a in k["bounds"]["accesses"]:
            if a["affine"]:
                assert a["verdict"] == "proven", \
                    f"{path}: {name} affine access not proven: {a}"
        assert k["channels"]["deadlock_free"] == "proven", \
            f"{path}: {name} liveness not proven"
        memoizable += 1 if k["purity"]["memoizable"] else 0
    assert memoizable >= 1, f"{path}: no memoizable kernel"
    print(f"analysis OK: {path} ({len(kernels)} kernels, "
          f"{memoizable} memoizable)")
EOF

echo "===== plan-artifact round trip (--plan-dir)"
rm -rf "$BUILD/plans"
"$BUILD"/tools/distda_run --workload=all --config=all --quick --csv \
    --jobs="$JOBS" --plan-dir="$BUILD/plans" \
    >"$BUILD/sweep-plandump.csv" 2>/dev/null
cmp tests/golden/quick_sweep.csv "$BUILD/sweep-plandump.csv"
"$BUILD"/tools/distda_plan validate "$BUILD"/plans/*.plan >/dev/null
# Reload every artifact: metrics must not depend on whether a plan
# was freshly compiled or deserialized.
"$BUILD"/tools/distda_run --workload=all --config=all --quick --csv \
    --jobs="$JOBS" --plan-dir="$BUILD/plans" \
    >"$BUILD/sweep-planload.csv" 2>/dev/null
cmp tests/golden/quick_sweep.csv "$BUILD/sweep-planload.csv"

echo "===== offload service smoke (distda_serve + distda_load)"
SOCK="$BUILD/serve.sock"
rm -f "$SOCK"
"$BUILD"/tools/distda_serve --socket="$SOCK" --jobs="$JOBS" \
    --max-request-bytes=65536 >"$BUILD/serve.log" 2>&1 &
SERVE_PID=$!
i=0
while [ ! -S "$SOCK" ] && [ "$i" -lt 100 ]; do
    sleep 0.1
    i=$((i + 1))
done
[ -S "$SOCK" ] || { cat "$BUILD/serve.log"; exit 1; }

# 1k-request mixed replay over concurrent connections: zero failures
# allowed, and >=90% of plan lookups must hit the daemon-wide cache
# (4 fingerprints compile once each; everything else reuses them).
"$BUILD"/tools/distda_load --socket="$SOCK" --requests=1000 \
    --connections=8 --workloads=fdt,bfs \
    --configs=Dist-DA-IO,Dist-DA-F --scale=0.25 --min-hit-rate=0.9

# Robustness pokes with a raw socket: malformed JSON, an unknown
# workload and an oversized line each earn an error reply; a client
# that hangs up without reading its reply is survived. The daemon
# must keep serving throughout.
python3 - "$SOCK" <<'EOF'
import json
import socket
import sys

def rpc(path, payload, expect_reply=True):
    s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    s.connect(path)
    try:
        s.sendall(payload)
    except (BrokenPipeError, ConnectionResetError):
        pass  # oversize: server replied and closed mid-send
    if not expect_reply:
        s.close()
        return None
    data = b""
    while not data.endswith(b"\n"):
        chunk = s.recv(65536)
        if not chunk:
            break
        data += chunk
    s.close()
    return json.loads(data)

path = sys.argv[1]
ok_line = b'{"workload":"fdt","config":"Dist-DA-IO","scale":0.25}\n'
r = rpc(path, b'{"workload": \n')
assert r["ok"] is False and r["kind"] == "parse", r
assert "offset" in r["error"], r
r = rpc(path, b'{"workload":"nope","config":"Dist-DA-IO"}\n')
assert r["ok"] is False and r["kind"] == "request", r
r = rpc(path, b"x" * (1 << 20) + b"\n")
assert r["ok"] is False and r["kind"] == "oversize", r
rpc(path, ok_line, expect_reply=False)  # rude hang-up
r = rpc(path, ok_line)
assert r["ok"] is True, r
print("robustness pokes OK")
EOF

# Served vs direct: the report a probe request streams back must diff
# clean against a direct --stats-json run of the same offload.
"$BUILD"/tools/distda_load --socket="$SOCK" --requests=1 \
    --connections=1 --workloads=bfs --configs=Dist-DA-IO --scale=0.25 \
    --probe --report-out="$BUILD/served-report.json" >/dev/null
"$BUILD"/tools/distda_run --workload=bfs --config=Dist-DA-IO --quick \
    --stats-json="$BUILD/direct-report.json" >/dev/null 2>&1
"$BUILD"/tools/distda_stats diff "$BUILD/direct-report.json" \
    "$BUILD/served-report.json" --changed-only

# SIGINT under load: the daemon stops accepting, finishes in-flight
# requests, prints its summary and exits 0; the socket is unlinked.
"$BUILD"/tools/distda_load --socket="$SOCK" --requests=1000000 \
    --connections=4 --workloads=fdt --configs=Dist-DA-IO --scale=0.25 \
    --allow-errors --quiet >"$BUILD/load-drain.out" 2>&1 &
LOAD_PID=$!
sleep 2
kill -INT "$SERVE_PID"
SERVE_RC=0
wait "$SERVE_PID" || SERVE_RC=$?
[ "$SERVE_RC" -eq 0 ] || {
    echo "daemon exited $SERVE_RC after SIGINT"
    cat "$BUILD/serve.log"
    exit 1
}
wait "$LOAD_PID" || true
[ ! -S "$SOCK" ] || { echo "socket not unlinked on drain"; exit 1; }
grep -q "served=" "$BUILD/serve.log" || {
    echo "daemon summary missing"
    cat "$BUILD/serve.log"
    exit 1
}

echo "===== quick bench smoke (--quick --jobs=$JOBS)"
"$BUILD"/bench/fig11_performance --quick --jobs="$JOBS" >/dev/null
"$BUILD"/bench/table06_offload_characteristics --quick \
    --jobs="$JOBS" >/dev/null

echo "===== Release build + perf-regression gate"
# shellcheck disable=SC2086
cmake -B "$BUILD-release" $GEN -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "$BUILD-release" -j "$(nproc)" --target perf_baseline \
    distda_run
"$BUILD-release"/tools/distda_run --workload=pr --config=Dist-DA-F \
    --quick >/dev/null
"$BUILD-release"/bench/perf_baseline --label=check \
    --out="$BUILD-release"
scripts/perf_check.sh "$BUILD-release/BENCH_check.json"

echo "===== perfbench self-test (simulated-stat digests vs reference)"
python3 perfbench/run.py --self-test

for SAN in address thread; do
    echo "===== tests under $SAN sanitizer"
    # shellcheck disable=SC2086
    cmake -B "$BUILD-$SAN" $GEN -DDISTDA_SANITIZE="$SAN" >/dev/null
    cmake --build "$BUILD-$SAN" -j "$(nproc)"
    ctest --test-dir "$BUILD-$SAN" --output-on-failure -j "$(nproc)"
done

echo "===== differential fuzz smoke under address sanitizer"
"$BUILD-address"/tools/distda_fuzz --seed=1 --runs=200 \
    --jobs="$JOBS" --quiet
"$BUILD-address"/tools/distda_fuzz --corpus=tests/corpus --quiet

echo "===== TSan parallel sweep smoke"
"$BUILD-thread"/tools/distda_run --workload=all --config=all --quick \
    --jobs=4 >/dev/null

if command -v clang-tidy >/dev/null 2>&1; then
    cmake -B "$BUILD" -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
    echo "===== clang-tidy (strict: src/verify + src/sim + src/compiler + src/offload + src/serve)"
    git ls-files 'src/verify/*.cc' 'src/sim/*.cc' 'src/compiler/*.cc' \
        'src/offload/*.cc' 'src/serve/*.cc' |
        xargs clang-tidy -p "$BUILD" --quiet --warnings-as-errors='*'
    echo "===== clang-tidy (advisory: remaining sources)"
    git ls-files 'src/*.cc' 'tools/*.cc' |
        grep -v -e '^src/verify/' -e '^src/sim/' -e '^src/compiler/' \
            -e '^src/offload/' -e '^src/serve/' |
        xargs clang-tidy -p "$BUILD" --quiet
else
    echo "===== clang-tidy not installed; skipping lint"
fi

if [ "${RUN_BENCH:-0}" = "1" ]; then
    for b in "$BUILD"/bench/*; do
        [ -f "$b" ] && [ -x "$b" ] || continue
        echo "===== $b"
        case "$b" in
          # google-benchmark / no-sweep binaries take no sweep flags.
          */micro_primitives|*/table_area) "$b" ;;
          *) "$b" --jobs="$JOBS" ;;
        esac
    done
fi
echo "===== all checks passed"
