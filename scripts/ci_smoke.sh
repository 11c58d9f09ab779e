#!/usr/bin/env bash
# Smoke-runs the built examples and benches end to end: the kernel,
# hierarchy, transport, schedule-knob and metrics guards of the
# CI build-and-test job. Every bad knob value must fail, not fall back.
#
# Usage (from anywhere, after `cmake --build build`):
#   scripts/ci_smoke.sh <simd>
# where <simd> is the SIMD leg of the build: "avx2" when the AVX2 kernels
# are compiled in (HDLS_SIMD=native must then work), "scalar" otherwise.
# Artifacts (trace*.json, quickstart-schedule.txt, hdls-metrics.prom) are
# written to the repository root.
set -euo pipefail

simd="${1:?usage: scripts/ci_smoke.sh <avx2|scalar>}"
cd "$(dirname "$0")/.."

# Kernel-execution guard: the SIMD/pinning knobs must drive real runs
# end to end, a bad value must fail loudly, and every backend variant
# must produce identical checksums (bench_ablation_simd exits nonzero
# on a parity break). HDLS_SIMD=native is only required to work on
# the leg that compiles a vector backend in.
echo "== Smoke-run SIMD & pinning"
HDLS_SIMD=scalar ./build/quickstart > /dev/null
HDLS_PIN=compact ./build/quickstart > /dev/null
HDLS_PIN=scatter HDLS_SIMD=auto ./build/quickstart > /dev/null
if [ "$simd" = "avx2" ]; then
  HDLS_SIMD=native ./build/quickstart > /dev/null
fi
if HDLS_SIMD=avx512 ./build/quickstart > /dev/null 2>&1; then
  echo "HDLS_SIMD=avx512 must fail, not fall back" >&2
  exit 1
fi
if HDLS_PIN=numa ./build/quickstart > /dev/null 2>&1; then
  echo "HDLS_PIN=numa must fail, not fall back" >&2
  exit 1
fi
./build/bench_ablation_simd --scale 0.1 --reps 1 > /dev/null

echo "== Smoke-run traced bench & explorer"
./build/bench_fig23_timeline_illustration --iterations 512 > /dev/null
./build/trace_explorer --iterations 200 --wpn 2 --format chrome \
  --out trace.json
python3 -c "import json; json.load(open('trace.json'))"
./build/bench_table1_schedule_mapping --n 2000
./build/bench_ablation_lock_polling --scale 0.02 > /dev/null

# Examples bit-rot guard: quickstart and trace_explorer must run end
# to end, under both level-1 backends.
echo "== Smoke-run examples"
./build/quickstart > /dev/null
HDLS_INTER_BACKEND=sharded ./build/quickstart > /dev/null
./build/trace_explorer --iterations 300 --wpn 2 --backend sharded \
  --format chrome --out trace-sharded.json
python3 -c "import json; json.load(open('trace-sharded.json'))"
# HDLS_SCHEDULE selects the technique per level (schedule(runtime)).
HDLS_SCHEDULE=FAC2+GSS+SS HDLS_TOPOLOGY=racks=2,nodes=2,cores=2 \
  ./build/quickstart > quickstart-schedule.txt
grep -E "level 0: .*\[FAC2" quickstart-schedule.txt
for knob in HDLS_SCHEDULE=garbage HDLS_TRANSPORT=; do
  if env "$knob" ./build/quickstart > /dev/null 2>&1; then
    echo "$knob must fail, not fall back" >&2
    exit 1
  fi
done

# Deep-hierarchy guard: the same examples under a 3-level topology
# tree, with both backends at the middle (rack-relay) level, plus the
# depth ablation at a CI-sized scale.
echo "== Smoke-run 3-level hierarchy"
HDLS_TOPOLOGY=racks=2,nodes=2,cores=2 ./build/quickstart > /dev/null
HDLS_TOPOLOGY=racks=2,nodes=2,cores=2 HDLS_INTER_BACKEND=sharded \
  ./build/quickstart > /dev/null
./build/trace_explorer --topology racks=2,nodes=2,cores=3 \
  --schedule FAC2+GSS+SS --iterations 300 \
  --format chrome --out trace-depth3.json
python3 -c "import json; json.load(open('trace-depth3.json'))"
HDLS_INTER_BACKEND=sharded ./build/trace_explorer \
  --topology racks=2,nodes=2,cores=3 --schedule FAC2+GSS+SS \
  --iterations 300 --format chrome --out trace-depth3-sharded.json
python3 -c "import json; json.load(open('trace-depth3-sharded.json'))"
./build/bench_ablation_hierarchy_depth --scale 0.02 > /dev/null

# Transport guard: the examples and one ablation must run end to end
# on the shared-memory transport, and a bad knob value must fail
# loudly instead of silently falling back to threads.
echo "== Smoke-run shm transport"
HDLS_TRANSPORT=shm ./build/quickstart > /dev/null
HDLS_TRANSPORT=shm HDLS_INTER_BACKEND=sharded \
  ./build/quickstart > /dev/null
HDLS_TRANSPORT=shm HDLS_TOPOLOGY=racks=2,nodes=2,cores=2 \
  ./build/quickstart > /dev/null
HDLS_TRANSPORT=shm ./build/bench_ablation_shard_contention --scale 0.02 \
  > /dev/null
if HDLS_TRANSPORT=sockets ./build/quickstart > /dev/null 2>&1; then
  echo "HDLS_TRANSPORT=sockets must fail, not fall back" >&2
  exit 1
fi

# Observability guard: a metrics-enabled run must produce a valid
# Prometheus exposition file (TYPE lines, monotone cumulative
# buckets, the core metric families) and the dashboard must render.
echo "== Smoke-run metrics & dashboard"
HDLS_METRICS=1 HDLS_METRICS_PERIOD_MS=20 \
  ./build/quickstart > /dev/null
python3 - <<'EOF'
import re, sys

text = open('hdls-metrics.prom').read()

# The text format allows at most one HELP/TYPE line per metric
# name; real parsers (promtool, the textfile collector) reject
# duplicates outright.
for kind in ('HELP', 'TYPE'):
    names = re.findall(rf'^# {kind} (\S+)', text, re.M)
    dupes = sorted({n for n in names if names.count(n) > 1})
    assert not dupes, f'duplicate # {kind} blocks for {dupes}'

types = dict(re.findall(r'^# TYPE (\S+) (\S+)$', text, re.M))
assert types, 'no # TYPE lines in exposition'

required = {
    'hdls_window_locks_total': 'counter',
    'hdls_sched_acquires_total': 'counter',
    'hdls_sched_acquire_latency_ns': 'histogram',
    'hdls_exec_chunks_total': 'counter',
    'hdls_exec_iterations_total': 'counter',
    'hdls_watchdog_stalls_total': 'counter',
    'hdls_workers_active': 'gauge',
}
for name, kind in required.items():
    assert types.get(name) == kind, f'{name}: want {kind}, got {types.get(name)}'

# Cumulative histogram buckets must be monotone and end at +Inf
# with a value equal to _count — per label set (e.g. per level).
def series_key(name, labelstr):
    labels = re.findall(r'(\w+)="([^"]*)"', labelstr or '')
    return (name, tuple(sorted(l for l in labels if l[0] != 'le')))

buckets = {}
for m in re.finditer(r'^(\S+)_bucket\{([^}]*)\} (\d+)$', text, re.M):
    le = re.search(r'le="([^"]+)"', m.group(2)).group(1)
    buckets.setdefault(series_key(m.group(1), m.group(2)), []).append(
        (float('inf') if le == '+Inf' else float(le), int(m.group(3))))
assert buckets, 'no histogram buckets in exposition'
counts = {series_key(m.group(1), m.group(2)): int(m.group(3))
          for m in re.finditer(r'^(\S+)_count(?:\{([^}]*)\})? (\d+)$',
                               text, re.M)}
for key, series in buckets.items():
    series.sort()
    values = [v for _, v in series]
    assert values == sorted(values), f'{key}: non-monotone buckets'
    assert series[-1][0] == float('inf'), f'{key}: missing +Inf bucket'
    assert series[-1][1] == counts[key], f'{key}: +Inf != _count'

print(f'exposition ok: {len(types)} families, '
      f'{len(buckets)} histograms')
EOF
HDLS_INTER_BACKEND=sharded ./build/metrics_dashboard \
  --frames 2 --no-clear --period-ms 100
