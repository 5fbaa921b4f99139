#!/usr/bin/env bash
# Smoke gates for the `hypertrio` CLI and the bench binaries, at tiny scale.
#
#   scripts/smoke.sh OUT_DIR
#
# Runs seven sections in order — arch, bench, scale, obs, span, resume,
# fault — and stops at the first failed command or check. Outputs land in
# OUT_DIR, one subdirectory per section, and each CLI run's stdout is kept
# beside them as NAME.stdout, so the outputs of two builds can be compared
# with `diff -r` (the wall-clock numbers of bench_hotpath and bench_scale
# excepted). Checks: obs_validate pins every report, event trace, time
# series, span trace and checkpoint to its schema, and `cmp` holds the
# byte-identity promises (default arch = x86-4, interrupt+resume =
# uninterrupted).
set -euo pipefail

out="$(realpath -m "${1:?usage: scripts/smoke.sh OUT_DIR}")"
cd "$(dirname "$0")/.."
cargo build --release -q --workspace --bins

# cli NAME ARGS...: one `hypertrio` run; its stdout is also kept as NAME.stdout.
cli() {
  local name="$1"
  shift
  cargo run --release -q --bin hypertrio -- "$@" | tee "$name.stdout"
}

obs_validate() {
  cargo run --release -q -p bench --bin obs_validate -- "$@"
}

section() {
  d="$out/$1"
  mkdir -p "$d"
  echo "== smoke: $1"
}

# Cross-ISA: every --arch value validates against sim_report/v1, and the
# default geometry is byte-identical to an explicit --arch x86-4 run (the
# goldens are pinned under it).
section arch
for arch in x86-4 x86-5 sv39x4 sv48x4; do
  cli "$d/sim_$arch" sim \
    --tenants 16 --scale 2000 --arch "$arch" \
    --report-json "$d/report_$arch.json"
  cli "$d/sim_${arch}_base" sim \
    --tenants 16 --scale 2000 --arch "$arch" --config base \
    --report-json "$d/report_${arch}_base.json"
done
obs_validate \
  "$d/report_x86-4.json" "$d/report_x86-5.json" \
  "$d/report_sv39x4.json" "$d/report_sv48x4.json" \
  "$d/report_x86-4_base.json" "$d/report_x86-5_base.json" \
  "$d/report_sv39x4_base.json" "$d/report_sv48x4_base.json"
cli "$d/sim_default" sim \
  --tenants 16 --scale 2000 \
  --report-json "$d/report_default.json"
cmp "$d/report_default.json" "$d/report_x86-4.json"

# Wall-clock harness schema only (no thresholds: shared runners are too
# noisy): the tiny-scale run must carry a complete `stages` block per case,
# and the committed baseline must still validate.
section bench
SCALE=5 WARMUP=50 cargo run --release -q -p bench --bin bench_hotpath -- \
  --out "$d/bench_smoke.json"
cargo run --release -q -p bench --bin bench_hotpath -- --validate "$d/bench_smoke.json"
grep -q '"stages"' "$d/bench_smoke.json" || {
  echo "bench_smoke.json is missing the per-stage timing block" >&2
  exit 1
}
cargo run --release -q -p bench --bin bench_hotpath -- --validate BENCH_hotpath.json

# Bounded memory: a truncated 100k-tenant streaming curve under a hard RSS
# ceiling, both curves against bench_scale/v1, then a lazy-table CLI run
# whose report and event trace must validate. The curve peaks near
# 16 MiB with flat DID- and SID-indexed tenant state and near 27 MiB with a
# hash map per tenant-indexed table (SID-predictor, IOVA history, context
# table, pool residency), so the 24 MiB ceiling fails a return to
# per-tenant maps, let alone to per-tenant page tables. It runs in ~0.3 s.
section scale
MAX_TENANTS=100000 REQS=12 WARMUP=100 BUDGET_MB=64 \
  cargo run --release -q -p bench --bin bench_scale -- \
  --out "$d/scale_smoke.json" --rss-limit-mb 24
cargo run --release -q -p bench --bin bench_scale -- --validate "$d/scale_smoke.json"
cargo run --release -q -p bench --bin bench_scale -- --validate BENCH_scale.json
cli "$d/lazy_tables" sim \
  --tenants 1024 --scale 2000 --table-budget-mb 64 \
  --per-tenant --trace-out "$d/events.jsonl" \
  --report-json "$d/report.json"
obs_validate "$d/events.jsonl" "$d/report.json"

# Observability: event trace, time series (CSV and JSON) and reports.
section obs
cli "$d/sim" sim \
  --tenants 16 --scale 2000 --per-tenant \
  --trace-out "$d/events.jsonl" \
  --timeseries-out "$d/timeseries.csv" \
  --report-json "$d/report.json"
cli "$d/sim_base" sim \
  --tenants 16 --scale 2000 --config base \
  --timeseries-out "$d/timeseries.json" \
  --report-json "$d/report_base.json"
obs_validate \
  "$d/events.jsonl" "$d/timeseries.csv" "$d/report.json" \
  "$d/timeseries.json" "$d/report_base.json"

# Latency attribution: Perfetto span traces plus the report's
# latency_breakdown block, then the latency-breakdown figure on a
# truncated axis (its own asserts re-check the histogram reconciliation).
section span
cli "$d/sim" sim \
  --tenants 16 --scale 2000 --per-tenant \
  --spans-out "$d/spans.json" \
  --report-json "$d/report.json"
cli "$d/sim_faults" sim \
  --tenants 8 --scale 200 --config base \
  --fault-rate 0.02 --pri-latency-us 5 \
  --spans-out "$d/spans_faults.json" --spans-cap 256 \
  --report-json "$d/report_faults.json"
obs_validate \
  "$d/spans.json" "$d/report.json" \
  "$d/spans_faults.json" "$d/report_faults.json"
grep -q '"latency_breakdown": {' "$d/report.json" || {
  echo "report.json is missing the latency_breakdown block" >&2
  exit 1
}
SCALE=5 MAX_TENANTS=1024 \
  cargo run --release -q -p bench --bin fig_latency_breakdown |
  tee "$d/fig_latency_breakdown.txt"

# Interrupt–resume (DESIGN.md §16): the resumed report is byte-identical
# and the two event traces concatenate (minus meta lines) to the
# uninterrupted one, also under an active fault plan; the checkpoint
# validates.
section resume
cli "$d/full" sim \
  --tenants 64 --scale 2000 \
  --trace-out "$d/full.jsonl" \
  --report-json "$d/full.json"
cli "$d/part1" sim \
  --tenants 64 --scale 2000 --stop-after-us 25 \
  --checkpoint-out "$d/run.ckpt" \
  --trace-out "$d/part1.jsonl"
cli "$d/part2" sim \
  --tenants 64 --scale 2000 \
  --resume-from "$d/run.ckpt" \
  --trace-out "$d/part2.jsonl" \
  --report-json "$d/resumed.json"
cmp "$d/full.json" "$d/resumed.json"
cmp <(tail -n +2 "$d/part1.jsonl"; tail -n +2 "$d/part2.jsonl") \
  <(tail -n +2 "$d/full.jsonl")
obs_validate \
  "$d/run.ckpt" "$d/full.jsonl" \
  "$d/part1.jsonl" "$d/part2.jsonl" \
  "$d/full.json" "$d/resumed.json"
cli "$d/ffull" sim \
  --tenants 64 --scale 2000 --fault-rate 0.02 --pri-latency-us 5 \
  --trace-out "$d/ffull.jsonl" \
  --report-json "$d/ffull.json"
cli "$d/fpart1" sim \
  --tenants 64 --scale 2000 --fault-rate 0.02 --pri-latency-us 5 \
  --stop-after-us 25 \
  --checkpoint-out "$d/f.ckpt" \
  --trace-out "$d/fpart1.jsonl"
cli "$d/fpart2" sim \
  --tenants 64 --scale 2000 --fault-rate 0.02 --pri-latency-us 5 \
  --resume-from "$d/f.ckpt" \
  --trace-out "$d/fpart2.jsonl" \
  --report-json "$d/fresumed.json"
cmp "$d/ffull.json" "$d/fresumed.json"
cmp <(tail -n +2 "$d/fpart1.jsonl"; tail -n +2 "$d/fpart2.jsonl") \
  <(tail -n +2 "$d/ffull.jsonl")

# Fault injection: a fault_plan/v1 file plus CLI overrides drive storms,
# churn and IO page faults; the outputs validate; a plan whose backoff
# (2^53 - 1 slots) outlasts the simulated clock ends within 10 s; and each
# bad plan (a bogus schema, an unknown key, an out-of-range PRI latency)
# must be rejected with a nonzero exit.
section fault
cat > "$d/plan.json" <<'EOF'
{"schema": "fault_plan/v1", "seed": 7, "fault_rate": 0.02,
 "pri_latency_us": 5.0, "storm_period_us": 40,
 "storms": [{"at_us": 10, "global": true}, {"at_us": 25, "did": 2}],
 "churns": [{"at_us": 30, "did": 1}],
 "backoff": {"base_slots": 1, "cap_slots": 32, "max_retries": 6}}
EOF
cli "$d/sim" sim \
  --tenants 8 --scale 200 --per-tenant \
  --fault-plan "$d/plan.json" \
  --trace-out "$d/events.jsonl" \
  --timeseries-out "$d/timeseries.csv" \
  --report-json "$d/report.json"
cli "$d/sim_flags" sim \
  --tenants 8 --scale 200 --inv-storm 20 --fault-rate 0.05 \
  --report-json "$d/report_flags.json"
echo '{"schema":"fault_plan/v1","fault_rate":0.5,"backoff":{"base_slots":9007199254740991,"cap_slots":9007199254740991}}' \
  > "$d/huge_backoff.json"
timeout 10 cargo run --release -q --bin hypertrio -- sim \
  --tenants 16 --scale 400 --fault-plan "$d/huge_backoff.json" \
  --report-json "$d/report_huge_backoff.json" | tee "$d/huge_backoff.stdout"
obs_validate \
  "$d/events.jsonl" "$d/timeseries.csv" \
  "$d/report.json" "$d/report_flags.json" "$d/report_huge_backoff.json"
echo '{"schema": "bogus"}' > "$d/bad.json"
echo '{"schema": "fault_plan/v1", "fault_rat": 0.5}' > "$d/bad_key.json"
echo '{"schema": "fault_plan/v1", "fault_rate": 0.5, "pri_latency_us": 1e300}' \
  > "$d/bad_latency.json"
for bad in bad bad_key bad_latency; do
  if cli "$d/$bad" sim --fault-plan "$d/$bad.json"; then
    echo "expected a nonzero exit for the bad fault plan $bad.json" >&2
    exit 1
  fi
done

echo "smoke: all sections passed; outputs in $out"
