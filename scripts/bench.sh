#!/usr/bin/env bash
# Runs the tracked benchmarks and records the results as JSON so the perf
# trajectory of the event pipeline and the simulation substrate is tracked
# with data, not vibes.
#
#   scripts/bench.sh                         # all benches, full run
#   scripts/bench.sh translation             # bench_abl_translation + _storm
#                                            # + bench_abl_fsm
#   scripts/bench.sh scaling                 # only bench_abl_substrate
#   scripts/bench.sh --benchmark_min_time=0.01x      # CI smoke run
#   scripts/bench.sh scaling --compare old.json      # exit 1 on >20%
#                                                    # events/sec regression
#   scripts/bench.sh all --compare-translation t.json  # same gate on the
#                                                      # translation record,
#                                                      # plus an allocs/op
#                                                      # gate
#   scripts/bench.sh --compare-only old.json         # compare an existing
#                                                    # BENCH_scaling.json
#                                                    # without re-running
#   BUILD_DIR=build-rel scripts/bench.sh
#
# With --compare or --compare-translation, every gated binary runs with
# --benchmark_repetitions=3 (unless the arguments set a count), and the
# gates compare the _median aggregates: one noisy repetition cannot trip or
# mask the 20% bound. Records with no aggregate (a run or baseline without
# repetitions) are compared by their plain entry.
#
# Bench binaries are always built from a Release (+LTO) tree: BUILD_DIR when
# it is already Release (the CI configuration), else a dedicated build-bench
# tree configured on first use (override with BENCH_BUILD_DIR).
#
# Outputs:
#   BENCH_translation.json — event-layer round trips (allocs/op +
#                            events_per_sec counters) merged with the
#                            abl_storm announcement-storm record (cache
#                            hit rate, enabled-vs-disabled throughput) and
#                            the abl_fsm DFA-step record
#   BENCH_scaling.json     — substrate throughput: slot-arena scheduler +
#                            shared-datagram fan-out, plus the macro scaling
#                            topology
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build}"
OUT_TRANSLATION="${OUT_TRANSLATION:-${OUT:-BENCH_translation.json}}"
OUT_SCALING="${OUT_SCALING:-BENCH_scaling.json}"

FILTER="all"
# Repetitions of each gated binary (its _median aggregate is what compares).
GATE_REPETITIONS=3
COMPARE=""
COMPARE_TRANSLATION=""
COMPARE_ONLY=0
ARGS=()
while [ $# -gt 0 ]; do
  case "$1" in
    translation|scaling|all)
      FILTER="$1"
      ;;
    --compare)
      [ $# -ge 2 ] || { echo "error: --compare needs a baseline.json" >&2; exit 2; }
      COMPARE="$2"
      shift
      ;;
    --compare-translation)
      [ $# -ge 2 ] || { echo "error: --compare-translation needs a baseline.json" >&2; exit 2; }
      COMPARE_TRANSLATION="$2"
      shift
      ;;
    --compare-only)
      [ $# -ge 2 ] || { echo "error: --compare-only needs a baseline.json" >&2; exit 2; }
      COMPARE="$2"
      COMPARE_ONLY=1
      shift
      ;;
    *)
      ARGS+=("$1")
      ;;
  esac
  shift
done

# --compare judges the output produced by THIS invocation; refuse
# combinations that would silently compare a stale or missing file.
if [ -n "${COMPARE}" ] && [ "${COMPARE_ONLY}" = 0 ] && [ "${FILTER}" = "translation" ]; then
  echo "error: --compare needs the scaling bench to run (use 'scaling' or 'all')" >&2
  exit 2
fi
if [ -n "${COMPARE_TRANSLATION}" ] && [ "${COMPARE_ONLY}" = 0 ] && [ "${FILTER}" = "scaling" ]; then
  echo "error: --compare-translation needs the translation bench to run (use 'translation' or 'all')" >&2
  exit 2
fi

# Bench numbers must come from an optimized build: the checked-in baselines
# were once recorded from a Debug tree, which both slows every benchmark and
# leaves assert() live. If BUILD_DIR is already a Release tree (the CI
# configuration) it is used as-is; otherwise a dedicated Release+LTO tree is
# configured at build-bench (override with BENCH_BUILD_DIR).
BENCH_DIR="${BUILD_DIR}"
if [ "${COMPARE_ONLY}" = 0 ]; then
  if [ -f "${BUILD_DIR}/CMakeCache.txt" ] &&
     grep -q "^CMAKE_BUILD_TYPE:[^=]*=Release" "${BUILD_DIR}/CMakeCache.txt"; then
    BENCH_DIR="${BUILD_DIR}"
  else
    BENCH_DIR="${BENCH_BUILD_DIR:-build-bench}"
    if [ ! -f "${BENCH_DIR}/CMakeCache.txt" ]; then
      echo "== configure ${BENCH_DIR} (Release + LTO for benches) =="
      cmake -B "${BENCH_DIR}" -S . -DCMAKE_BUILD_TYPE=Release -DINDISS_LTO=ON \
        -DINDISS_BUILD_TESTS=OFF -DINDISS_BUILD_EXAMPLES=OFF
    fi
  fi
fi

# Shared tolerant loader for every place this script parses bench JSON.
# On some hosts a conda-wrapped toolchain prepends its auto_activate_base
# warning (or similar shell-hook chatter) to files produced under it; parse
# from the first brace so noise never survives into the stamped documents
# and stale noise in an old baseline cannot break a compare.
LOAD_BENCH_JSON=$(cat <<'PYEOF'
import json

def load_bench_json(path):
    with open(path) as f:
        text = f.read()
    start = text.find("{")
    if start < 0:
        raise SystemExit(f"error: {path} contains no JSON object")
    return json.loads(text[start:])

def gated_values(path, counter):
    """`counter` per benchmark: its _median aggregate when the run had
    repetitions, else its plain entry."""
    plain, medians = {}, {}
    for bench in load_bench_json(path).get("benchmarks", []):
        if counter not in bench:
            continue
        if bench.get("run_type") != "aggregate":
            plain[bench["name"]] = bench[counter]
        elif bench.get("aggregate_name") == "median":
            medians[bench["run_name"]] = bench[counter]
    plain.update(medians)
    return plain
PYEOF
)

run_bench() {
  local target="$1" out="$2" gated="${3:-0}"
  echo "== build ${target} =="
  if ! cmake --build "${BENCH_DIR}" --target "${target}" -j; then
    echo "error: ${target} did not build — is libbenchmark-dev installed?" \
         "(the target is skipped when CMake cannot find it)" >&2
    exit 1
  fi
  local bin="${BENCH_DIR}/bench/${target}"

  # google-benchmark < 1.7 rejects the "0.01x" iteration-suffix form of
  # --benchmark_min_time; strip the suffix for old libraries so one CI
  # invocation works against whatever libbenchmark-dev the distro ships.
  local run_args=()
  local arg
  for arg in ${ARGS[@]+"${ARGS[@]}"}; do
    if [[ "${arg}" == --benchmark_min_time=*x ]] &&
       ! "${bin}" --benchmark_list_tests "${arg}" > /dev/null 2>&1; then
      arg="${arg%x}"
    fi
    run_args+=("${arg}")
  done
  if [ "${gated}" = 1 ] &&
     [[ " ${run_args[*]+"${run_args[*]}"} " != *" --benchmark_repetitions="* ]]; then
    run_args+=("--benchmark_repetitions=${GATE_REPETITIONS}")
  fi

  echo "== run ${target} -> ${out} =="
  "${bin}" --benchmark_out="${out}" --benchmark_out_format=json \
    ${run_args[@]+"${run_args[@]}"}

  # google-benchmark's "library_build_type" reports how the *system
  # libbenchmark* was compiled (Debian ships it without NDEBUG, so it always
  # says "debug"); record the build type of OUR bench binary explicitly so a
  # Debug-built recording is visible in review. Stamping also round-trips the
  # file through load_bench_json, so any shell-hook chatter a wrapped
  # toolchain prepended (conda's auto_activate_base warning is the usual
  # offender) is stripped instead of shipped inside the tracked JSON.
  python3 - "${out}" "${BENCH_DIR}/CMakeCache.txt" <<EOF
${LOAD_BENCH_JSON}
import os
import sys

out_path, cache_path = sys.argv[1], sys.argv[2]
build_type = "unknown"
with open(cache_path) as f:
    for line in f:
        if line.startswith("CMAKE_BUILD_TYPE:"):
            build_type = line.split("=", 1)[1].strip().lower() or "unknown"
doc = load_bench_json(out_path)
context = doc.setdefault("context", {})
context["bench_binary_build_type"] = build_type
# The cores axis (docs/sharding.md): record how many hardware threads the
# recording machine had, and which shard counts the run actually measured
# (the BM_StormSharded "shards" counter). A reader comparing the 4-shard
# entry against 1-shard needs num_threads to know whether the machine could
# even express the speedup — on a 1-core recorder the axis is flat by
# construction.
context["num_threads"] = os.cpu_count() or 1
shards_axis = sorted(
    {int(bench["shards"]) for bench in doc.get("benchmarks", [])
     if "shards" in bench and bench.get("run_type") != "aggregate"})
if shards_axis:
    context["shards"] = shards_axis
with open(out_path, "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
EOF
  echo "== wrote ${out} =="
}

if [ "${COMPARE_ONLY}" = 0 ]; then
  # Plain ifs rather than a ;;& fallthrough case: bash 3.2 (macOS) lacks ;;&.
  if [ "${FILTER}" = "translation" ] || [ "${FILTER}" = "all" ]; then
    # The translation record is three binaries: the per-message round trips
    # (bench_abl_translation), the announcement-storm macro bench
    # (bench_abl_storm) and the unit FSM's step cost (bench_abl_fsm); their
    # benchmark arrays merge into one JSON.
    gated=0
    [ -n "${COMPARE_TRANSLATION}" ] && gated=1
    run_bench bench_abl_translation "${OUT_TRANSLATION}.roundtrip.tmp" "${gated}"
    run_bench bench_abl_storm "${OUT_TRANSLATION}.storm.tmp" "${gated}"
    run_bench bench_abl_fsm "${OUT_TRANSLATION}.fsm.tmp" "${gated}"
    python3 - "${OUT_TRANSLATION}.roundtrip.tmp" "${OUT_TRANSLATION}.storm.tmp" \
        "${OUT_TRANSLATION}.fsm.tmp" "${OUT_TRANSLATION}" <<EOF
${LOAD_BENCH_JSON}
import sys

merged = load_bench_json(sys.argv[1])
for extra_path in sys.argv[2:-1]:
    extra = load_bench_json(extra_path)
    merged["benchmarks"].extend(extra.get("benchmarks", []))
    # The shards axis is stamped on the storm run's context; keep it on the
    # merged document (the other binaries have no sharded benchmarks).
    if "shards" in extra.get("context", {}):
        merged.setdefault("context", {})["shards"] = extra["context"]["shards"]
with open(sys.argv[-1], "w") as f:
    json.dump(merged, f, indent=2)
    f.write("\n")
EOF
    rm -f "${OUT_TRANSLATION}.roundtrip.tmp" "${OUT_TRANSLATION}.storm.tmp" \
      "${OUT_TRANSLATION}.fsm.tmp"
    echo "== merged storm and fsm results into ${OUT_TRANSLATION} =="
  fi
  if [ "${FILTER}" = "scaling" ] || [ "${FILTER}" = "all" ]; then
    gated=0
    [ -n "${COMPARE}" ] && gated=1
    run_bench bench_abl_substrate "${OUT_SCALING}" "${gated}"
  fi
elif [ ! -f "${OUT_SCALING}" ] && [ -n "${COMPARE}" ]; then
  echo "error: --compare-only: ${OUT_SCALING} does not exist" >&2
  exit 2
fi

# Median-normalized events/sec regression gate, shared by the scaling and
# translation baselines (see the long comment inside for the rationale).
compare_events_rates() {
  local baseline="$1" current="$2"
  if [ ! -f "${baseline}" ]; then
    echo "error: baseline ${baseline} does not exist" >&2
    exit 2
  fi
  echo "== compare ${current} against baseline ${baseline} =="
  python3 - "${baseline}" "${current}" <<EOF
${LOAD_BENCH_JSON}
import sys

baseline_path, current_path = sys.argv[1], sys.argv[2]
base = gated_values(baseline_path, "events_per_sec")
current = gated_values(current_path, "events_per_sec")
shared = [name for name in base if name in current]
if not shared:
    print("no common events_per_sec benchmarks between the two files")
    sys.exit(2)
# Benchmarks only the current run has (e.g. the BM_StormSharded cores axis
# against a baseline recorded before sharding existed) are informational:
# they cannot regress against nothing, so they are listed and excluded.
for name in sorted(set(current) - set(base)):
    print(f"{name}: new (no baseline) — {current[name]:.0f} events/sec")

# The baseline may come from different hardware (CI runners vs the machine
# that recorded the checked-in JSON). A uniform speed difference shifts every
# benchmark by the same factor, so ratios are judged relative to the median
# ratio: only benchmarks that regressed >20% *beyond* the overall hardware
# delta flag. On identical hardware the median is ~1.0 and this reduces to a
# plain 20% gate.
ratios = {}
for name in shared:
    ratios[name] = current[name] / base[name] if base[name] else 0.0
ordered = sorted(ratios.values())
n = len(ordered)
median = (ordered[n // 2] if n % 2 == 1
          else (ordered[n // 2 - 1] + ordered[n // 2]) / 2.0)
if median <= 0:
    print("degenerate baseline: median ratio is 0")
    sys.exit(2)

regressions = []
print(f"hardware-normalizing by median ratio {median:.2f}")
print(f"{'benchmark':44s} {'baseline':>14s} {'current':>14s} {'ratio':>7s} "
      f"{'norm':>7s}")
for name in shared:
    normalized = ratios[name] / median
    flag = "  << REGRESSION" if normalized < 0.8 else ""
    print(f"{name:44s} {base[name]:14.0f} {current[name]:14.0f} "
          f"{ratios[name]:7.2f} {normalized:7.2f}{flag}")
    if normalized < 0.8:
        regressions.append(name)
if regressions:
    print(f"FAIL: >20% events/sec regression: {', '.join(regressions)}")
    sys.exit(1)
print("OK: no events/sec regression >20% (median-normalized)")
EOF
}

# Allocation gate for the translation record: a shared benchmark fails when
# its heap_allocs_per_op rises above the baseline by more than max(0.5, 2%).
# Allocation counts repeat exactly from run to run and do not depend on the
# machine, while one run's events/sec can move by a third on a busy host, so
# this gate needs no normalization and sees what the rate gate cannot.
compare_heap_allocs() {
  local baseline="$1" current="$2"
  echo "== compare heap_allocs_per_op of ${current} against ${baseline} =="
  python3 - "${baseline}" "${current}" <<EOF
${LOAD_BENCH_JSON}
import sys

base = gated_values(sys.argv[1], "heap_allocs_per_op")
current = gated_values(sys.argv[2], "heap_allocs_per_op")
shared = [name for name in base if name in current]
if not shared:
    print("no common heap_allocs_per_op benchmarks between the two files")
    sys.exit(2)
regressions = []
print(f"{'benchmark':44s} {'baseline':>10s} {'current':>10s} {'limit':>10s}")
for name in shared:
    limit = base[name] + max(0.5, 0.02 * base[name])
    flag = "  << REGRESSION" if current[name] > limit else ""
    print(f"{name:44s} {base[name]:10.2f} {current[name]:10.2f} "
          f"{limit:10.2f}{flag}")
    if flag:
        regressions.append(name)
if regressions:
    print("FAIL: heap_allocs_per_op above the baseline by more than "
          f"max(0.5, 2%): {', '.join(regressions)}")
    sys.exit(1)
print("OK: no heap_allocs_per_op rise beyond max(0.5, 2%)")
EOF
}

# Every requested gate runs and prints its table; any failure fails the run.
status=0
if [ -n "${COMPARE}" ]; then
  compare_events_rates "${COMPARE}" "${OUT_SCALING}" || status=$?
fi
if [ -n "${COMPARE_TRANSLATION}" ]; then
  if [ ! -f "${OUT_TRANSLATION}" ]; then
    echo "error: ${OUT_TRANSLATION} does not exist" >&2
    exit 2
  fi
  compare_events_rates "${COMPARE_TRANSLATION}" "${OUT_TRANSLATION}" ||
    status=$?
  compare_heap_allocs "${COMPARE_TRANSLATION}" "${OUT_TRANSLATION}" ||
    status=$?
fi
exit "${status}"
