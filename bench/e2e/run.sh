#!/usr/bin/env bash
# The live end-to-end benchmark: builds indissd, its traced twin and the load
# generator (Release + LTO), runs the workloads against fresh gateways on
# 127.0.0.1 multicast, checks every counted frame, and reports.
#
#   bench/e2e/run.sh [--seed N] [--workloads a,b] [--trace] [--repeat N]
#                    [--out FILE] [--seconds S]
#   bench/e2e/run.sh --workload adv-refresh --seed 3 --seconds 15 --trace 0
#   bench/e2e/run.sh --smoke [--build-dir DIR]     # ~2 s per workload
#
# Prints one `workload=... metric=... value=... unit=...` line per metric
# and, last, one JSON object (correct / attempted / failed / metrics).
# --repeat N runs each workload N times on seeds N..N+repeat-1 and prints
# each gated metric's median, quartiles and spread against its bound in
# BENCHMARK.json. Every run's full result goes to --out (default
# build-bench/e2e/result.json). Exits non-zero when a run fails a
# correctness check, or when no run of a workload kept its schedule.
#
# Needs root (or CAP_NET_BIND_SERVICE): the gateway and the generator bind
# the well-known SDP ports, SLP's 427 among them.
set -euo pipefail

cd "$(dirname "$0")/../.."
HERE=bench/e2e
WORKLOADS="adv-refresh,adv-churn,query-bridged,query-directory"
SEED=1
SECONDS_ARG=""
TRACE=0
REPEAT=1
OUT=""
SMOKE=0
BUILD_DIR=build-bench/e2e
PREBUILT=0

while [ $# -gt 0 ]; do
  case "$1" in
    --workload|--workloads) WORKLOADS="$2"; shift ;;
    --seed) SEED="$2"; shift ;;
    --seconds) SECONDS_ARG="$2"; shift ;;
    --repeat) REPEAT="$2"; shift ;;
    --out) OUT="$2"; shift ;;
    --smoke) SMOKE=1 ;;
    --build-dir) BUILD_DIR="$2"; PREBUILT=1; shift ;;
    --trace)
      # Both `--trace` and `--trace 0|1` spellings.
      if [ $# -ge 2 ] && { [ "$2" = 0 ] || [ "$2" = 1 ]; }; then
        TRACE="$2"; shift
      else
        TRACE=1
      fi
      ;;
    *) echo "run.sh: unknown argument '$1'" >&2; exit 2 ;;
  esac
  shift
done

if [ ! -f CMakeLists.txt ] || [ ! -d src ] || [ ! -f daemon/indissd.cpp ]; then
  echo "run.sh: the repository's sources (CMakeLists.txt, src/, daemon/) are" \
       "not here; run it from a checkout of the repository" >&2
  exit 2
fi
if [ -z "${SECONDS_ARG}" ]; then
  SECONDS_ARG=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
fi

if [ "${PREBUILT}" = 0 ]; then
  mkdir -p "${BUILD_DIR}"
  if [ ! -f "${BUILD_DIR}/CMakeCache.txt" ]; then
    GENERATOR=()
    if command -v ninja > /dev/null; then GENERATOR=(-G Ninja); fi
    cmake -S "${HERE}" -B "${BUILD_DIR}" "${GENERATOR[@]}" \
      -DCMAKE_BUILD_TYPE=Release > "${BUILD_DIR}/configure.log" 2>&1 || {
        cat "${BUILD_DIR}/configure.log" >&2; exit 1; }
  fi
  cmake --build "${BUILD_DIR}" -j "$(nproc)" --target indissd \
    bench_e2e_loadgen bench_e2e_traced_gateway > "${BUILD_DIR}/build.log" 2>&1 || {
      tail -n 40 "${BUILD_DIR}/build.log" >&2; exit 1; }
fi

RUNS="${BUILD_DIR}/runs"
mkdir -p "${RUNS}"
OUT="${OUT:-${BUILD_DIR}/result.json}"
EXTRA_ARGS=()
if [ "${SMOKE}" = 1 ]; then EXTRA_ARGS+=(--smoke); SECONDS_ARG=2; fi
# A run takes a few seconds more than it measures.
LIMIT=$((2 * ${SECONDS_ARG%.*} + 20))

results=()
IFS=',' read -r -a names <<< "${WORKLOADS}"
for workload in "${names[@]}"; do
  for ((i = 0; i < REPEAT; i++)); do
    seed=$((SEED + i))
    result="${RUNS}/${workload}-seed${seed}-trace${TRACE}.json"
    # A run whose generator fell behind its schedule is invalid: it is run
    # once more (two attempts fit in the 180 s a run may take), and
    # report.py leaves one that stays invalid out of every median.
    for attempt in 1 2; do
      status=0
      timeout "${LIMIT}" "${BUILD_DIR}/bench_e2e_loadgen" \
        --workload "${workload}" --seed "${seed}" --seconds "${SECONDS_ARG}" \
        --trace "${TRACE}" --gateway "${BUILD_DIR}/indissd" \
        --traced "${BUILD_DIR}/bench_e2e_traced_gateway" \
        --out-dir "${RUNS}" "${EXTRA_ARGS[@]}" > "${result}" \
        2> "${result%.json}.log" || status=$?
      if [ "${status}" != 0 ]; then
        cat "${result%.json}.log" >&2
        echo "run.sh: ${workload} (seed ${seed}) failed with status ${status}" >&2
        exit 1
      fi
      if grep -q '"valid":true' "${result}"; then break; fi
      echo "run.sh: ${workload} (seed ${seed}): generator fell behind" \
           "(attempt ${attempt})" >&2
    done
    results+=("${result}")
  done
done

python3 "${HERE}/report.py" BENCHMARK.json "${OUT}" "${TRACE}" "${results[@]}"
