#!/usr/bin/env bash
# Local reproduction of the CI pipeline: configure, build, test, format check.
# Exits non-zero on the first failure. Usage:
#
#   scripts/check.sh            # Debug (default)
#   BUILD_TYPE=Release scripts/check.sh
#   SANITIZE=ON scripts/check.sh   # CI's ASan/UBSan job: tier-1 tests plus
#                                  # the fuzz corpus replay
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_TYPE="${BUILD_TYPE:-Debug}"
SANITIZE="${SANITIZE:-OFF}"
BUILD_DIR="${BUILD_DIR:-build}"
JOBS="$(nproc 2>/dev/null || echo 4)"

# Optional-arg arrays are expanded with the ${arr[@]+...} guard so empty
# arrays survive `set -u` on bash < 4.4 (macOS ships 3.2).
GENERATOR_ARGS=()
if command -v ninja > /dev/null; then
  GENERATOR_ARGS+=(-G Ninja)
fi
LAUNCHER_ARGS=()
if command -v ccache > /dev/null; then
  LAUNCHER_ARGS+=(-DCMAKE_CXX_COMPILER_LAUNCHER=ccache)
fi
# The sanitize job in CI also builds the fuzz harnesses (their corpus replay
# carries fuzz_ssdp's agreement checks) and skips benches and examples.
SANITIZE_ARGS=()
if [[ "${SANITIZE}" == "ON" ]]; then
  SANITIZE_ARGS+=(-DINDISS_FUZZ=ON -DINDISS_BUILD_BENCH=OFF
                  -DINDISS_BUILD_EXAMPLES=OFF)
fi

echo "== configure (${BUILD_TYPE}, sanitize=${SANITIZE}) =="
cmake -B "${BUILD_DIR}" -S . \
  ${GENERATOR_ARGS[@]+"${GENERATOR_ARGS[@]}"} \
  ${LAUNCHER_ARGS[@]+"${LAUNCHER_ARGS[@]}"} \
  ${SANITIZE_ARGS[@]+"${SANITIZE_ARGS[@]}"} \
  -DCMAKE_BUILD_TYPE="${BUILD_TYPE}" -DINDISS_SANITIZE="${SANITIZE}"

echo "== build =="
cmake --build "${BUILD_DIR}" -j "${JOBS}"

if [[ "${SANITIZE}" == "ON" ]]; then
  export ASAN_OPTIONS="strict_string_checks=1:detect_stack_use_after_return=1"
  export UBSAN_OPTIONS="print_stacktrace=1"
  echo "== test (tier1) =="
  ctest --test-dir "${BUILD_DIR}" -L tier1 --output-on-failure -j "${JOBS}"
  echo "== fuzz corpus replay =="
  ctest --test-dir "${BUILD_DIR}" -L fuzz --output-on-failure -j "${JOBS}"
else
  echo "== test =="
  ctest --test-dir "${BUILD_DIR}" --output-on-failure -j "${JOBS}"
fi

echo "== format check =="
if command -v clang-format > /dev/null; then
  scripts/format-check.sh
else
  echo "clang-format not installed; skipping (CI runs it)"
fi

echo "== all checks passed =="
