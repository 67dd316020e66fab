#!/usr/bin/env bash
# Build the threading-sensitive tests under ThreadSanitizer and run them.
#
# The CB-block executor synchronises through atomics (spin barrier, phase
# work counters) whose correctness depends on subtle memory ordering —
# TSan is the cheapest way to catch a regression there. Both the float
# (cake_gemm_test) and the int8 (int8_test) instantiations run. Uses a
# dedicated build directory so the ordinary build stays untouched.
#
# Exit status: nonzero if the build fails, any test fails, or the
# sanitizer reports a race (halt_on_error=1 + a distinctive exitcode, so a
# race is never misread as an ordinary test failure in CI logs).
#
# Usage: tools/run_tsan.sh [build-dir]        (default: build-tsan)
#        CAKE_SANITIZE=address tools/run_tsan.sh   for ASan+UBSan instead
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${1:-${repo_root}/build-tsan}"
sanitizer="${CAKE_SANITIZE:-thread}"

cmake -B "${build_dir}" -S "${repo_root}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCAKE_SANITIZE="${sanitizer}" \
  -DCAKE_BUILD_BENCH=OFF \
  -DCAKE_BUILD_EXAMPLES=OFF
cmake --build "${build_dir}" -j --target threading_test cake_gemm_test \
  int8_test

# Compose TSAN_OPTIONS so caller-supplied options EXTEND the defaults
# instead of silently replacing them (the old `${TSAN_OPTIONS:-...}` form
# dropped halt_on_error whenever a caller exported suppressions, letting
# races pass CI with exit code 0):
#   * halt_on_error=1 exitcode=66 — fail fast, with a distinctive code,
#   * the repo suppressions file is always attached when present,
#   * user options come last so they can still override the defaults.
tsan_defaults="halt_on_error=1 exitcode=66 second_deadlock_stack=1"
if [[ -f "${repo_root}/tools/tsan.supp" ]]; then
  tsan_defaults="${tsan_defaults} suppressions=${repo_root}/tools/tsan.supp"
fi
export TSAN_OPTIONS="${tsan_defaults} ${TSAN_OPTIONS:-}"
# Same contract for the ASan+UBSan flavour of this script.
export ASAN_OPTIONS="halt_on_error=1 exitcode=66 ${ASAN_OPTIONS:-}"
export UBSAN_OPTIONS="halt_on_error=1 print_stacktrace=1 ${UBSAN_OPTIONS:-}"

status=0
"${build_dir}/tests/threading_test" || status=$?
for t in cake_gemm_test int8_test; do
  if [[ ${status} -eq 0 ]]; then
    "${build_dir}/tests/${t}" || status=$?
  fi
done

if [[ ${status} -eq 66 ]]; then
  echo "${sanitizer} sanitizer REPORTED ERRORS (exit ${status})." >&2
  exit "${status}"
elif [[ ${status} -ne 0 ]]; then
  echo "${sanitizer} sanitizer run FAILED (exit ${status})." >&2
  exit "${status}"
fi
echo "${sanitizer} sanitizer run passed."
