#!/usr/bin/env bash
# Fixture self-test for the repo-invariant linter, registered as the
# `invariant_lint_selftest` ctest (label: lint).
#
# A linter that never fires is indistinguishable from no linter, so each
# fixture copies the live tree, seeds exactly one violation class, and
# asserts check_invariants.sh exits non-zero WITH the pointed message for
# that rule:
#
#   stale-doc-table     drop a TicketStatus enumerator row  -> R2 fires
#   unlabeled-conc-test new test uses ThreadPool, unlabeled -> R3 fires
#   undocumented-env    new env_int("GQA_...") read in src/ -> R1 fires
#   naked-thread        std::thread + detach outside util/  -> R4 fires
#   stale-fault-map     drop a fault::Point enumerator row  -> R5 fires
#   stale-backend-table drop a kernel backend's doc rows    -> R6 fires
#   stale-bench-file    BENCH_fit.json without fit_cache    -> R7 fires
#
# plus the control: an unmodified copy must pass (the linter must not
# cry wolf on the real tree).
set -u
cd "$(dirname "$0")/../.."
repo_root=$(pwd)
linter="$repo_root/tools/lint/check_invariants.sh"

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

make_fixture() {
  local name="$1"
  local dir="$tmp/$name"
  mkdir -p "$dir"
  cp README.md CMakeLists.txt "$dir/"
  mkdir -p "$dir/docs"
  cp docs/ARCHITECTURE.md "$dir/docs/"
  cp -r src tests tools "$dir/"
  cp BENCH_*.json "$dir/"
  echo "$dir"
}

fails=0
expect_fail() {
  local name="$1" pattern="$2" dir="$3"
  local out
  out=$(GQA_LINT_ROOT="$dir" bash "$linter" 2>&1)
  local code=$?
  if [ "$code" -eq 0 ]; then
    echo "lint-selftest: FAIL [$name] linter passed a tree seeded with a" \
         "violation" >&2
    fails=1
  elif ! printf '%s\n' "$out" | grep -qE -- "$pattern"; then
    echo "lint-selftest: FAIL [$name] linter failed but without the" \
         "pointed message (wanted /$pattern/, got: $out)" >&2
    fails=1
  fi
}

# --- control: unmodified copy passes ------------------------------------
dir=$(make_fixture control)
if ! GQA_LINT_ROOT="$dir" bash "$linter" >/dev/null 2>&1; then
  echo "lint-selftest: FAIL [control] linter rejects an unmodified copy of" \
       "the live tree" >&2
  fails=1
fi

# --- stale doc table: drop every line mentioning kConsumed --------------
dir=$(make_fixture stale-doc-table)
sed -i '/kConsumed/d' "$dir/docs/ARCHITECTURE.md"
expect_fail stale-doc-table 'R2: TicketStatus::kConsumed' "$dir"

# --- unlabeled concurrency test -----------------------------------------
dir=$(make_fixture unlabeled-conc-test)
cat > "$dir/tests/sneaky_pool_test.cpp" <<'EOF'
#include "util/thread_pool.h"
int main() { gqa::ThreadPool pool(2); return 0; }
EOF
expect_fail unlabeled-conc-test 'R3: tests/sneaky_pool_test.cpp' "$dir"

# --- undocumented env read ----------------------------------------------
dir=$(make_fixture undocumented-env)
cat > "$dir/src/selftest_knob.cpp" <<'EOF'
#include "util/env.h"
int selftest_knob() { return gqa::env_int("GQA_SELFTEST_KNOB", 0); }
EOF
expect_fail undocumented-env 'R1: env knob GQA_SELFTEST_KNOB' "$dir"

# --- naked thread outside util/ -----------------------------------------
dir=$(make_fixture naked-thread)
cat > "$dir/src/eval/naked_thread.cpp" <<'EOF'
#include <thread>
void leak_a_thread() {
  std::thread worker([] {});
  worker.detach();
}
EOF
expect_fail naked-thread 'R4: naked std::thread' "$dir"

# --- stale fault-point map: drop every line mentioning kCacheWrite -------
dir=$(make_fixture stale-fault-map)
sed -i '/kCacheWrite/d' "$dir/docs/ARCHITECTURE.md"
expect_fail stale-fault-map 'R5: Point::kCacheWrite' "$dir"

# --- stale backend table: drop every line mentioning `avx2` --------------
dir=$(make_fixture stale-backend-table)
sed -i '/`avx2`/d' "$dir/docs/ARCHITECTURE.md"
expect_fail stale-backend-table "R6: kernel backend 'avx2'" "$dir"

# --- stale BENCH file: a fit artifact from before fit_cache existed ------
dir=$(make_fixture stale-bench-file)
printf '{\n  "bench": "fit",\n  "int8": {}\n}\n' > "$dir/BENCH_fit.json"
expect_fail stale-bench-file "R7: BENCH_fit.json lacks manifest section 'fit_cache'" "$dir"

if [ "$fails" -eq 0 ]; then
  echo "lint-selftest: OK (7 violation classes fire, control passes)"
fi
exit $fails
