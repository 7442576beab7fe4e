#!/usr/bin/env bash
# Repo-invariant linter, registered as the `invariant_lint` ctest (label:
# lint) and run in CI. Seven rules, each one a cross-cutting invariant that
# no single compiler diagnostic can enforce:
#
#  R1  Every GQA_* environment variable src/ actually reads (env_int /
#      env_string / env_flag call sites) must appear in README.md — an env
#      knob that exists only in code is invisible to operators.
#  R2  Every enumerator of TicketStatus and DropPolicy (src/eval/server.h)
#      and ServingErrorCode (src/util/serving_error.h) must appear in
#      docs/ARCHITECTURE.md — the doc's lifecycle/error/drop-policy tables
#      must not go stale when an enumerator is added.
#  R3  Every test source under tests/ that touches a concurrency primitive
#      (std::thread, std::atomic, ThreadPool, global_pool, BoundedQueue,
#      gqa::Server) must be listed in GQA_CONCURRENCY_TESTS in
#      CMakeLists.txt, so `ctest -L concurrency` (the TSan CI job) covers
#      it.
#  R4  No naked std::thread construction and no detach() outside src/util/
#      — threads are owned through ScopedThread / ThreadPool
#      (util/thread_pool.h) so every thread has a join point.
#  R5  Every enumerator of fault::Point (src/util/fault_injection.h) must
#      appear in docs/ARCHITECTURE.md — the chaos-harness injection-point
#      map must not go stale when a fault point is added.
#  R6  Every kernel backend registered in src/kernel/dispatch*.cpp (the
#      `.name = "<backend>"` designated initializers) must appear in the
#      docs/ARCHITECTURE.md backend table — a backend operators can select
#      via GQA_KERNEL_BACKEND must not be undocumented.
#  R7  Every name in bench_to_json's `expected` manifest
#      (tools/bench_to_json.cpp) must appear in the committed BENCH_*.json
#      that its emit_artifact call writes — as the file's `"bench"` value
#      or as a section key. This checks the schema, not the values: a BENCH
#      file left over from before a section existed fails here.
#
# Exit: non-zero with one pointed message per violation. GQA_LINT_ROOT
# overrides the repo root (used by lint_selftest.sh for fixture trees).
set -u
cd "${GQA_LINT_ROOT:-$(dirname "$0")/../..}"
status=0
fail() {
  echo "invariant-lint: $*" >&2
  status=1
}

# --- R1: env knobs documented -------------------------------------------
env_vars=$(grep -rhoE 'env_(int|string|flag)\("GQA_[A-Z0-9_]+"' src/ 2>/dev/null \
  | grep -oE 'GQA_[A-Z0-9_]+' | sort -u)
for var in $env_vars; do
  if ! grep -q -- "$var" README.md; then
    fail "R1: env knob $var is read in src/ but has no README.md row" \
         "(document it in the environment-knob table)"
  fi
done

# --- R2/R5: doc enum tables fresh ---------------------------------------
# Pull the enumerator names out of the `enum class <Name>` block and demand
# each one appears somewhere in docs/ARCHITECTURE.md. The rule prefix is a
# parameter so serving-lifecycle enums (R2) and chaos fault points (R5)
# fail with their own rule id.
check_enum_documented() {
  local rule="$1" enum_name="$2" header="$3"
  if [ ! -f "$header" ]; then
    fail "$rule: expected $header to define $enum_name, but it is missing"
    return
  fi
  local enumerators
  enumerators=$(awk -v name="$enum_name" '
    $0 ~ "enum class " name {f=1}
    f && /};/ {f=0}
    f {print}' "$header" | grep -oE '\bk[A-Z][A-Za-z0-9]*' | sort -u)
  if [ -z "$enumerators" ]; then
    fail "$rule: could not extract enumerators of $enum_name from $header"
    return
  fi
  local e
  for e in $enumerators; do
    if ! grep -q -- "$e" docs/ARCHITECTURE.md; then
      fail "$rule: $enum_name::$e ($header) is missing from" \
           "docs/ARCHITECTURE.md — update the $enum_name table"
    fi
  done
}
check_enum_documented R2 TicketStatus src/eval/server.h
check_enum_documented R2 DropPolicy src/eval/server.h
check_enum_documented R2 ServingErrorCode src/util/serving_error.h

# --- R3: concurrency tests labeled --------------------------------------
labeled=$(awk '/set\(GQA_CONCURRENCY_TESTS/{f=1;next} f&&/\)/{f=0} f{print $1}' \
  CMakeLists.txt)
for test_src in tests/*.cpp; do
  [ -e "$test_src" ] || continue
  if grep -qE 'std::thread|std::atomic|ThreadPool|global_pool|BoundedQueue|gqa::Server' \
      "$test_src"; then
    name=$(basename "$test_src" .cpp)
    if ! printf '%s\n' "$labeled" | grep -qx -- "$name"; then
      fail "R3: $test_src uses concurrency primitives but $name is not in" \
           "GQA_CONCURRENCY_TESTS (CMakeLists.txt) — the TSan job would" \
           "skip it"
    fi
  fi
done

# --- R4: no naked threads outside util/ ---------------------------------
# std::this_thread::* does not contain the literal `std::thread`, so sleep
# and yield call sites stay clean.
while IFS= read -r hit; do
  fail "R4: naked std::thread outside src/util/ — own it through" \
       "ScopedThread or ThreadPool (util/thread_pool.h): $hit"
done < <(grep -rnE 'std::thread\b' src/ --include='*.cpp' --include='*.h' \
  | grep -v '^src/util/' || true)
while IFS= read -r hit; do
  fail "R4: detach() outside src/util/ — detached threads have no join" \
       "point and outlive shutdown: $hit"
done < <(grep -rnE '\.detach\(\)' src/ --include='*.cpp' --include='*.h' \
  | grep -v '^src/util/' || true)

# --- R5: fault-injection point map fresh --------------------------------
check_enum_documented R5 Point src/util/fault_injection.h

# --- R6: kernel backends documented --------------------------------------
# Registered backends use designated initializers (`.name = "avx2"`), which
# is the one greppable declaration every dispatch TU shares.
backend_names=$(grep -rhoE '\.name = "[a-z0-9_]+"' src/kernel/dispatch*.cpp \
  2>/dev/null | grep -oE '"[a-z0-9_]+"' | tr -d '"' | sort -u)
for backend in $backend_names; do
  if ! grep -q -- "\`$backend\`" docs/ARCHITECTURE.md; then
    fail "R6: kernel backend '$backend' (src/kernel/dispatch*.cpp) is" \
         "missing from docs/ARCHITECTURE.md — update the kernel-dispatch" \
         "backend table"
  fi
done

# --- R7: committed BENCH files carry the bench_to_json manifest ----------
# Each emit_artifact("<name>", "<file>", {"<nested>", ...}, ...) call spans
# a few lines up to its `[&]` builder lambda; joined, its quoted strings
# are the name, the file, then the nested sections.
tool=tools/bench_to_json.cpp
if [ -f "$tool" ]; then
  manifest=$(awk '/std::vector<std::string> expected = \{/ {f=1} f {print}
    f && /\};/ {exit}' "$tool" | grep -oE '"[a-z0-9_]+"' | tr -d '"')
  calls=$(awk '/emit_artifact\("/ {f=1; buf=""} f {buf = buf $0}
    f && /\[&\]/ {print buf; f=0}' "$tool")
  if [ -z "$manifest" ] || [ -z "$calls" ]; then
    fail "R7: could not extract the manifest or the emit_artifact calls" \
         "from $tool"
  fi
  for name in $manifest; do
    file=""
    while IFS= read -r call; do
      strings=$(printf '%s\n' "$call" | grep -oE '"[A-Za-z0-9_.]+"' \
        | tr -d '"')
      written=$(printf '%s\n' "$strings" | sed -n 2p)
      if printf '%s\n' "$strings" | sed 2d | grep -qx -- "$name"; then
        file="$written"
      fi
    done <<< "$calls"
    if [ -z "$file" ]; then
      fail "R7: manifest entry '$name' ($tool) is written by no" \
           "emit_artifact call"
    elif [ ! -f "$file" ]; then
      fail "R7: $file (manifest entry '$name') is not committed —" \
           "regenerate it with ./build/tools/bench_to_json ."
    elif ! grep -q -- "\"$name\"" "$file"; then
      fail "R7: $file lacks manifest section '$name' — the committed" \
           "file is stale; regenerate it with ./build/tools/bench_to_json ."
    fi
  done
else
  fail "R7: $tool is missing, so the BENCH manifest cannot be checked"
fi

if [ "$status" -eq 0 ]; then
  echo "invariant-lint: OK"
fi
exit $status
