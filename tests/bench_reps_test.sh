#!/usr/bin/env bash
# Registered as the `bench_reps` ctest. A bench run with no timing rounds
# checks nothing: every time reads as the unset sentinel and the
# bit-identity gate compares outputs no round wrote. GQA_BENCH_REPS below
# 1 must therefore stop the SIMD kernel bench with an error naming the
# variable, while GQA_BENCH_REPS=1 runs it to a passing gate.
#
# $1 = path to the micro_simd_kernel binary.
set -u
bench="$1"
fails=0

for reps in 0 -3; do
  out=$(GQA_BENCH_REPS=$reps "$bench" 2>&1)
  code=$?
  if [ "$code" -eq 0 ]; then
    echo "bench-reps: FAIL GQA_BENCH_REPS=$reps exited 0" >&2
    echo "$out" >&2
    fails=1
  elif ! printf '%s\n' "$out" | grep -q 'GQA_BENCH_REPS'; then
    echo "bench-reps: FAIL GQA_BENCH_REPS=$reps error does not name" \
         "the variable:" >&2
    echo "$out" >&2
    fails=1
  fi
done

out=$(GQA_BENCH_REPS=1 "$bench" 2>&1)
if [ $? -ne 0 ]; then
  echo "bench-reps: FAIL GQA_BENCH_REPS=1 did not pass the gate:" >&2
  echo "$out" >&2
  fails=1
fi

if [ "$fails" -eq 0 ]; then
  echo "bench-reps: OK (0 and -3 rejected by name, 1 passes)"
fi
exit $fails
