#!/usr/bin/env bash
# One-command verification: plain tier-1 build, a guard against FMA
# instructions in the library, the servebench build and its helper tests,
# the full test suite and the registry-driven golden-diff harness, one brief
# run of the quantized kernel benches, then the same golden harness (plus the
# focused concurrency suites) under ThreadSanitizer, and the whole suite
# under AddressSanitizer (leak check included) and UndefinedBehaviorSanitizer.
# This is the flow CI runs; a clean exit here means the tree is shippable.
#
#   scripts/check.sh          # everything (plain + tsan + asan + ubsan)
#   scripts/check.sh --fast   # plain build + tests only, skip the sanitizers
set -euo pipefail

cd "$(dirname "$0")/.."

FAST=0
if [[ "${1:-}" == "--fast" ]]; then
  FAST=1
fi

echo "== tier-1: configure + build =="
cmake -B build -S .
cmake --build build -j "$(nproc)"

# Every kernel's bit-identity rests on each float mul and add rounding on
# its own, so no fused multiply-add may reach the library: not from a
# "fma" target, not from contraction. Fail on any in the disassembly.
echo "== tier-1: no FMA instruction in build/src/libadamine.a =="
fma_pattern=$'\tvfn?m(add|sub)'
fma_count=$(objdump -d build/src/libadamine.a | grep -cE "$fma_pattern" || true)
if [[ "$fma_count" != "0" ]]; then
  echo "check.sh: $fma_count FMA instructions in build/src/libadamine.a," \
       "in these functions:" >&2
  objdump -d build/src/libadamine.a |
    awk -v fma="$fma_pattern" \
      '/^[0-9a-f]+ </ { fn = $2 } $0 ~ fma { print fn }' | sort -u >&2
  exit 1
fi

# servebench (the frozen serving benchmark) builds the library from this
# tree, so an API change that breaks it shows here, not only when ab.py
# runs. Runs in --fast mode too: the benchmark never stops building.
echo "== tier-1: servebench build + helper tests (build-servebench) =="
cmake -S servebench -B build-servebench -DCMAKE_BUILD_TYPE=Release
cmake --build build-servebench -j "$(nproc)" --target servebench \
  servebench_tests
build-servebench/servebench_tests

echo "== tier-1: full test suite =="
ctest --test-dir build --output-on-failure -j "$(nproc)"

echo "== tier-1: golden-diff harness (ctest -L golden) =="
ctest --test-dir build -L golden --output-on-failure

echo "== tier-1: quant kernels + backend (ctest -L quant) =="
ctest --test-dir build -L quant --output-on-failure

# The benches are built above but no test runs them. One brief pass over a
# quantized backend call and its selection stage, at every level the CPU
# has, fails here if either bench crashes. Runs in --fast mode too.
echo "== tier-1: quantized call + selection benches, one brief pass =="
build/bench/bench_kernels \
  --benchmark_filter='BM_(SelectCandidates|QuantizedScore)/' \
  --benchmark_min_time=0.01

# Live-mutation battery: WAL / manifest corruption sweeps, the recovery
# state machine under the mutate.* fault points, and the forked kill -9
# crash tests. Runs in --fast mode too — crash safety is not optional.
echo "== tier-1: live mutation + crash recovery (ctest -L mutate) =="
ctest --test-dir build -L mutate --output-on-failure

# Resource-pressure battery: admission control, the ENOSPC taxonomy,
# maintenance retry/escalation and the integrity scrubber. Runs in --fast
# mode too — backpressure and quarantine guard the same acks the crash
# tests do.
echo "== tier-1: resource pressure + scrubbing (ctest -L pressure) =="
ctest --test-dir build -L pressure --output-on-failure

# The quantized backend and golden matrix promise bit-identical results at
# every thread count; pin that against the pool-size dial explicitly.
for threads in 1 4; do
  echo "== tier-1: golden + quant at ADAMINE_NUM_THREADS=$threads =="
  ADAMINE_NUM_THREADS=$threads \
    ctest --test-dir build -L 'golden|quant' --output-on-failure
done

if [[ "$FAST" == "1" ]]; then
  echo "check.sh: OK (fast mode, sanitizer passes skipped)"
  exit 0
fi

echo "== tsan: configure + build (ADAMINE_SANITIZE=thread) =="
cmake -B build-tsan -S . -DADAMINE_SANITIZE=thread
cmake --build build-tsan -j "$(nproc)"

echo "== tsan: golden-diff harness =="
ctest --test-dir build-tsan -L golden --output-on-failure

echo "== tsan: concurrency suites (ctest -L tsan) =="
ctest --test-dir build-tsan -L tsan --output-on-failure

# Memory and UB checks over the whole suite: an overread at a GEMM panel
# tail or in the CRC's 8-byte loads, a leak, or undefined behaviour fails
# here. Usage: run_sanitized <ADAMINE_SANITIZE value> <build dir>.
run_sanitized() {
  echo "== $1: configure + build (ADAMINE_SANITIZE=$1) =="
  cmake -B "$2" -S . -DADAMINE_SANITIZE="$1"
  cmake --build "$2" -j "$(nproc)"

  echo "== $1: full test suite =="
  ctest --test-dir "$2" --output-on-failure -j "$(nproc)"
}
run_sanitized address build-asan
run_sanitized undefined build-ubsan

echo "check.sh: OK"
