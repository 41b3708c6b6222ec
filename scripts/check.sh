#!/usr/bin/env bash
# Tier-1 verification: plain build + full test suite, then a ThreadSanitizer
# build running the concurrency-sensitive tests (thread pool + parallel
# fixpoint execution). TSan proves race-freedom via happens-before tracking,
# so it is meaningful even on a single-core host.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier-1: build =="
cmake -B build -S . >/dev/null
cmake --build build -j

echo "== tier-1: ctest =="
(cd build && ctest --output-on-failure -j)

echo "== lint: example corpus =="
# Every shipped example must be clean even with warnings promoted (the
# lint_example_* ctest entries check the same thing file by file),
# adornment, constraint data-flow, and type-inference findings included.
# The glob skips examples/dbpl/bad/ — those fixtures are *supposed* to be
# flagged, and the second line insists the type checker actually does.
./build/tools/datacon-lint --werror --adorn --constraints --types \
  examples/dbpl/*.dbpl
(./build/tools/datacon-lint --types examples/dbpl/bad/ill_typed.dbpl || true) \
  | grep -q "E130"

echo "== bench: parallel + specialize + cache + typed + observe (smoke, --json) =="
# Quick single-repetition passes over the engine-level benchmarks; the
# runs double as correctness smoke tests (bench bodies abort on evaluation
# errors) and leave BENCH_parallel.json / BENCH_specialize.json /
# BENCH_cache.json / BENCH_typed.json / BENCH_observe.json behind as the
# EXPERIMENTS.md artifacts.
./build/bench/bench_parallel --json --benchmark_min_time=0.01
./build/bench/bench_specialize --json --benchmark_min_time=0.01
./build/bench/bench_cache --json --benchmark_min_time=0.01
./build/bench/bench_constraints --json --benchmark_min_time=0.01
./build/bench/bench_typed --json --benchmark_min_time=0.01
./build/bench/bench_observe --json --benchmark_min_time=0.01

echo "== trace: end-to-end trace-out + events-out + metrics-out =="
# Drive a same-generation query (recursive but not closure-shaped, so the
# general semi-naive fixpoint runs — capture rules would shortcut a plain
# closure) over a 63-node binary tree through the REPL's --trace-out path
# at PRAGMA THREADS = 4, then validate the artifact is well-formed Chrome
# trace-event JSON carrying the span taxonomy the observability layer
# promises: per-round fixpoint spans and parallel chunk fan-out on
# distinct worker tracks. A full closure query (`Par {tc}`, a component
# the capture rule evaluates) adds its `capture` span, and a seeded closure
# query (`EACH v IN Par {tc}: v.front = 63`, answered by reachability from
# 63 alone) its `seeded closure` span; each adds a per-query record for
# --agree. The same run exercises the telemetry plane:
# --events-out leaves a structured JSONL event stream and --metrics-out a
# Prometheus exposition of the database's registry, both validated below,
# separately and against each other.
{
  echo "PRAGMA THREADS = 4;"
  echo "PRAGMA EVENTS = ON;"
  echo "TYPE pairrel = RELATION OF RECORD front, back: INTEGER END;"
  echo "VAR Par: pairrel;"
  echo "VAR Seed: pairrel;"
  echo "CONSTRUCTOR sg FOR Rel: pairrel (Par: pairrel): pairrel;"
  echo "BEGIN EACH r IN Rel: TRUE,"
  echo "      <a.front, b.front> OF EACH a IN Par, EACH b IN Par,"
  echo "      EACH s IN Rel {sg(Par)}: a.back = s.front AND s.back = b.back"
  echo "END sg;"
  echo "CONSTRUCTOR tc FOR Rel: pairrel (): pairrel;"
  echo "BEGIN EACH r IN Rel: TRUE,"
  echo "      <f.front, b.back> OF EACH f IN Rel, EACH b IN Rel {tc}:"
  echo "        f.back = b.front"
  echo "END tc;"
  printf "INSERT INTO Par "
  for i in $(seq 2 63); do
    printf "<%d, %d>" "$i" $((i / 2))
    [ "$i" -lt 63 ] && printf ", "
  done
  echo ";"
  echo "INSERT INTO Seed <1, 1>;"
  echo "QUERY Seed {sg(Par)};"
  echo "QUERY Par {tc};"
  echo "QUERY {EACH v IN Par {tc}: v.front = 63};"
} | ./build/examples/dbpl_repl --trace-out=trace.json \
      --events-out=events.jsonl --metrics-out=metrics.prom >/dev/null
python3 scripts/check_trace.py trace.json \
  --require-span parse --require-span evaluate --require-span round \
  --require-span fanout --require-span chunk --require-span capture \
  --require-span "seeded closure"
python3 scripts/check_trace.py --events events.jsonl
python3 scripts/check_trace.py --prom metrics.prom
# The three artifacts render the same per-query records: each query.finish
# equals its evaluate span, and the rounds histogram equals the events.
python3 scripts/check_trace.py --agree trace.json events.jsonl metrics.prom

echo "== thread-safety: clang annotation analysis =="
# Clang's -Wthread-safety checks the GUARDED_BY/REQUIRES annotations
# (common/thread_annotations.h) statically; CMakeLists.txt promotes it to
# an error whenever the compiler is clang. GCC-only hosts skip the pass —
# CI runs it under clang.
if command -v clang++ >/dev/null 2>&1; then
  cmake -B build-tsa -S . -DCMAKE_CXX_COMPILER=clang++ >/dev/null
  cmake --build build-tsa -j --target datacon_common datacon_core
else
  echo "clang++ not found; skipping (annotations are no-ops under GCC)"
fi

echo "== tsan: build =="
cmake -B build-tsan -S . -DDATACON_SANITIZE=thread >/dev/null
cmake --build build-tsan -j --target \
  common_thread_pool_test common_trace_test core_fixpoint_parallel_test \
  core_observability_test common_metrics_test core_matcache_test \
  integration_cache_semantics_test common_eventlog_test \
  integration_probe_semantics_test storage_index_test \
  integration_prepared_program_test core_database_test types_value_test

echo "== tsan: parallel + cache + telemetry + index probe + program + pool + symbol table tests =="
./build-tsan/tests/common_thread_pool_test
./build-tsan/tests/common_trace_test
./build-tsan/tests/core_fixpoint_parallel_test
./build-tsan/tests/core_observability_test
./build-tsan/tests/common_metrics_test
./build-tsan/tests/core_matcache_test
./build-tsan/tests/integration_cache_semantics_test
./build-tsan/tests/common_eventlog_test
./build-tsan/tests/integration_probe_semantics_test
./build-tsan/tests/storage_index_test
./build-tsan/tests/integration_prepared_program_test
# One database's evaluations share its worker pool.
./build-tsan/tests/core_database_test \
  --gtest_filter=Database.EvaluationsShareOneWorkerPool
# Interning and lock-free symbol-table reads from several threads at once.
./build-tsan/tests/types_value_test

echo "== asan: build =="
# Substitution shares unchanged AST subtrees between the original and the
# rewritten tree, so the front end's AST lifetimes are checked under ASan.
ASAN_TESTS="core_subst_test core_rewrite_test ra_analysis_test \
  analysis_constraint_test core_access_path_test analysis_lint_test \
  analysis_script_lint_test"
cmake -B build-asan -S . -DDATACON_SANITIZE=address >/dev/null
# shellcheck disable=SC2086
cmake --build build-asan -j --target $ASAN_TESTS

echo "== asan: substitution, rewrite, collector, residue, access path and lint tests =="
for t in $ASAN_TESTS; do
  "./build-asan/tests/$t"
done

echo "All checks passed."
