# Benchmark targets, included from the top-level CMakeLists so that
# ${CMAKE_BINARY_DIR}/bench contains ONLY the runnable binaries
# (`for b in build/bench/*; do $b; done` runs everything cleanly).

# The build half of the host stamp on every bench_json row (see
# bench/bench_json.h): flags, build type and the git sha at configure
# time.
execute_process(
  COMMAND git rev-parse HEAD
  WORKING_DIRECTORY ${CMAKE_SOURCE_DIR}
  OUTPUT_VARIABLE IPDB_BENCH_SOURCE_ID
  OUTPUT_STRIP_TRAILING_WHITESPACE
  ERROR_QUIET
  RESULT_VARIABLE ipdb_bench_git_result)
if(NOT ipdb_bench_git_result EQUAL 0 OR IPDB_BENCH_SOURCE_ID STREQUAL "")
  set(IPDB_BENCH_SOURCE_ID "unknown")
endif()
string(TOUPPER "${CMAKE_BUILD_TYPE}" ipdb_bench_type_upper)

function(ipdb_bench_host_definitions target)
  target_compile_definitions(${target} PRIVATE
    IPDB_BENCH_CXX_FLAGS="${CMAKE_CXX_FLAGS} ${CMAKE_CXX_FLAGS_${ipdb_bench_type_upper}}"
    IPDB_BENCH_BUILD_TYPE="${CMAKE_BUILD_TYPE}"
    IPDB_BENCH_SOURCE_ID="${IPDB_BENCH_SOURCE_ID}")
endfunction()

function(ipdb_add_bench name)
  add_executable(${name} ${CMAKE_SOURCE_DIR}/bench/${name}.cc)
  target_link_libraries(${name} ipdb)
  ipdb_bench_host_definitions(${name})
  set_target_properties(${name} PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
endfunction()

function(ipdb_add_gbench name)
  ipdb_add_bench(${name})
  target_link_libraries(${name} benchmark::benchmark)
endfunction()

ipdb_add_bench(fig1_finite_hierarchy)
target_link_libraries(fig1_finite_hierarchy ipdb_test_util)
ipdb_add_bench(fig2_conditional_views)
ipdb_add_bench(fig3_segment_construction)
ipdb_add_bench(fig4_countable_hierarchy)
ipdb_add_bench(ex35_infinite_moment)
ipdb_add_bench(ex39_balance_bound)
ipdb_add_bench(ex55_growth_criterion)
ipdb_add_bench(ex56_criterion_gap)
ipdb_add_bench(sec6_logical_reasons)
ipdb_add_bench(bid_to_ti_bench)

ipdb_add_gbench(pqe_bench)
ipdb_add_gbench(lifted_bench)
ipdb_add_gbench(kc_bench)
ipdb_add_gbench(fo_eval_bench)
ipdb_add_gbench(moments_microbench)
ipdb_add_gbench(sampling_bench)
ipdb_add_gbench(math_bench)
ipdb_add_gbench(storage_bench)
# serve_bench has its own closed-loop main (no Google-Benchmark runner)
# but shares the bench_json.h reporting header, which needs the
# benchmark include path.
ipdb_add_gbench(serve_bench)
# durability_bench likewise runs a deterministic custom main (snapshot
# MB/s, recovery time, WAL append overhead) over bench_json.h.
ipdb_add_gbench(durability_bench)
