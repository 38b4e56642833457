# Bench targets are built into build/bench/ (executables only), so that
#   for b in build/bench/*; do $b; done
# runs every benchmark without tripping over CMake artifacts.
function(semcc_bench name)
  add_executable(${name} ${CMAKE_SOURCE_DIR}/bench/${name}.cpp)
  target_link_libraries(${name} semcc_orderentry semcc_core benchmark::benchmark)
  target_include_directories(${name} PRIVATE ${CMAKE_SOURCE_DIR}/bench)
  # google-benchmark's own context reports only the build type of the
  # installed libbenchmark; rows also need the one the measured code used.
  target_compile_definitions(${name} PRIVATE
    SEMCC_BUILD_TYPE="${CMAKE_BUILD_TYPE}")
  set_target_properties(${name} PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
endfunction()

semcc_bench(bench_matrices)
semcc_bench(bench_fig4_interleaving)
semcc_bench(bench_fig5_bypass)
semcc_bench(bench_fig6_case1)
semcc_bench(bench_fig7_case2)
semcc_bench(bench_throughput)
semcc_bench(bench_contention)
semcc_bench(bench_mix)
semcc_bench(bench_ablation)
semcc_bench(bench_lock_manager)
semcc_bench(bench_storage)
semcc_bench(bench_recovery)
