# Build file of the benchmark program. perfbench/run.py configures the
# repository's own CMakeLists.txt with
#   -DCMAKE_PROJECT_prefsim_INCLUDE=<this file>
# so this file is read right after the root project() call. It defers
# the target definitions to the end of the root list, so the program is
# built with the repository's build type, flags and library targets.

set(PERFBENCH_DIR "${CMAKE_CURRENT_LIST_DIR}")

function(perfbench_add_targets)
    string(TOUPPER "${CMAKE_BUILD_TYPE}" config)
    add_executable(prefsim_perfbench "${PERFBENCH_DIR}/perfbench.cc")
    target_link_libraries(prefsim_perfbench PRIVATE prefsim_core
        prefsim_warnings)
    # Route every call of prefsim::simulate, SweepEngine's included,
    # through the benchmark's timing wrapper.
    target_link_options(prefsim_perfbench PRIVATE
        "LINKER:--wrap=_ZN7prefsim8simulateERKNS_13ParallelTraceERKNS_9SimConfigE")
    target_compile_definitions(prefsim_perfbench PRIVATE
        PERFBENCH_COMPILER="${CMAKE_CXX_COMPILER_ID}"
        PERFBENCH_BUILD_TYPE="${CMAKE_BUILD_TYPE}"
        PERFBENCH_CXX_FLAGS="${CMAKE_CXX_FLAGS} ${CMAKE_CXX_FLAGS_${config}}")
    set_target_properties(prefsim_perfbench PROPERTIES
        RUNTIME_OUTPUT_DIRECTORY "${CMAKE_BINARY_DIR}/perfbench")
endfunction()

cmake_language(DEFER CALL perfbench_add_targets)
