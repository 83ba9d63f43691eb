# Build file of the exhibit benchmark runner (perfbench_exhibits).
#
# It is injected into the repository's own build as a project hook, so the
# runner links the repository's libraries built with exactly the
# repository's flags and default (RelWithDebInfo) build type, and nothing
# outside perfbench/ changes:
#
#   cmake -S . -B .bench_build/perfbench \
#         -DCMAKE_PROJECT_itr_INCLUDE=$PWD/perfbench/exhibits.cmake
#   cmake --build .bench_build/perfbench --target perfbench_exhibits
#
# perfbench/run.py does both on first use.  The hook runs right after
# project(itr); itr_benchlib is defined later and resolved at generate time.
add_executable(perfbench_exhibits EXCLUDE_FROM_ALL
  ${CMAKE_CURRENT_LIST_DIR}/exhibits.cpp)
target_compile_features(perfbench_exhibits PRIVATE cxx_std_20)
target_compile_options(perfbench_exhibits PRIVATE -Wall -Wextra)
target_link_libraries(perfbench_exhibits PRIVATE itr_benchlib)
# The build type is final only once the repository's CMakeLists has run.
target_compile_definitions(perfbench_exhibits PRIVATE
  "PERFBENCH_BUILD_TYPE=\"$<IF:$<CONFIG:>,none,$<CONFIG>>\""
  "PERFBENCH_COMPILER=\"${CMAKE_CXX_COMPILER_ID} ${CMAKE_CXX_COMPILER_VERSION}\"")
