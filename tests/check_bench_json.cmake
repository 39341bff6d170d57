# Parses every committed BENCH_*.json baseline at the repository root and
# fails on the first one that is not valid JSON.
#   cmake -DSOURCE_DIR=<repo root> -P check_bench_json.cmake
file(GLOB baselines "${SOURCE_DIR}/BENCH_*.json")
if(NOT baselines)
  message(FATAL_ERROR "no BENCH_*.json under ${SOURCE_DIR}")
endif()
foreach(baseline IN LISTS baselines)
  file(READ "${baseline}" text)
  string(JSON type ERROR_VARIABLE error TYPE "${text}")
  if(error)
    message(FATAL_ERROR "${baseline}: ${error}")
  endif()
  message(STATUS "${baseline}: valid JSON ${type}")
endforeach()
