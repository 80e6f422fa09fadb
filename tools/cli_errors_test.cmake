# The shared CLI contract across all three tools (cli_util.h): a malformed
# command line exits 2 with usage on stderr; a runtime failure exits 1 with
# the offending token named and NO usage dump. One script covers
# ron_served, ron_loadgen and a ron_oracle spot check so the three parsers
# cannot drift apart (scenario_cli_errors_test.cmake pins ron_oracle's full
# matrix).
# Invoked by ctest as:
#   cmake -DORACLE_EXE=<path> -DSERVED_EXE=<path> -DLOADGEN_EXE=<path>
#         -DWORK_DIR=<dir> -P cli_errors_test.cmake
foreach(var ORACLE_EXE SERVED_EXE LOADGEN_EXE WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "cli_errors_test.cmake: pass -D${var}")
  endif()
endforeach()

# expect_failure(<exe> <expected-rc> <want-usage TRUE|FALSE> <stderr-regex>
#                <args...>)
function(expect_failure exe want_rc want_usage want_err)
  execute_process(
    COMMAND ${exe} ${ARGN}
    OUTPUT_VARIABLE step_stdout
    ERROR_VARIABLE step_stderr
    RESULT_VARIABLE step_rc)
  get_filename_component(tool "${exe}" NAME)
  if(NOT step_rc EQUAL ${want_rc})
    message(FATAL_ERROR "'${tool} ${ARGN}' exited ${step_rc}, expected "
      "${want_rc}\nstderr: ${step_stderr}")
  endif()
  if(NOT step_stderr MATCHES "${want_err}")
    message(FATAL_ERROR "'${tool} ${ARGN}' stderr did not match "
      "'${want_err}':\n${step_stderr}")
  endif()
  if(want_usage AND NOT step_stderr MATCHES "usage:")
    message(FATAL_ERROR "'${tool} ${ARGN}' did not print usage:\n"
      "${step_stderr}")
  endif()
  if(NOT want_usage AND step_stderr MATCHES "usage:")
    message(FATAL_ERROR "'${tool} ${ARGN}' dumped usage for a runtime "
      "error:\n${step_stderr}")
  endif()
endfunction()

# --- ron_served usage errors (exit 2, usage printed) ------------------------
expect_failure(${SERVED_EXE} 2 TRUE "expected one snapshot path")
expect_failure(${SERVED_EXE} 2 TRUE "unknown flag --bogus"
  "${WORK_DIR}/x.ron" --bogus v)
expect_failure(${SERVED_EXE} 2 TRUE "missing value for --port"
  "${WORK_DIR}/x.ron" --port)
expect_failure(${SERVED_EXE} 2 TRUE "duplicate flag --threads"
  "${WORK_DIR}/x.ron" --threads 2 --threads 4)

# --- ron_served runtime errors (exit 1, offending token, no usage) ----------
expect_failure(${SERVED_EXE} 1 FALSE "bad --port: 'seven'"
  "${WORK_DIR}/x.ron" --port seven)
expect_failure(${SERVED_EXE} 1 FALSE "--port 99999 exceeds 65535"
  "${WORK_DIR}/x.ron" --port 99999)
expect_failure(${SERVED_EXE} 1 FALSE "--build-threads 5000 exceeds 1024"
  "${WORK_DIR}/x.ron" --build-threads 5000)
expect_failure(${SERVED_EXE} 1 FALSE "cannot open"
  "${WORK_DIR}/served_cli_does_not_exist.ron")

# --- ron_loadgen usage errors -----------------------------------------------
expect_failure(${LOADGEN_EXE} 2 TRUE "--port is required")
expect_failure(${LOADGEN_EXE} 2 TRUE "unknown flag --frobnicate"
  --port 4 --frobnicate v)
expect_failure(${LOADGEN_EXE} 2 TRUE "unknown --workload 'sandwich'"
  --port 4 --workload sandwich)
expect_failure(${LOADGEN_EXE} 2 TRUE "no positional arguments"
  --port 4 stray)

# --- ron_loadgen runtime errors ----------------------------------------------
expect_failure(${LOADGEN_EXE} 1 FALSE "bad --connections: 'many'"
  --port 4 --connections many)
expect_failure(${LOADGEN_EXE} 1 FALSE "--port 0 is outside 1..65535"
  --port 0)
expect_failure(${LOADGEN_EXE} 1 FALSE "--qps must be non-negative"
  --port 4 --qps -3)
# Port 1 on loopback: nothing listens there, so the probe connect fails.
expect_failure(${LOADGEN_EXE} 1 FALSE "connect 127.0.0.1:1"
  --port 1 --connections 1 --frames 1)

# --- ron_oracle spot check (full matrix: scenario_cli_errors_test.cmake) ----
expect_failure(${ORACLE_EXE} 2 TRUE "unknown flag --bogus"
  build --scenario "metric=euclid,n=32" --out "${WORK_DIR}/x.ron" --bogus v)
expect_failure(${ORACLE_EXE} 1 FALSE "bad --queries: 'lots'"
  bench --scenario "metric=euclid,n=32" --queries lots)

message(STATUS "shared CLI failure paths: consistent diagnostics and exit "
  "codes across ron_oracle/ron_served/ron_loadgen")
