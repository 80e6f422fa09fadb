# Telemetry acceptance smoke: the serving path must EMIT the metrics the
# observability layer promises, not just build. Runs the ISSUE's acceptance
# command verbatim (bench --scenario metric=geoline,n=512 --metrics-out)
# and validates the snapshot with check_metrics_json.py --require, so a
# wiring regression that silently stops recording (histogram never fed,
# counter never bumped) fails here, not in a dashboard weeks later.
# Invoked by ctest as:
#   cmake -DORACLE_EXE=<path> -DWORK_DIR=<dir> -DPYTHON_EXE=<python3>
#         -DCHECKER=<check_metrics_json.py> -P telemetry_cli_test.cmake
if(NOT DEFINED ORACLE_EXE OR NOT DEFINED WORK_DIR OR NOT DEFINED PYTHON_EXE
   OR NOT DEFINED CHECKER)
  message(FATAL_ERROR "telemetry_cli_test.cmake: pass -DORACLE_EXE, "
    "-DWORK_DIR, -DPYTHON_EXE and -DCHECKER")
endif()

# run_ok(<out-var> <command...>): run, require exit 0, capture stdout.
function(run_ok out_var)
  execute_process(
    COMMAND ${ARGN}
    WORKING_DIRECTORY ${WORK_DIR}
    OUTPUT_VARIABLE step_stdout
    ERROR_VARIABLE step_stderr
    RESULT_VARIABLE step_rc)
  if(NOT step_rc EQUAL 0)
    message(FATAL_ERROR "'${ARGN}' exited ${step_rc}\nstdout: "
      "${step_stdout}\nstderr: ${step_stderr}")
  endif()
  set(${out_var} "${step_stdout}" PARENT_SCOPE)
endfunction()

# --- 1. The acceptance command, defaults and all -----------------------------
# Single worker: estimate+locate latency histograms, LRU hit/miss counters
# on both paths, epoch_mu_ hold times (pinned per locate batch) and the
# build-stage gauges must all be non-zero.
run_ok(bench_out ${ORACLE_EXE} bench --scenario metric=geoline,n=512
  --metrics-out ${WORK_DIR}/telemetry_m.json)
run_ok(check_out ${PYTHON_EXE} ${CHECKER} ${WORK_DIR}/telemetry_m.json
  --require ron_engine_estimate_latency_seconds
  --require ron_engine_locate_latency_seconds
  --require ron_engine_estimate_cache_hits_total
  --require ron_engine_estimate_cache_misses_total
  --require ron_engine_estimate_candidates
  --require ron_engine_locate_cache_hits_total
  --require ron_engine_locate_cache_misses_total
  --require ron_engine_epoch_mu_hold_seconds
  --require ron_engine_locate_hops
  --require ron_engine_locate_probes
  --require ron_engine_locate_hop_bound
  --require ron_build_prox_seconds
  --require ron_build_labeling_seconds
  --require ron_build_overlay_seconds
  --require ron_build_nets_seconds
  --require ron_build_measure_seconds
  --require ron_build_rings_seconds)
if(NOT bench_out MATCHES "\"locate_queries\":")
  message(FATAL_ERROR "bench --scenario did not report a locate phase:\n"
    "${bench_out}")
endif()

# --- 2. Multi-worker run: pool-mutex hold times + walk tracing ---------------
# mu_ is only ever locked when batches are published to a real pool, so the
# hold-time histogram needs --threads > 1; --trace-sample must deposit
# sampled ring-walk traces into the envelope.
run_ok(bench2_out ${ORACLE_EXE} bench --scenario metric=euclid,n=128
  --queries 6000 --locate-queries 2000 --threads 2 --trace-sample 5
  --metrics-out ${WORK_DIR}/telemetry_m2.json)
run_ok(check2_out ${PYTHON_EXE} ${CHECKER} ${WORK_DIR}/telemetry_m2.json
  --require ron_engine_mu_hold_seconds
  --require ron_engine_epoch_swaps_total
  --require ron_engine_epoch_swap_seconds)
file(READ ${WORK_DIR}/telemetry_m2.json m2_content)
if(NOT m2_content MATCHES "\"locate_traces\":\\[{")
  message(FATAL_ERROR "--trace-sample 5 recorded no locate traces:\n"
    "${m2_content}")
endif()

# --- 3. stats: snapshot -> scrapeable document in one command ----------------
run_ok(pub_out ${ORACLE_EXE} publish --scenario metric=euclid,n=128
  --out ${WORK_DIR}/telemetry_dir.ron)
run_ok(stats_out ${ORACLE_EXE} stats ${WORK_DIR}/telemetry_dir.ron
  --queries 2000 --metrics-out ${WORK_DIR}/telemetry_s.json)
run_ok(check3_out ${PYTHON_EXE} ${CHECKER} ${WORK_DIR}/telemetry_s.json
  --require ron_engine_locate_latency_seconds
  --require ron_build_overlay_seconds)
if(NOT stats_out MATCHES "\"schema\":\"ron\\.metrics\\.v1\"")
  message(FATAL_ERROR "stats --format json did not print the envelope:\n"
    "${stats_out}")
endif()

run_ok(prom_out ${ORACLE_EXE} stats ${WORK_DIR}/telemetry_dir.ron
  --queries 500 --format prometheus)
if(NOT prom_out MATCHES "# TYPE ron_engine_locate_latency_seconds histogram")
  message(FATAL_ERROR "prometheus exposition is missing the locate latency "
    "histogram:\n${prom_out}")
endif()
if(NOT prom_out MATCHES "ron_engine_locate_latency_seconds_bucket{le=\"")
  message(FATAL_ERROR "prometheus exposition has no cumulative buckets:\n"
    "${prom_out}")
endif()

# --- 4. churn: mutator op-cost telemetry rides --metrics-out -----------------
run_ok(churn_out ${ORACLE_EXE} churn ${WORK_DIR}/telemetry_dir.ron
  --out ${WORK_DIR}/telemetry_bundle.ron --ops 64
  --metrics-out ${WORK_DIR}/telemetry_c.json)
run_ok(check4_out ${PYTHON_EXE} ${CHECKER} ${WORK_DIR}/telemetry_c.json
  --require ron_churn_commit_seconds)

message(STATUS "telemetry CLI smoke passed")
