# End-to-end exercise of the ron_oracle CLI: build -> info -> query -> bench,
# then publish -> info -> locate on every bundled metric (locate's exit
# status itself enforces full delivery within the Theorem 5.2(a) hop bound).
# Invoked by ctest as:
#   cmake -DORACLE_EXE=<path> -DWORK_DIR=<dir> -P oracle_cli_test.cmake
if(NOT DEFINED ORACLE_EXE OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR "oracle_cli_test.cmake: pass -DORACLE_EXE and -DWORK_DIR")
endif()

set(snapshot "${WORK_DIR}/oracle_cli_test.ron")

function(run_step)
  execute_process(
    COMMAND ${ARGV}
    OUTPUT_VARIABLE step_stdout
    RESULT_VARIABLE step_rc)
  if(NOT step_rc EQUAL 0)
    message(FATAL_ERROR "'${ARGV}' exited with status ${step_rc}")
  endif()
  set(step_stdout "${step_stdout}" PARENT_SCOPE)
endfunction()

run_step(${ORACLE_EXE} build --out ${snapshot}
  --scenario "metric=euclid,n=64,seed=5")
# build reports the construction's label bits and the bits of the labels
# the file stores, pruned to what some decode reads; info must print the
# stored numbers, and pruning never adds bits.
set(bits_re "bits max/avg = ([0-9]+)/([0-9.e+]+),")
if(NOT step_stdout MATCHES "built labels: n = 64, ${bits_re}")
  message(FATAL_ERROR "build did not report the built labels:\n${step_stdout}")
endif()
set(built_avg "${CMAKE_MATCH_2}")
if(NOT step_stdout MATCHES "stored labels: n = 64, ${bits_re}")
  message(FATAL_ERROR "build did not report the stored labels:\n${step_stdout}")
endif()
set(stored_bits "${CMAKE_MATCH_1}/${CMAKE_MATCH_2}")
if(CMAKE_MATCH_2 GREATER built_avg)
  message(FATAL_ERROR "stored labels average ${CMAKE_MATCH_2} bits, more "
    "than the ${built_avg} built:\n${step_stdout}")
endif()

run_step(${ORACLE_EXE} info ${snapshot})
string(FIND "${step_stdout}" "  labels: n = 64, bits max/avg = ${stored_bits},"
  info_bits_at)
if(info_bits_at EQUAL -1)
  message(FATAL_ERROR
    "info did not print the stored bits ${stored_bits}:\n${step_stdout}")
endif()
if(NOT step_stdout MATCHES "checksum .* \\(verified\\)")
  message(FATAL_ERROR "info did not report a verified checksum:\n${step_stdout}")
endif()
if(NOT step_stdout MATCHES "scenario: metric=euclid,n=64,seed=5")
  message(FATAL_ERROR "info did not print the embedded spec:\n${step_stdout}")
endif()
if(NOT step_stdout MATCHES "format version 3")
  message(FATAL_ERROR "build did not write format v3:\n${step_stdout}")
endif()
# The labels' translation maps travel as varint rows, pruned to the entries
# some decode reads: this oracle took 13,830,282 bytes as u32 triples
# (format v2), 2,355,962 as the construction's varint rows, and about
# 1.67 MB pruned, so a build that stops pruning fails here.
file(SIZE ${snapshot} snapshot_bytes)
if(snapshot_bytes GREATER_EQUAL 2000000)
  message(FATAL_ERROR
    "the euclid n=64 oracle takes ${snapshot_bytes} bytes, not under 2 MB")
endif()

# Space-separated pair list: semicolons are CMake list separators and would
# be split by the COMMAND expansion below.
run_step(${ORACLE_EXE} query ${snapshot} --pairs "0,5 12,63 7,7" --threads 2)
if(NOT step_stdout MATCHES "7 7 0")
  message(FATAL_ERROR "query did not answer 0 for the (7,7) self-pair:\n${step_stdout}")
endif()

run_step(${ORACLE_EXE} bench ${snapshot} --queries 2000 --batch 500
  --threads 2 --cache 1024)
if(NOT step_stdout MATCHES "\"qps\":")
  message(FATAL_ERROR "bench did not report qps:\n${step_stdout}")
endif()

# Object location round trip on all three bundled metrics: publish writes a
# directory snapshot, locate reloads it, rebuilds the overlay from the
# stored recipe and must deliver every lookup within the hop bound (its
# exit status asserts that; run_step turns a violation into a failure).
foreach(metric geoline clustered euclid)
  set(dir_snapshot "${WORK_DIR}/oracle_cli_dir_${metric}.ron")
  run_step(${ORACLE_EXE} publish --out ${dir_snapshot}
    --scenario "metric=${metric},n=96,seed=5,overlay_seed=11"
    --objects 8 --replicas 3)

  run_step(${ORACLE_EXE} info ${dir_snapshot})
  if(NOT step_stdout MATCHES "object directory: 8 objects")
    message(FATAL_ERROR
      "info did not describe the ${metric} directory:\n${step_stdout}")
  endif()

  run_step(${ORACLE_EXE} locate ${dir_snapshot} --queries 60 --threads 2
    --cache 128 --seed 3)
  if(NOT step_stdout MATCHES "# 60/60 located")
    message(FATAL_ERROR
      "locate did not deliver all ${metric} lookups:\n${step_stdout}")
  endif()
  if(NOT step_stdout MATCHES "holder [0-9]+ hops [0-9]+ nearest ")
    message(FATAL_ERROR
      "locate output shape changed (${metric}):\n${step_stdout}")
  endif()
endforeach()

message(STATUS
  "ron_oracle build/info/query/bench + publish/info/locate all passed")
