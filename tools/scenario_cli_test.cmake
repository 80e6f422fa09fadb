# The scenario-API acceptance matrix: `ron_oracle build --scenario SPEC`
# must produce EVERY snapshot kind for EVERY registered metric family, and
# `info` must print the embedded spec back for each. For the directory kind
# the script also runs `locate`, which reloads the file, rebuilds the
# metric+overlay from the embedded recipe and (via its exit status) asserts
# full delivery within the Theorem 5.2(a) hop bound — the end-to-end
# spec -> build -> save -> load -> rebuild round trip, per family.
# Invoked by ctest as:
#   cmake -DORACLE_EXE=<path> -DWORK_DIR=<dir> -P scenario_cli_test.cmake
if(NOT DEFINED ORACLE_EXE OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR
    "scenario_cli_test.cmake: pass -DORACLE_EXE and -DWORK_DIR")
endif()

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

set(families geoline uniline ring clustered euclid grid geograph cliques
    torus)
set(kinds rings labeling neighbor-system oracle directory)

foreach(family IN LISTS families)
  set(spec "metric=${family},n=32,seed=5,overlay_seed=11")
  foreach(kind IN LISTS kinds)
    set(out "${WORK_DIR}/scenario_${family}_${kind}.ron")
    # --objects/--replicas are directory-only flags (any other kind
    # rejects them, see scenario_cli_errors_test.cmake).
    set(dir_args "")
    if(kind STREQUAL "directory")
      set(dir_args --objects 6 --replicas 2)
    endif()
    run_step(${ORACLE_EXE} build --scenario ${spec} --kind ${kind}
      --out ${out} ${dir_args})
    run_step(${ORACLE_EXE} info ${out})
    if(NOT step_stdout MATCHES "scenario: metric=${family},")
      message(FATAL_ERROR
        "info did not print the ${family}/${kind} spec:\n${step_stdout}")
    endif()
    if(NOT step_stdout MATCHES "format version 3")
      message(FATAL_ERROR
        "${family}/${kind} snapshot is not format v3:\n${step_stdout}")
    endif()
  endforeach()

  # The directory snapshot's embedded recipe must rebuild a working overlay:
  # locate's exit status enforces delivery within the hop bound.
  run_step(${ORACLE_EXE} locate
    "${WORK_DIR}/scenario_${family}_directory.ron" --queries 12 --seed 3)
  if(NOT step_stdout MATCHES "# 12/12 located")
    message(FATAL_ERROR
      "locate over the rebuilt ${family} overlay lost lookups:\n${step_stdout}")
  endif()
endforeach()

message(STATUS
  "ron_oracle --scenario produced all 5 kinds for all 9 families, with "
  "info spec echo and directory locate round trips")
