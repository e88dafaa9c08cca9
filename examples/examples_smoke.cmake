# Runs each example binary at its default arguments and fails on the first
# nonzero exit. Invoked by the examples_smoke ctest:
#   cmake -DEXAMPLE_DIR=<dir with the example binaries> -P examples_smoke.cmake

if(NOT DEFINED EXAMPLE_DIR)
  message(FATAL_ERROR "pass -DEXAMPLE_DIR=<directory of the example binaries>")
endif()

foreach(example quickstart tpch_antijoin reorder_explorer sql_rewriter
                profile_plans)
  execute_process(
    COMMAND ${EXAMPLE_DIR}/${example}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${example}: expected exit 0, got ${rc}\n${out}${err}")
  endif()
  message(STATUS "${example}: ok")
endforeach()
