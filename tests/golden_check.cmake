# Script-mode runner for the zero-fault golden guard.
#
#   cmake -DRUNNER=<xisa_exp binary> -DCONF=<experiment .conf>
#         -DGOLDEN=<recorded output> -DOUT=<scratch file>
#         -P golden_check.cmake
#
# Runs `RUNNER CONF` in XISA_QUICK mode and fails unless its stdout is
# byte-identical to the recorded golden -- the empty FaultPlan must add
# zero cost and zero behavior.
#
# Pass -DAUDIT=1 to run the same guard with the invariant auditor armed
# (XISA_AUDIT=1): the auditor, like the empty FaultPlan and the disarmed
# crash-tolerance layer, must never change a run.

foreach(var RUNNER CONF GOLDEN OUT)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "golden_check.cmake: ${var} not set")
    endif()
endforeach()

set(run_env XISA_QUICK=1)
if(DEFINED AUDIT AND AUDIT)
    list(APPEND run_env XISA_AUDIT=1)
endif()

execute_process(
    COMMAND ${CMAKE_COMMAND} -E env ${run_env} ${RUNNER} ${CONF}
    OUTPUT_FILE ${OUT}
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${RUNNER} ${CONF} exited with ${rc}")
endif()

execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT} ${GOLDEN}
    RESULT_VARIABLE diff)
if(NOT diff EQUAL 0)
    message(FATAL_ERROR
            "zero-fault output of ${CONF} differs from golden "
            "${GOLDEN} (see ${OUT}); the empty FaultPlan must be "
            "bit-identical to the pre-fault-layer behavior")
endif()
