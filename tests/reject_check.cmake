# Script-mode runner for the hostile-input guard.
#
#   cmake -DRUNNER=<xisa_exp binary> -DCONF=<experiment .conf>
#         -DFROM=<text in CONF> -DTO=<replacement> -DLINE=<line of FROM>
#         -DOUT=<scratch file prefix> -P reject_check.cmake
#
# Writes CONF with FROM replaced by TO to OUT.conf and runs it in
# XISA_QUICK mode. Passes only if the run exits with a nonzero status
# (not a signal, not a hang) and stderr names ":LINE:" -- the input is
# rejected up front with a diagnostic that points at the bad line.

foreach(var RUNNER CONF FROM TO LINE OUT)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "reject_check.cmake: ${var} not set")
    endif()
endforeach()

file(READ ${CONF} text)
string(FIND "${text}" "${FROM}" at)
if(at EQUAL -1)
    message(FATAL_ERROR "${CONF} does not contain '${FROM}'")
endif()
string(REPLACE "${FROM}" "${TO}" text "${text}")
file(WRITE ${OUT}.conf "${text}")

execute_process(
    COMMAND ${CMAKE_COMMAND} -E env XISA_QUICK=1 ${RUNNER} ${OUT}.conf
    OUTPUT_QUIET
    ERROR_VARIABLE err
    RESULT_VARIABLE rc
    TIMEOUT 60)
if(NOT rc MATCHES "^[0-9]+$" OR rc EQUAL 0)
    message(FATAL_ERROR "'${TO}' in ${CONF}: expected a clean nonzero "
            "exit, got '${rc}'; stderr: ${err}")
endif()
if(NOT err MATCHES ":${LINE}:")
    message(FATAL_ERROR "'${TO}' in ${CONF}: stderr does not name line "
            "${LINE}: ${err}")
endif()
