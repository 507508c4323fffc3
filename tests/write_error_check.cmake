# Script-mode runner for the output write-error guard.
#
#   cmake -DRUNNER=<xisa_exp binary> -DCONF=<experiment .conf>
#         -P write_error_check.cmake
#
# Points each output flag at /dev/full, where every write fails with
# ENOSPC, and fails unless xisa_exp exits 1 with "cannot write
# /dev/full" -- a full disk must not pass for a written file. Prints
# SKIPPED (the test's skip pattern) where the device is absent.

foreach(var RUNNER CONF)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "write_error_check.cmake: ${var} not set")
    endif()
endforeach()

if(NOT EXISTS /dev/full)
    message(STATUS "SKIPPED: no /dev/full on this host")
    return()
endif()

foreach(flag --json --stats-json --trace-out)
    execute_process(
        COMMAND ${CMAKE_COMMAND} -E env XISA_QUICK=1
                ${RUNNER} ${flag} /dev/full ${CONF}
        OUTPUT_QUIET
        ERROR_VARIABLE err
        RESULT_VARIABLE rc)
    if(NOT rc EQUAL 1 OR NOT err MATCHES "cannot write /dev/full")
        message(FATAL_ERROR "${flag} /dev/full: exit ${rc}, stderr "
                "'${err}'; want exit 1 and 'cannot write /dev/full'")
    endif()
endforeach()
