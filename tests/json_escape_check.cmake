# Script-mode runner for the JSON string-escaping guard.
#
#   cmake -DRUNNER=<xisa_exp binary> -DCONF=<rack_scale.conf>
#         -DOUT=<scratch file prefix> -P json_escape_check.cmake
#
# Copies the rack conf with one pool label that holds a double quote,
# a tab and a backslash, runs it in XISA_QUICK mode with --json and
# --stats-json, and fails unless both files parse as JSON and the
# label comes back unchanged from the perf JSON's pool row.

foreach(var RUNNER CONF OUT)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "json_escape_check.cmake: ${var} not set")
    endif()
endforeach()

# The conf spelling of the label, and the string it must parse to.
set(conf_label [["6x86 \"mix\"\t2arm \\ end"]])
set(want "6x86 \"mix\"\t2arm \\ end")

file(READ ${CONF} text)
string(REPLACE [[label = "6x86+2arm"]] "label = ${conf_label}" edited
       "${text}")
if(edited STREQUAL text)
    message(FATAL_ERROR "${CONF} has no pool labelled \"6x86+2arm\"")
endif()
file(WRITE ${OUT}.conf "${edited}")

execute_process(
    COMMAND ${CMAKE_COMMAND} -E env XISA_QUICK=1
            ${RUNNER} --json ${OUT}.json --stats-json ${OUT}.stats.json
            ${OUT}.conf
    OUTPUT_FILE ${OUT}.out
    ERROR_FILE ${OUT}.err
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${RUNNER} ${OUT}.conf exited with ${rc}")
endif()

file(READ ${OUT}.stats.json stats)
string(JSON entries ERROR_VARIABLE err LENGTH "${stats}")
if(err)
    message(FATAL_ERROR "${OUT}.stats.json is not JSON: ${err}")
endif()

file(READ ${OUT}.json perf)
string(JSON rows ERROR_VARIABLE err LENGTH "${perf}" rows)
if(err)
    message(FATAL_ERROR "${OUT}.json is not JSON: ${err}")
endif()
set(found FALSE)
math(EXPR last "${rows} - 1")
foreach(i RANGE ${last})
    string(JSON pool GET "${perf}" rows ${i} pool)
    if(pool STREQUAL want)
        set(found TRUE)
    endif()
endforeach()
if(NOT found)
    message(FATAL_ERROR "no pool row of ${OUT}.json carries the label "
            "'${want}' unchanged")
endif()
