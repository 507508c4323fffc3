# Script-mode runner for the worker-count determinism guard.
#
#   cmake -DRUNNER=<xisa_exp binary> -DCONF=<experiment .conf>
#         -DOUT=<scratch file prefix> -P threads_check.cmake
#
# Runs `RUNNER --stats-json OUT.stats.json CONF` in XISA_QUICK mode at
# XISA_BENCH_THREADS=1 and =4 and fails unless stdout and the stats
# JSON are byte-identical: sweep cells run in any order on any worker,
# and the stats come from the same (last) cell either way. Both legs
# write the same stats path because the runner echoes it to stdout.

foreach(var RUNNER CONF OUT)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "threads_check.cmake: ${var} not set")
    endif()
endforeach()

foreach(threads 1 4)
    execute_process(
        COMMAND ${CMAKE_COMMAND} -E env XISA_QUICK=1
                XISA_BENCH_THREADS=${threads}
                ${RUNNER} --stats-json ${OUT}.stats.json ${CONF}
        OUTPUT_FILE ${OUT}.t${threads}.out
        RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "${RUNNER} ${CONF} exited with ${rc} at "
                "XISA_BENCH_THREADS=${threads}")
    endif()
    file(RENAME ${OUT}.stats.json ${OUT}.t${threads}.stats.json)
endforeach()

foreach(suffix out stats.json)
    execute_process(
        COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT}.t1.${suffix}
                ${OUT}.t4.${suffix}
        RESULT_VARIABLE diff)
    if(NOT diff EQUAL 0)
        message(FATAL_ERROR
                "${CONF}: ${OUT}.t1.${suffix} and ${OUT}.t4.${suffix} "
                "differ; output must not depend on the worker count")
    endif()
endforeach()
