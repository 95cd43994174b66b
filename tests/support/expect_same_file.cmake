# Run the command given after `--` and pass only when it exits 0 and
# the file OUTPUT it wrote is byte-identical to EXPECTED:
#
#   cmake -DOUTPUT=PATH -DEXPECTED=PATH [-DSEED=PATH] -P expect_same_file.cmake -- COMMAND [ARG...]
#
# OUTPUT is removed before the command runs, or, when SEED is given,
# replaced by a copy of SEED (for a command that rewrites its input).
set(cmd)
set(seenSeparator FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
    if(seenSeparator)
        list(APPEND cmd "${CMAKE_ARGV${i}}")
    elseif(CMAKE_ARGV${i} STREQUAL "--")
        set(seenSeparator TRUE)
    endif()
endforeach()

if(DEFINED SEED)
    execute_process(COMMAND ${CMAKE_COMMAND} -E copy "${SEED}" "${OUTPUT}"
        RESULT_VARIABLE copied)
    if(NOT copied EQUAL 0)
        message(FATAL_ERROR "cannot copy ${SEED} to ${OUTPUT}")
    endif()
else()
    file(REMOVE "${OUTPUT}")
endif()
execute_process(COMMAND ${cmd} RESULT_VARIABLE rc
    OUTPUT_VARIABLE out ERROR_VARIABLE out)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "exited ${rc}:\n${out}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
    "${OUTPUT}" "${EXPECTED}" RESULT_VARIABLE same)
file(REMOVE "${OUTPUT}")
if(NOT same EQUAL 0)
    message(FATAL_ERROR "${OUTPUT} differs from ${EXPECTED}:\n${out}")
endif()
