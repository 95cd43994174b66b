# Run the command given after `--` and pass only when it exits 0 and
# the file OUTPUT it wrote is byte-identical to EXPECTED:
#
#   cmake -DOUTPUT=PATH -DEXPECTED=PATH [-DSEED=PATH] [-DCAPTURE=ON] -P expect_same_file.cmake -- COMMAND [ARG...]
#
# OUTPUT is removed before the command runs, or, when SEED is given,
# replaced by a copy of SEED (for a command that rewrites its input).
# With CAPTURE on, the command's stdout is written to OUTPUT (for a
# command that prints its result).
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
if(CAPTURE)
    execute_process(COMMAND ${cmd} RESULT_VARIABLE rc
        OUTPUT_FILE "${OUTPUT}" ERROR_VARIABLE out)
else()
    execute_process(COMMAND ${cmd} RESULT_VARIABLE rc
        OUTPUT_VARIABLE out ERROR_VARIABLE out)
endif()
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "exited ${rc}:\n${out}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
    "${OUTPUT}" "${EXPECTED}" RESULT_VARIABLE same)
if(CAPTURE AND NOT same EQUAL 0)
    file(READ "${OUTPUT}" printed)
    string(APPEND out "${printed}")
endif()
file(REMOVE "${OUTPUT}")
if(NOT same EQUAL 0)
    message(FATAL_ERROR "${OUTPUT} differs from ${EXPECTED}:\n${out}")
endif()
