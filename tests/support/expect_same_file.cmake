# Run the command given after `--` and pass only when it exits 0 and
# the file OUTPUT it wrote is byte-identical to EXPECTED:
#
#   cmake -DOUTPUT=PATH -DEXPECTED=PATH [-DCAPTURE=ON] -P expect_same_file.cmake -- COMMAND [ARG...]
#
# OUTPUT is removed before the command runs. With CAPTURE on, the
# command's stdout is written to OUTPUT (for a command that prints its
# result).
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

file(REMOVE "${OUTPUT}")
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
