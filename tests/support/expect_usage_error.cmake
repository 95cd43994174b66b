# Run the command given after `--` and pass only when it exits
# non-zero and its output (stdout and stderr) contains EXPECT:
#
#   cmake -DEXPECT=TEXT -P expect_usage_error.cmake -- COMMAND [ARG...]
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

execute_process(COMMAND ${cmd} RESULT_VARIABLE rc
    OUTPUT_VARIABLE out ERROR_VARIABLE out)
if(rc EQUAL 0)
    message(FATAL_ERROR "exited 0, expected a failure:\n${out}")
endif()
string(FIND "${out}" "${EXPECT}" at)
if(at EQUAL -1)
    message(FATAL_ERROR "output does not name '${EXPECT}':\n${out}")
endif()
