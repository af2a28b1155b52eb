# Runs one tool invocation on bad input and requires a clean failure: exit
# code EXIT (default 1, bad input data; 2 is a malformed command line), not
# a signal, and "<NAME>: <message>" on stderr, where the message matches
# EXPECT.
#
#   cmake -DTOOL=<binary> -DNAME=<tool name> "-DARGS=<args>" \
#         "-DEXPECT=<regex>" [-DEXIT=<code>] -P bad_input.cmake
if(NOT DEFINED EXIT)
  set(EXIT 1)
endif()
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${TOOL}" ${args}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc STREQUAL "${EXIT}")
  message(FATAL_ERROR "${NAME} ${ARGS}: expected exit code ${EXIT}, got '${rc}'\n"
                      "stderr:\n${err}")
endif()
if(NOT err MATCHES "(^|\n)${NAME}: [^\n]*${EXPECT}")
  message(FATAL_ERROR "${NAME} ${ARGS}: stderr lacks '${NAME}: ...${EXPECT}'\n"
                      "stderr:\n${err}")
endif()
