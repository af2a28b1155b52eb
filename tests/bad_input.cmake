# Runs one tool invocation on bad input and requires a clean failure: exit
# code 1 (not a signal, not the usage code 2) and "<NAME>: <message>" on
# stderr, where the message matches EXPECT.
#
#   cmake -DTOOL=<binary> -DNAME=<tool name> "-DARGS=<args>" \
#         "-DEXPECT=<regex>" -P bad_input.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${TOOL}" ${args}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc STREQUAL "1")
  message(FATAL_ERROR "${NAME} ${ARGS}: expected exit code 1, got '${rc}'\n"
                      "stderr:\n${err}")
endif()
if(NOT err MATCHES "(^|\n)${NAME}: [^\n]*${EXPECT}")
  message(FATAL_ERROR "${NAME} ${ARGS}: stderr lacks '${NAME}: ...${EXPECT}'\n"
                      "stderr:\n${err}")
endif()
