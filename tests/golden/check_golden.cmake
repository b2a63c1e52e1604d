# Golden-output check: runs one program and compares its stdout with a
# committed pin, either the full text or (for large listings) a SHA-256.
#
#   cmake -DPROGRAM=<exe> [-DARGS=<arg1|arg2|...>] -DWORKDIR=<dir>
#         -DACTUAL=<file> (-DGOLDEN=<file.txt> | -DGOLDEN_SHA256=<file>)
#         -P check_golden.cmake
#
# The program runs in WORKDIR (created if missing) and its stdout is kept
# in ACTUAL. To re-pin after an intended output change, copy ACTUAL over
# the golden .txt, or write `sha256sum ACTUAL` to the .sha256 file.
file(MAKE_DIRECTORY "${WORKDIR}")
string(REPLACE "|" ";" args "${ARGS}")
execute_process(COMMAND "${PROGRAM}" ${args}
                WORKING_DIRECTORY "${WORKDIR}"
                OUTPUT_FILE "${ACTUAL}"
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${PROGRAM} exited with status ${status}")
endif()

if(DEFINED GOLDEN_SHA256)
  file(STRINGS "${GOLDEN_SHA256}" expected LIMIT_COUNT 1)
  file(SHA256 "${ACTUAL}" actual)
  if(NOT actual STREQUAL expected)
    message(FATAL_ERROR "stdout SHA-256 ${actual} differs from the pin "
                        "${expected} (${GOLDEN_SHA256}); output in ${ACTUAL}")
  endif()
  return()
endif()

execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                        "${GOLDEN}" "${ACTUAL}"
                RESULT_VARIABLE differs)
if(differs)
  find_program(DIFF_PROGRAM diff)
  if(DIFF_PROGRAM)
    execute_process(COMMAND "${DIFF_PROGRAM}" -u "${GOLDEN}" "${ACTUAL}")
  endif()
  message(FATAL_ERROR "stdout differs from ${GOLDEN}; output in ${ACTUAL}")
endif()
