# Runs ${BENCH} with each malformed POD_JOBS value and passes only if the
# bench exits with status 2 and names the value on stderr.
foreach(bad "0" "-3" "junk" "4x")
  execute_process(COMMAND ${CMAKE_COMMAND} -E env POD_JOBS=${bad} POD_SCALE=0.05 ${BENCH}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "expected exit status 2 for POD_JOBS=${bad}, got '${rc}'\n${err}")
  endif()
  if(NOT err MATCHES "POD_JOBS='${bad}'")
    message(FATAL_ERROR "refusal does not name POD_JOBS='${bad}':\n${err}")
  endif()
endforeach()
