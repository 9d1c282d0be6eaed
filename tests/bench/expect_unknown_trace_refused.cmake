# Runs ${BENCH} with POD_TRACE=bogus and passes only if the bench exits with
# status 2 and names the valid traces on stderr.
execute_process(COMMAND ${CMAKE_COMMAND} -E env POD_TRACE=bogus POD_SCALE=0.05 ${BENCH}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "expected exit status 2 for POD_TRACE=bogus, got '${rc}'\n${err}")
endif()
if(NOT err MATCHES "POD_TRACE='bogus'.*web-vm, homes, mail")
  message(FATAL_ERROR "refusal does not name the valid traces:\n${err}")
endif()
