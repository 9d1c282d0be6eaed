# Runs ${BENCH} once per knob with one bad value and passes only if each run
# exits with status 2 before printing anything to stdout, names the knob
# and the value on stderr, and stops before the run list starts.
foreach(knob
    "POD_SCALE=0" "POD_TRACE=bogus" "POD_JOBS=junk" "POD_TRACE_CACHE="
    "POD_BENCH_JSON=" "POD_TRACE_EVENTS=" "POD_TELEMETRY_CSV="
    "POD_TELEMETRY_INTERVAL_MS=abc" "POD_TRACE_LIMIT=-1" "POD_ANATOMY=yes"
    "POD_TAIL_ANATOMY=junk" "POD_FAULT_SEED=7x" "POD_FAULT_MEDIA_RATE=abc"
    "POD_FAULT_TRANSIENT_RATE=2" "POD_FAULT_FAIL_DISK=7"
    "POD_FAULT_FAIL_AT_MS=-5" "POD_FAULT_REBUILD=2" "POD_SCALAR_PROBES=on"
    "POD_CDC_SWEEP_MB=0")
  string(FIND "${knob}" "=" eq)
  string(SUBSTRING "${knob}" 0 ${eq} name)
  math(EXPR from "${eq} + 1")
  string(SUBSTRING "${knob}" ${from} -1 value)
  execute_process(COMMAND ${CMAKE_COMMAND} -E env POD_SCALE=0.05
                          POD_TRACE=web-vm POD_JOBS=1 ${knob} ${BENCH}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "expected exit status 2 for ${knob}, got '${rc}'\n${err}")
  endif()
  if(NOT out STREQUAL "")
    message(FATAL_ERROR "${knob} printed to stdout before refusing:\n${out}")
  endif()
  string(FIND "${err}" "${name}='${value}' is not " named)
  if(named EQUAL -1)
    message(FATAL_ERROR "refusal does not name ${name}='${value}':\n${err}")
  endif()
  if(err MATCHES "figure\\(s\\)")
    message(FATAL_ERROR "${knob} was refused after the run list started:\n${err}")
  endif()
endforeach()
