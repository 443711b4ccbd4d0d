# sks-report command-line cases, one per ctest entry:
#
#   cmake -DSKS_REPORT=<binary> -DDATA=<tests/obs/data> -DCASE=<name> \
#         -P sks_report_cases.cmake
#
# Each case runs sks-report and checks its exit code and its combined
# stdout+stderr ('.' in a CMake regex also matches a newline).

# expect(<exit code> <regex the output must match> <sks-report args...>)
function(expect code regex)
  execute_process(COMMAND ${SKS_REPORT} ${ARGN}
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE out)
  if(NOT rc STREQUAL "${code}")
    message(FATAL_ERROR "sks-report ${ARGN}: exit ${rc}, expected ${code}\n${out}")
  endif()
  if(NOT out MATCHES "${regex}")
    message(FATAL_ERROR "sks-report ${ARGN}: output does not match '${regex}'\n${out}")
  endif()
  set(last_output "${out}" PARENT_SCOPE)
endfunction()

if(CASE STREQUAL "DiffShowsSectionsAndRanksProfileDeltas")
  expect(0 "counters:\n  esim.newton_iterations = 1000 -> 1100.*gauges:\n  mem.peak_rss_bytes = 10485760 -> 12582912.*streams:\n  fault.test_ms.mean = 2 -> 2.5.*attribution \\(2 nodes.*\n  #1 .* esim.run_transient\n"
    diff ${DATA}/diff_base.json ${DATA}/diff_current.json)
  # --top bounds the ranked rows, not the section deltas.
  expect(0 "timers:.*#1 .*\\(1 nodes below --top 1\\)"
    diff ${DATA}/diff_base.json ${DATA}/diff_current.json --top 1)
elseif(CASE STREQUAL "DiffReadsTimelineFinalSnapshot")
  # The first snapshot has 10 iterations; only the final one (1000) counts.
  expect(0 "esim.newton_iterations = 1000 -> 1100.*fault.test_ms.mean = 2 -> 2.5"
    diff ${DATA}/timeline.jsonl ${DATA}/diff_current.json)
  if(last_output MATCHES "= 10 ->|attribution")
    message(FATAL_ERROR "diff read a non-final snapshot or ranked a missing profile\n${last_output}")
  endif()
elseif(CASE STREQUAL "RemovedVerbsPrintUsage")
  expect(2 "usage:" merge merged.json ${DATA}/diff_base.json ${DATA}/diff_current.json)
  expect(2 "usage:" attribute ${DATA}/diff_base.json ${DATA}/diff_current.json)
  expect(2 "usage:" sentinel ${DATA}/timeline.jsonl)
  expect(2 "usage:" timeline ${DATA}/timeline.jsonl ${DATA}/timeline.jsonl)
elseif(CASE STREQUAL "TailRejectsMisspelledFollow")
  expect(2 "usage:" tail ${DATA}/timeline.jsonl --folow)
elseif(CASE STREQUAL "TopRejectsNonNumber")
  expect(2 "usage:" print ${DATA}/diff_base.json --top abc)
else()
  message(FATAL_ERROR "unknown case '${CASE}'")
endif()
