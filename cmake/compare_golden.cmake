# Runs a command that writes OUT, then requires OUT to equal GOLDEN byte for
# byte. Used by the golden-report tests to pin simulator output across
# refactors that must not change any result.
#
#   cmake -DCMD=/path/to/tool "-DARGS=--json;out.json;..." -DOUT=out.json
#         -DGOLDEN=tests/golden/x.json -P compare_golden.cmake
#
# With -DSTDOUT=ON the command's standard output is captured into OUT, for
# programs that print their result (the bench_fig* tables).
foreach(var IN ITEMS CMD OUT GOLDEN)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "compare_golden.cmake: ${var} is required")
  endif()
endforeach()

set(output OUTPUT_QUIET)
if(STDOUT)
  set(output OUTPUT_FILE ${OUT})
endif()
file(REMOVE ${OUT})
execute_process(
  COMMAND ${CMD} ${ARGS}
  RESULT_VARIABLE rc
  ${output}
  ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "command failed with exit code '${rc}'\nstderr: ${err}")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT} ${GOLDEN}
  RESULT_VARIABLE same)
if(NOT same EQUAL 0)
  message(FATAL_ERROR "${OUT} differs from ${GOLDEN}")
endif()
