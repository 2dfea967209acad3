# Golden-report diff driver (invoked per program by ctest, see
# tests/CMakeLists.txt):
#
#   cmake -DDRIVER=<ipcp_driver> -DSRCDIR=<repo root> -DSOURCE=<relative .mf>
#         -DOUT=<scratch json> -DGOLDEN=<tests/golden/<name>.json>
#         [-DDRIVER_ARGS=<extra driver flags>] [-DUPDATE=1] -P RunGolden.cmake
#
# Runs the driver from the repo root (so the report's source_name field
# stays machine-independent) with --scrub-timings and any DRIVER_ARGS
# (a CMake list, e.g. --engine=contexts), then byte-compares the report
# against the checked-in golden file. DRIVER is ipcp_driver, or
# binding_graph_report for the binding-multigraph goldens. With -DUPDATE=1 the
# golden file is rewritten instead — that is what the `update-golden`
# build target does after an intentional output change.

execute_process(
  COMMAND ${DRIVER} ${SOURCE} ${DRIVER_ARGS} --report-json=${OUT} --scrub-timings
  WORKING_DIRECTORY ${SRCDIR}
  RESULT_VARIABLE RC
  OUTPUT_QUIET)
if(NOT RC EQUAL 0)
  message(FATAL_ERROR "${DRIVER} failed (exit ${RC}) on ${SOURCE} ${DRIVER_ARGS}")
endif()

if(UPDATE)
  configure_file(${OUT} ${GOLDEN} COPYONLY)
  message(STATUS "updated ${GOLDEN}")
  return()
endif()

if(NOT EXISTS ${GOLDEN})
  message(FATAL_ERROR "missing golden file ${GOLDEN}; build the "
                      "`update-golden` target to create it")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT} ${GOLDEN}
  RESULT_VARIABLE DIFF)
if(NOT DIFF EQUAL 0)
  message(FATAL_ERROR "report for ${SOURCE} differs from ${GOLDEN}; "
                      "inspect ${OUT}, and build the `update-golden` "
                      "target if the change is intentional")
endif()
