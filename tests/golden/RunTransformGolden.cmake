# Golden transform-IR diff driver (see tests/CMakeLists.txt):
#
#   cmake -DDRIVER=<ipcp_driver> -DSRCDIR=<repo root>
#         -DSOURCE=tests/golden/transforms/NAME.mf
#         -DOUT=<scratch prefix>
#         -DGOLDEN=<tests/golden/transforms/NAME>   (prefix; .before.ir
#                                                    and .after.ir appended)
#         [-DUPDATE=1] -P RunTransformGolden.cmake
#
# First runs the source with `--run` and with `--optimize --run`: the
# output lines and the execution status must match, so no golden can pin
# a miscompile (this check runs under -DUPDATE=1 too). Then runs
# `ipcp_driver SOURCE --optimize --dump-ir`, splits the dump at the
# before/after markers the driver prints, and byte-compares each half
# against the checked-in goldens. The .after.ir files pin exactly what
# the transform pipeline produces — review a diff there like generated
# code, because it is (docs/TRANSFORMS.md). With -DUPDATE=1 the goldens
# are rewritten instead; the `update-golden` build target does that
# after an intentional pipeline change.

if(NOT DEFINED DRIVER OR NOT DEFINED SRCDIR OR NOT DEFINED SOURCE OR
   NOT DEFINED OUT OR NOT DEFINED GOLDEN)
  message(FATAL_ERROR "RunTransformGolden.cmake needs -DDRIVER, -DSRCDIR, "
                      "-DSOURCE, -DOUT, and -DGOLDEN")
endif()

# Behaviour of one run: its execution status (without the step count,
# which optimization lowers) and its output lines.
function(run_behaviour Out)
  execute_process(
    COMMAND ${DRIVER} ${SRCDIR}/${SOURCE} ${ARGN} --run
    OUTPUT_VARIABLE Text
    ERROR_VARIABLE Err
    RESULT_VARIABLE RC)
  if(NOT RC EQUAL 0)
    message(FATAL_ERROR "${DRIVER} ${ARGN} --run failed (exit ${RC}) on "
                        "${SOURCE}:\n${Err}")
  endif()
  if(NOT Text MATCHES "\nexecution: ([^\n]*), [0-9]+ steps\n")
    message(FATAL_ERROR "no execution line in ${ARGN} --run of ${SOURCE}")
  endif()
  set(Status "${CMAKE_MATCH_1}")
  string(REGEX MATCHALL "output: [^\n]*" Lines "${Text}")
  set(${Out} "execution: ${Status};${Lines}" PARENT_SCOPE)
endfunction()

run_behaviour(Plain)
run_behaviour(Optimized --optimize)
if(NOT Plain STREQUAL Optimized)
  message(FATAL_ERROR "--optimize changes what ${SOURCE} does:\n"
                      "  source:    ${Plain}\n  optimized: ${Optimized}")
endif()

execute_process(
  COMMAND ${DRIVER} ${SRCDIR}/${SOURCE} --optimize --dump-ir
  OUTPUT_VARIABLE Dump
  ERROR_VARIABLE DumpErr
  RESULT_VARIABLE RC)
if(NOT RC EQUAL 0)
  message(FATAL_ERROR "${DRIVER} --optimize --dump-ir failed (exit ${RC}) "
                      "on ${SOURCE}:\n${DumpErr}")
endif()

set(BeforeMark "; === IR before optimization ===\n")
set(AfterMark "; === IR after optimization ===\n")
string(FIND "${Dump}" "${BeforeMark}" BeforePos)
string(FIND "${Dump}" "${AfterMark}" AfterPos)
if(BeforePos EQUAL -1 OR AfterPos EQUAL -1)
  message(FATAL_ERROR "before/after IR markers missing from the dump of "
                      "${SOURCE}")
endif()

string(LENGTH "${BeforeMark}" MarkLen)
math(EXPR BeforeStart "${BeforePos} + ${MarkLen}")
math(EXPR BeforeLen "${AfterPos} - ${BeforeStart}")
string(SUBSTRING "${Dump}" ${BeforeStart} ${BeforeLen} BeforeIR)
string(LENGTH "${AfterMark}" MarkLen)
math(EXPR AfterStart "${AfterPos} + ${MarkLen}")
string(SUBSTRING "${Dump}" ${AfterStart} -1 AfterIR)

file(WRITE ${OUT}.before.ir "${BeforeIR}")
file(WRITE ${OUT}.after.ir "${AfterIR}")

foreach(half before after)
  if(UPDATE)
    configure_file(${OUT}.${half}.ir ${GOLDEN}.${half}.ir COPYONLY)
    message(STATUS "updated ${GOLDEN}.${half}.ir")
  else()
    if(NOT EXISTS ${GOLDEN}.${half}.ir)
      message(FATAL_ERROR "missing golden file ${GOLDEN}.${half}.ir; build "
                          "the `update-golden` target to create it")
    endif()
    execute_process(
      COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT}.${half}.ir
              ${GOLDEN}.${half}.ir
      RESULT_VARIABLE DIFF)
    if(NOT DIFF EQUAL 0)
      message(FATAL_ERROR "${half}-optimization IR differs from "
                          "${GOLDEN}.${half}.ir; inspect ${OUT}.${half}.ir, "
                          "and build the `update-golden` target if the "
                          "change is intentional")
    endif()
  endif()
endforeach()
