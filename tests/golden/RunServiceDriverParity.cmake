# Driver/service report parity (see tests/CMakeLists.txt):
#
#   cmake -DDRIVER=<ipcp_driver> -DSERVERD=<ipcp_serverd>
#         -DWORKDIR=<scratch dir> -P RunServiceDriverParity.cmake
#
# Sends one conversation through a concurrent ipcp_serverd and
# runs ipcp_driver once per request with the matching flags. Every
# embedded report must equal the driver's --report-json document (both
# with scrubbed timings), a degraded response must be the driver's exit
# 5, and a source-error response must carry the driver's exit-3
# diagnostics as its message. Both front ends reach the report through
# the same request path (core/Report.h), so any difference is a bug.

file(MAKE_DIRECTORY ${WORKDIR})
set(BadSource "proc main() { print undeclared_var; }")
file(WRITE ${WORKDIR}/source_error.mf "${BadSource}\n")

# parity_case(NAME REQUEST DRIVER-ARG...): REQUEST is the request line,
# which must carry "id":"NAME" and "scrub_timings":true.
set(Cases "")
set(Requests "")
macro(parity_case Name Request)
  list(APPEND Cases ${Name})
  set(Args_${Name} ${ARGN})
  string(APPEND Requests "${Request}\n")
endmacro()

parity_case(default
  [[{"op":"analyze","id":"default","suite":"ocean","scrub_timings":true}]]
  --suite=ocean)
parity_case(jf_literal
  [[{"op":"analyze","id":"jf_literal","suite":"linpackd","options":{"forward_jf":"literal"},"scrub_timings":true}]]
  --suite=linpackd --jf=literal)
parity_case(no_mod
  [[{"op":"analyze","id":"no_mod","suite":"qcd","options":{"mod_information":false},"scrub_timings":true}]]
  --suite=qcd --no-mod)
parity_case(contexts
  [[{"op":"analyze","id":"contexts","suite":"spec77","options":{"engine":"contexts"},"scrub_timings":true}]]
  --suite=spec77 --engine=contexts)
parity_case(complete
  [[{"op":"analyze","id":"complete","suite":"ocean","complete":true,"scrub_timings":true}]]
  --suite=ocean --complete)
parity_case(optimize
  [[{"op":"optimize","id":"optimize","suite":"linpackd","scrub_timings":true}]]
  --suite=linpackd --optimize)
parity_case(optimize_constants
  [[{"op":"optimize","id":"optimize_constants","suite":"trfd","passes":"constants","scrub_timings":true}]]
  --suite=trfd --optimize=constants)
parity_case(frontend_trip
  [[{"op":"analyze","id":"frontend_trip","suite":"ocean","limits":{"tokens":3},"scrub_timings":true}]]
  --suite=ocean --limit-tokens=3)
parity_case(prop_evals
  [[{"op":"analyze","id":"prop_evals","suite":"ocean","limits":{"prop_evals":3},"scrub_timings":true}]]
  --suite=ocean --limit-prop-evals=3)
parity_case(source_error
  "{\"op\":\"analyze\",\"id\":\"source_error\",\"source\":\"${BadSource}\",\"scrub_timings\":true}"
  ${WORKDIR}/source_error.mf)

file(WRITE ${WORKDIR}/requests.jsonl "${Requests}{\"op\":\"shutdown\"}\n")
execute_process(
  COMMAND ${SERVERD} --jobs=4
  INPUT_FILE ${WORKDIR}/requests.jsonl
  OUTPUT_VARIABLE Responses
  RESULT_VARIABLE RC)
if(NOT RC EQUAL 0)
  message(FATAL_ERROR "ipcp_serverd failed (exit ${RC})")
endif()

# Responses come back in request order, one line each. Lines are cut by
# hand rather than as a CMake list, so a ';' in a message survives.
set(Failures 0)
set(Rest "${Responses}")
foreach(Name IN LISTS Cases)
  string(FIND "${Rest}" "\n" Eol)
  string(SUBSTRING "${Rest}" 0 ${Eol} Line)
  math(EXPR Eol "${Eol} + 1")
  string(SUBSTRING "${Rest}" ${Eol} -1 Rest)
  string(JSON Id GET "${Line}" id)
  string(JSON Status GET "${Line}" status)

  set(DriverReport ${WORKDIR}/${Name}.json)
  file(REMOVE ${DriverReport})
  execute_process(
    COMMAND ${DRIVER} ${Args_${Name}} --report-json=${DriverReport}
            --scrub-timings
    OUTPUT_QUIET
    ERROR_VARIABLE DriverErr
    RESULT_VARIABLE Code)

  set(Problem "")
  if(NOT Id STREQUAL Name)
    set(Problem "response id '${Id}' out of order")
  elseif(Code EQUAL 3)
    string(JSON Error ERROR_VARIABLE Missing GET "${Line}" error)
    string(JSON ErrorCode ERROR_VARIABLE Missing GET "${Error}" code)
    string(JSON Message ERROR_VARIABLE Missing GET "${Error}" message)
    if(NOT ErrorCode STREQUAL "source-error" OR NOT Message STREQUAL DriverErr)
      set(Problem "driver exit 3 (${DriverErr}) but service answered ${Line}")
    endif()
  elseif(NOT (Code EQUAL 0 AND Status STREQUAL "ok") AND
         NOT (Code EQUAL 5 AND Status STREQUAL "degraded"))
    set(Problem "driver exit ${Code} but service status '${Status}'")
  else()
    string(JSON Embedded GET "${Line}" report)
    file(READ ${DriverReport} Written)
    string(JSON Same EQUAL "${Embedded}" "${Written}")
    if(NOT Same)
      file(WRITE ${WORKDIR}/${Name}.service.json "${Embedded}")
      set(Problem "reports differ: compare ${DriverReport} with \
${WORKDIR}/${Name}.service.json")
    endif()
  endif()
  if(Problem)
    message(SEND_ERROR "${Name}: ${Problem}")
    math(EXPR Failures "${Failures} + 1")
  else()
    message(STATUS "${Name}: driver exit ${Code}, service ${Status}, same bytes")
  endif()
endforeach()
if(Failures)
  message(FATAL_ERROR "${Failures} case(s) differ between ipcp_serverd and "
                      "ipcp_driver")
endif()
