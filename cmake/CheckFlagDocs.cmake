# Flag-documentation lint (the docs-side half of keeping --help honest):
# every flag a tool admits to in its --help output must appear somewhere
# in the documentation corpus (README.md, DESIGN.md, docs/*.md). Run per
# tool by ctest (check_flag_docs_* in tools/CMakeLists.txt) and by the
# docs-lint CI job:
#
#   cmake -DTOOL=<exe> -DSRCDIR=<repo root> -P CheckFlagDocs.cmake
#
# The reverse direction (documented-but-removed flags) is not checked:
# a doc mentioning a dead flag survives until someone greps for it. This
# lint exists for the common drift: a new flag lands in a tool and its
# documentation does not. The analysis-option and resource-budget lines
# of ipcp_driver, ipcp_serverd and suitecheck --help are generated from
# the option table (src/core/Options.h), so every row with a flag is
# linted here too.

if(NOT DEFINED TOOL OR NOT DEFINED SRCDIR)
  message(FATAL_ERROR
          "CheckFlagDocs.cmake needs -DTOOL=<exe> and -DSRCDIR=<repo root>")
endif()

execute_process(COMMAND ${TOOL} --help
                RESULT_VARIABLE RC
                OUTPUT_VARIABLE Help
                ERROR_VARIABLE HelpErr)
if(NOT RC EQUAL 0)
  message(FATAL_ERROR "${TOOL} --help exited ${RC}:\n${HelpErr}")
endif()
string(APPEND Help "${HelpErr}")

string(REGEX MATCHALL "--[a-z][a-z0-9-]*" Flags "${Help}")
list(REMOVE_DUPLICATES Flags)
list(LENGTH Flags NumFlags)
if(NumFlags EQUAL 0)
  message(FATAL_ERROR "no flags found in ${TOOL} --help output:\n${Help}")
endif()

# The documentation corpus. Globbing at lint time means a new docs page
# counts without touching this script.
file(GLOB DocFiles ${SRCDIR}/README.md ${SRCDIR}/DESIGN.md
     ${SRCDIR}/docs/*.md)
set(Corpus "")
foreach(Doc ${DocFiles})
  file(READ ${Doc} Text)
  string(APPEND Corpus "${Text}")
endforeach()

set(Missing "")
foreach(Flag ${Flags})
  string(FIND "${Corpus}" "${Flag}" Found)
  if(Found EQUAL -1)
    list(APPEND Missing ${Flag})
  endif()
endforeach()

if(Missing)
  message(FATAL_ERROR
          "flags in `${TOOL} --help` but in no documentation page "
          "(README.md, DESIGN.md, docs/*.md): ${Missing}")
endif()
message(STATUS "${NumFlags} flags from ${TOOL} --help all documented")
