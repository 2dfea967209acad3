# Flag-documentation lint (the docs-side half of keeping --help honest),
# in both directions.
#
#   cmake -DTOOL=<exe> -DSRCDIR=<repo root> -P CheckFlagDocs.cmake
#
# Every flag <exe> admits to in its --help output must appear somewhere
# in the documentation corpus (README.md, DESIGN.md, docs/*.md): a new
# flag lands with its documentation. Run per tool by ctest
# (check_flag_docs_* in tools/CMakeLists.txt) and by CI's service-smoke
# job. The analysis-option and resource-budget lines of ipcp_driver,
# ipcp_serverd and suitecheck --help are generated from the option table
# (src/core/Options.h), so every row with a flag is linted here too.
#
#   cmake "-DTOOLS=<exe>;<exe>;..." -DSRCDIR=<repo root> -P CheckFlagDocs.cmake
#
# The reverse: every flag in the first cell of a documentation flag-table
# row (a line that opens with "| `--") must appear in the --help of one of
# the tools, so a removed flag cannot stay documented. Run over
# ipcp_driver, suitecheck, ipcp_serverd and ipcp_loadgen by ctest
# (check_flag_docs_rows) and by the same CI step.

if(NOT DEFINED SRCDIR OR (NOT DEFINED TOOL AND NOT DEFINED TOOLS))
  message(FATAL_ERROR "CheckFlagDocs.cmake needs -DSRCDIR=<repo root> and "
                      "-DTOOL=<exe> or -DTOOLS=<exe;exe;...>")
endif()
get_filename_component(SRCDIR "${SRCDIR}" ABSOLUTE)

# The flags `<Tool> --help` admits to, into <Out>.
function(help_flags Tool Out)
  execute_process(COMMAND ${Tool} --help
                  RESULT_VARIABLE RC
                  OUTPUT_VARIABLE Help
                  ERROR_VARIABLE HelpErr)
  if(NOT RC EQUAL 0)
    message(FATAL_ERROR "${Tool} --help exited ${RC}:\n${HelpErr}")
  endif()
  string(REGEX MATCHALL "--[a-z][a-z0-9-]*" Flags "${Help}${HelpErr}")
  list(REMOVE_DUPLICATES Flags)
  set(${Out} ${Flags} PARENT_SCOPE)
endfunction()

# The documentation corpus. Globbing at lint time means a new docs page
# counts without touching this script.
file(GLOB DocFiles ${SRCDIR}/README.md ${SRCDIR}/DESIGN.md
     ${SRCDIR}/docs/*.md)

if(DEFINED TOOLS)
  set(Known "")
  foreach(Tool ${TOOLS})
    help_flags(${Tool} Flags)
    list(APPEND Known ${Flags})
  endforeach()

  set(Stale "")
  set(NumRowFlags 0)
  foreach(Doc ${DocFiles})
    file(RELATIVE_PATH Where ${SRCDIR} ${Doc})
    file(STRINGS ${Doc} Rows REGEX "^\\| `--")
    foreach(Row ${Rows})
      # The first cell: up to the next '|' (an escaped "\|" inside a
      # choice list ends it early, after its flag).
      if(NOT Row MATCHES "^\\|([^|]*)")
        continue()
      endif()
      string(REGEX MATCHALL "--[a-z][a-z0-9-]*" RowFlags "${CMAKE_MATCH_1}")
      foreach(Flag ${RowFlags})
        math(EXPR NumRowFlags "${NumRowFlags} + 1")
        list(FIND Known ${Flag} Index)
        if(Index EQUAL -1)
          list(APPEND Stale "${Flag} (${Where})")
        endif()
      endforeach()
    endforeach()
  endforeach()

  if(Stale)
    message(FATAL_ERROR
            "flag-table rows name flags no tool admits to in --help: "
            "${Stale}")
  endif()
  message(STATUS
          "${NumRowFlags} flags opening documented flag-table rows all in "
          "--help")
else()
  help_flags(${TOOL} Flags)
  list(LENGTH Flags NumFlags)
  if(NumFlags EQUAL 0)
    message(FATAL_ERROR "no flags found in ${TOOL} --help output")
  endif()

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
endif()
