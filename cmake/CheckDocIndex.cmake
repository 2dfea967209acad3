# Documentation-coherence lint (the docs-side complement of
# CheckFlagDocs.cmake). Six drift modes, each fatal:
#
#   1. An unindexed page: every docs/*.md must be listed in README.md's
#      documentation index table.
#   2. A dangling intra-repo link: every relative markdown link in
#      README.md, DESIGN.md, and docs/*.md must resolve to a file that
#      exists.
#   3. A phantom counter: every backticked token in the docs that looks
#      like a registered counter (the Counters.def family prefixes) must
#      actually be registered in src/support/Counters.def.
#   4. A phantom span: every span in docs/OBSERVABILITY.md's span table
#      must be opened by a `ScopedTraceSpan Name("span"` somewhere under
#      src/ or tools/.
#   5. An undocumented stats field: every row of the service's two
#      stats tables (src/core/ServiceStats.def, src/support/
#      StoreStats.def) must have a row in docs/SERVICE.md's stats table
#      with the same key and scope (`service` or `store`).
#   6. An undocumented counter: every counter registered in
#      src/support/Counters.def must appear backticked in
#      docs/OBSERVABILITY.md (the reverse of mode 3).
#
# Run by ctest (check_doc_index in tools/CMakeLists.txt) and by the CI
# docs-lint job:
#
#   cmake -DSRCDIR=<repo root> -P CheckDocIndex.cmake

cmake_minimum_required(VERSION 3.16)

if(NOT DEFINED SRCDIR)
  message(FATAL_ERROR "CheckDocIndex.cmake needs -DSRCDIR=<repo root>")
endif()
# file(GLOB ... RELATIVE) needs an absolute root (CI passes -DSRCDIR=.).
get_filename_component(SRCDIR "${SRCDIR}" ABSOLUTE)

set(Problems "")

# --- 1. Every docs page is indexed in README.md ------------------------

file(READ ${SRCDIR}/README.md Readme)
file(GLOB DocPages RELATIVE ${SRCDIR} ${SRCDIR}/docs/*.md)
list(LENGTH DocPages NumPages)
if(NumPages EQUAL 0)
  message(FATAL_ERROR "no docs/*.md pages found under ${SRCDIR}")
endif()
foreach(Page ${DocPages})
  string(FIND "${Readme}" "${Page}" Found)
  if(Found EQUAL -1)
    list(APPEND Problems
         "unindexed page: ${Page} is not listed in README.md's index")
  endif()
endforeach()

# --- 2. No dangling intra-repo markdown links --------------------------

file(GLOB LintFiles RELATIVE ${SRCDIR}
     ${SRCDIR}/README.md ${SRCDIR}/DESIGN.md ${SRCDIR}/docs/*.md)
foreach(File ${LintFiles})
  file(READ ${SRCDIR}/${File} Text)
  get_filename_component(Dir ${SRCDIR}/${File} DIRECTORY)
  string(REGEX MATCHALL "\\]\\(([^()]+)\\)" Links "${Text}")
  # Strip the ]( … ) delimiters across the whole match list first —
  # elements starting with "]" defeat CMake's own list splitting.
  string(REPLACE "](" "" Links "${Links}")
  string(REPLACE ")" "" Links "${Links}")
  foreach(Target IN LISTS Links)
    # Strip an anchor suffix; skip pure anchors and external URLs.
    string(REGEX REPLACE "#.*$" "" Target "${Target}")
    if(Target STREQUAL "" OR Target MATCHES "^[a-z][a-z0-9+.-]*:")
      continue()
    endif()
    if(IS_ABSOLUTE "${Target}")
      list(APPEND Problems
           "absolute link in ${File}: (${Target}) — use a relative path")
    elseif(NOT EXISTS ${Dir}/${Target})
      list(APPEND Problems
           "dangling link in ${File}: (${Target}) resolves to nothing")
    endif()
  endforeach()
endforeach()

# --- 3. Backticked counter tokens all exist in Counters.def ------------

file(STRINGS ${SRCDIR}/src/support/Counters.def CounterLines
     REGEX "^IPCP_COUNTER\\(")
set(Counters "")
foreach(Line ${CounterLines})
  string(REGEX REPLACE "^IPCP_COUNTER\\(([a-z0-9_]+).*" "\\1" Name
         "${Line}")
  list(APPEND Counters ${Name})
endforeach()
list(LENGTH Counters NumCounters)
if(NumCounters LESS 10)
  message(FATAL_ERROR
          "only ${NumCounters} counters parsed from Counters.def — "
          "the registry regex is broken")
endif()

# Tokens that share a counter-family prefix but are deliberately not
# counters (wire-protocol keys documented in docs/SERVICE.md).
set(NotCounters prop_evals)

foreach(File ${LintFiles})
  file(READ ${SRCDIR}/${File} Text)
  string(REGEX MATCHALL
         "`(time|cg|rjf|jf|prop|ctx|sccp|cp|opt|guard|cache)_[a-z0-9_]+`"
         Tokens "${Text}")
  list(REMOVE_DUPLICATES Tokens)
  foreach(Token ${Tokens})
    string(REGEX REPLACE "`" "" Name "${Token}")
    if(NOT Name IN_LIST Counters AND NOT Name IN_LIST NotCounters)
      list(APPEND Problems
           "phantom counter in ${File}: \`${Name}\` is not registered "
           "in src/support/Counters.def")
    endif()
  endforeach()
endforeach()

# --- 4. Every documented span is opened somewhere ----------------------

file(READ ${SRCDIR}/docs/OBSERVABILITY.md Text)
string(FIND "${Text}" "| Span | Detail | Opened by |" TableStart)
if(TableStart EQUAL -1)
  message(FATAL_ERROR "no span table found in docs/OBSERVABILITY.md")
endif()
string(SUBSTRING "${Text}" ${TableStart} -1 Table)
string(FIND "${Table}" "\n\n" TableEnd)
string(SUBSTRING "${Table}" 0 ${TableEnd} Table)
string(REGEX MATCHALL "\n\\| `[^`]+`" Cells "${Table}")
set(Spans "")
foreach(Cell ${Cells})
  string(REGEX REPLACE "\n\\| `([^`]+)`" "\\1" Span "${Cell}")
  list(APPEND Spans ${Span})
endforeach()
list(LENGTH Spans NumSpans)
if(NumSpans LESS 10)
  message(FATAL_ERROR
          "only ${NumSpans} spans parsed from docs/OBSERVABILITY.md — "
          "the span-table regex is broken")
endif()

file(GLOB_RECURSE SpanSources ${SRCDIR}/src/*.cpp ${SRCDIR}/src/*.h
     ${SRCDIR}/tools/*.cpp)
set(OpenedSpans "")
foreach(File ${SpanSources})
  file(READ ${File} Text)
  string(REGEX MATCHALL "ScopedTraceSpan [A-Za-z]*\\(\"[^\"]+\"" Opens
         "${Text}")
  foreach(Open ${Opens})
    string(REGEX REPLACE ".*\"([^\"]+)\"$" "\\1" Name "${Open}")
    list(APPEND OpenedSpans ${Name})
  endforeach()
endforeach()
foreach(Span ${Spans})
  if(NOT Span IN_LIST OpenedSpans)
    list(APPEND Problems
         "phantom span: \`${Span}\` is documented in docs/OBSERVABILITY.md "
         "but no ScopedTraceSpan under src/ or tools/ opens it")
  endif()
endforeach()

# --- 5. Every stats field has a row in SERVICE.md's stats table -------

file(READ ${SRCDIR}/docs/SERVICE.md Text)
string(FIND "${Text}" "| Key | Scope | Meaning |" TableStart)
if(TableStart EQUAL -1)
  message(FATAL_ERROR "no stats table found in docs/SERVICE.md")
endif()
string(SUBSTRING "${Text}" ${TableStart} -1 Table)
string(FIND "${Table}" "\n\n" TableEnd)
string(SUBSTRING "${Table}" 0 ${TableEnd} Table)

# Each table row's expected "| `key` | scope |" prefix, read from the
# rows themselves: IPCP_SERVICE_STAT(Id, "key") and
# IPCP_STORE_STAT(Id, "key"). A row of any other shape keeps its whole
# line as the key, so it can never match the doc table.
set(StatRows "")
file(STRINGS ${SRCDIR}/src/core/ServiceStats.def StatLines
     REGEX "^IPCP_SERVICE_STAT\\(")
foreach(Line ${StatLines})
  string(REGEX REPLACE "^IPCP_SERVICE_STAT\\([A-Za-z]+, \"([a-z_]+)\"\\)$"
         "\\1" Key "${Line}")
  list(APPEND StatRows "| `${Key}` | service |")
endforeach()
file(STRINGS ${SRCDIR}/src/support/StoreStats.def StatLines
     REGEX "^IPCP_STORE_STAT\\(")
foreach(Line ${StatLines})
  string(REGEX REPLACE "^IPCP_STORE_STAT\\([A-Za-z]+, \"([a-z_]+)\"\\)$"
         "\\1" Key "${Line}")
  list(APPEND StatRows "| `${Key}` | store |")
endforeach()
list(LENGTH StatRows NumStatRows)
if(NumStatRows LESS 20)
  message(FATAL_ERROR
          "only ${NumStatRows} stats fields parsed from ServiceStats.def "
          "and StoreStats.def — the table regex is broken")
endif()
foreach(Row IN LISTS StatRows)
  string(FIND "${Table}" "\n${Row}" Found)
  if(Found EQUAL -1)
    list(APPEND Problems
         "undocumented stats field: docs/SERVICE.md's stats table has no "
         "row starting '${Row}'")
  endif()
endforeach()

# --- 6. Every registered counter is documented -------------------------

file(READ ${SRCDIR}/docs/OBSERVABILITY.md Text)
foreach(Name ${Counters})
  string(FIND "${Text}" "`${Name}`" Found)
  if(Found EQUAL -1)
    list(APPEND Problems
         "undocumented counter: \`${Name}\` is registered in "
         "src/support/Counters.def but never backticked in "
         "docs/OBSERVABILITY.md")
  endif()
endforeach()

if(Problems)
  list(JOIN Problems "\n  " Pretty)
  message(FATAL_ERROR "documentation lint failed:\n  ${Pretty}")
endif()
message(STATUS
        "${NumPages} docs pages indexed, links resolve, counter tokens "
        "match Counters.def (${NumCounters} registered), ${NumSpans} "
        "documented spans are opened, ${NumStatRows} stats fields and "
        "${NumCounters} counters are documented")
