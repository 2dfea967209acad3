# Driver-level summary-cache check (invoked by the ctest target
# driver_corrupt_cache, see tests/CMakeLists.txt):
#
#   cmake -DDRIVER=<ipcp_driver> -DSRCDIR=<repo root>
#         -DSOURCE=<relative .mf> -DWORKDIR=<scratch dir>
#         -P RunCorruptCache.cmake
#
# Four driver runs over one --cache-dir, each checked through the `cache`
# block of its --report-json:
#
#   1. populates the store;
#   2. is warm: no misses, some hits;
#   3. runs after the one stored summary under objects/ was truncated
#      behind the driver's back: it still exits 0, degrades to a cold run
#      and reports one load failure (docs/INCREMENTAL.md);
#   4. is warm again, because run 3's save replaced the bad object.
#
# Result equivalence under corruption is covered byte-for-byte by the unit
# tests and the fuzzer; this test pins the end-to-end warm path and exit
# behavior.

file(REMOVE_RECURSE ${WORKDIR})

# Runs the driver once and leaves the report's compacted `cache` block in
# CACHE_BLOCK (in the caller's scope).
function(run_driver N)
  execute_process(
    COMMAND ${DRIVER} ${SOURCE} --cache-dir=${WORKDIR}/store
            --report-json=${WORKDIR}/run${N}.json --scrub-timings
    WORKING_DIRECTORY ${SRCDIR}
    RESULT_VARIABLE RC
    OUTPUT_QUIET)
  if(NOT RC EQUAL 0)
    message(FATAL_ERROR "run ${N} failed (exit ${RC}); a corrupted cache "
                        "must degrade to a cold run")
  endif()
  if(NOT EXISTS ${WORKDIR}/run${N}.json)
    message(FATAL_ERROR "run ${N} wrote no report")
  endif()
  file(READ ${WORKDIR}/run${N}.json REPORT)
  string(REGEX REPLACE "[ \t\r\n]" "" REPORT "${REPORT}")
  string(REGEX MATCH "\"cache\":{[^}]*}" BLOCK "${REPORT}")
  if(BLOCK STREQUAL "")
    message(FATAL_ERROR "run ${N} report has no cache block")
  endif()
  set(CACHE_BLOCK "${BLOCK}" PARENT_SCOPE)
endfunction()

function(expect_block N PATTERN)
  if(NOT CACHE_BLOCK MATCHES "${PATTERN}")
    message(FATAL_ERROR "run ${N}: cache block ${CACHE_BLOCK} does not "
                        "match ${PATTERN}")
  endif()
endfunction()

run_driver(1)

run_driver(2)
expect_block(2 "\"misses\":0[,}]")
expect_block(2 "\"hits\":[1-9]")

file(GLOB OBJECTS ${WORKDIR}/store/objects/*)
list(LENGTH OBJECTS N)
if(NOT N EQUAL 1)
  message(FATAL_ERROR "expected exactly one object under "
                      "${WORKDIR}/store/objects, found ${N}")
endif()
list(GET OBJECTS 0 OBJECT)
file(READ ${OBJECT} TEXT)
string(LENGTH "${TEXT}" LEN)
math(EXPR HALF "${LEN} / 2")
string(SUBSTRING "${TEXT}" 0 ${HALF} TRUNCATED)
file(WRITE ${OBJECT} "${TRUNCATED}")

run_driver(3)
expect_block(3 "\"load_failures\":1[,}]")

run_driver(4)
expect_block(4 "\"misses\":0[,}]")
expect_block(4 "\"hits\":[1-9]")
