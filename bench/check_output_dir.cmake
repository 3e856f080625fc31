# Runs the bench ${BENCH} with SPADEN_BENCH_DIR=${DIR} (a directory that does
# not exist) and fails unless the bench exits non-zero, names ${DIR} in its
# message, and synthesized no dataset first.
file(REMOVE_RECURSE "${DIR}")
execute_process(
  COMMAND ${CMAKE_COMMAND} -E env SPADEN_BENCH_DIR=${DIR} SPADEN_SCALE=0.03125 ${BENCH}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(rc EQUAL 0)
  message(FATAL_ERROR "bench succeeded with a missing output directory:\n${out}${err}")
endif()
string(FIND "${err}" "'${DIR}'" named)
if(named EQUAL -1)
  message(FATAL_ERROR "error message does not name '${DIR}':\n${err}")
endif()
string(FIND "${err}" "[gen]" generated)
if(NOT generated EQUAL -1)
  message(FATAL_ERROR "bench synthesized data before failing:\n${err}")
endif()
