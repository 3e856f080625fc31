# Runs `${CLI} ${ARGS}` (ARGS is a ;-list) where one output flag points into
# the directory ${DIR}, which does not exist, and fails unless the CLI exits
# with status 6 and names ${DIR} in its message. The input the command would
# read first is missing too, so any other status (1: cannot open it) means
# the output paths were not checked before the work started.
file(REMOVE_RECURSE "${DIR}")
execute_process(
  COMMAND ${CLI} ${ARGS}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 6)
  message(FATAL_ERROR "expected exit status 6, got '${rc}':\n${out}${err}")
endif()
string(FIND "${err}" "'${DIR}'" named)
if(named EQUAL -1)
  message(FATAL_ERROR "error message does not name '${DIR}':\n${err}")
endif()
