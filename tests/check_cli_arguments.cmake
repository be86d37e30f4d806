# Command-line argument validation (docs/ROBUSTNESS.md, "CLI: exit codes
# and batch mode"): a rejected argument exits 2 and names itself on stderr
# instead of only printing the usage text, and a wall-clock budget past the
# clock's range runs to completion instead of tripping at once.
#
# Usage:
#   cmake -DCLI=<gator_cli> -DAPP=<app dir> -DAPP2=<another app dir>
#         -P check_cli_arguments.cmake
if(NOT DEFINED CLI OR NOT DEFINED APP OR NOT DEFINED APP2)
  message(FATAL_ERROR "check_cli_arguments.cmake needs -DCLI, -DAPP, -DAPP2")
endif()

# expect_run(<exit code> <out|err> <text> <arg>...): runs gator_cli with the
# arguments and asserts the exit code and that <text> occurs in stdout
# (out) or stderr (err).
function(expect_run CODE STREAM TEXT)
  execute_process(
    COMMAND ${CLI} ${ARGN}
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
  string(FIND "${${STREAM}}" "${TEXT}" pos)
  if(NOT rc EQUAL ${CODE} OR pos EQUAL -1)
    message(FATAL_ERROR
      "gator_cli ${ARGN} exited ${rc} (expected ${CODE}), "
      "std${STREAM} should contain \"${TEXT}\"\n"
      "--- stdout ---\n${out}\n--- stderr ---\n${err}")
  endif()
endfunction()

expect_run(2 err "error: unknown option '--bogus'" --bogus ${APP})
# The retired edit-scale re-solve flag is an unknown option like any other.
expect_run(2 err "error: unknown option '--incremental-edit'"
           ${APP} --incremental-edit ${APP2})
expect_run(2 err "error: unexpected argument '${APP2}'" ${APP} ${APP2})
expect_run(2 err "--max-seconds value 'nan'" ${APP} --max-seconds nan)
expect_run(2 err "--max-seconds value 'inf'" ${APP} --max-seconds inf)
expect_run(0 out "fidelity: complete" ${APP} --max-seconds 1e10)
