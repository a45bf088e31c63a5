# Runs every paper_figures entry at a small scale and byte-compares
# stdout with the committed expected output.  A change to the model
# regenerates the expected file:
#   build/bench/paper_figures --scale=0.25 --benchmarks=backprop,nw \
#       --jobs=2 > tests/bench/paper_figures_golden.txt
# Inputs: RUNNER (the binary), EXPECTED and ACTUAL (file paths).
execute_process(
    COMMAND ${RUNNER} --scale=0.25 --benchmarks=backprop,nw --jobs=2
    OUTPUT_FILE ${ACTUAL}
    ERROR_VARIABLE progress
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "paper_figures exited with ${rc}:\n${progress}")
endif()
execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files ${EXPECTED} ${ACTUAL}
    RESULT_VARIABLE differs)
if(differs)
    message(FATAL_ERROR "paper_figures stdout differs from ${EXPECTED}; "
                        "see ${ACTUAL}")
endif()
