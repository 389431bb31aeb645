# ctest script (see tests/CMakeLists.txt): every thread role of the figure
# harness FIG runs and records its latency samples under its own class. Each
# case runs one jiffy cell with --metrics= and reads the cell's `latency`
# block, which lists only the classes that took samples. OUT is a scratch
# path prefix for the metrics files.
set(common --index=jiffy --seconds=0.2 --warmup=0 --entries=1000)

# check_cell(NAME CELL HAS <classes...> NONE <classes...>): in metrics file
# NAME's cell CELL, every HAS class has samples and no NONE class has any.
function(check_cell name cell)
  cmake_parse_arguments(arg "" "" "HAS;NONE" ${ARGN})
  file(READ ${OUT}_${name}.json json)
  foreach(cls IN LISTS arg_HAS)
    string(JSON n ERROR_VARIABLE e GET "${json}" cells ${cell} latency ${cls}
           count)
    if(e OR NOT n GREATER 0)
      message(FATAL_ERROR "${name} cell ${cell}: no '${cls}' samples\n${json}")
    endif()
  endforeach()
  foreach(cls IN LISTS arg_NONE)
    string(JSON n ERROR_VARIABLE e GET "${json}" cells ${cell} latency ${cls})
    if(NOT e)
      message(FATAL_ERROR "${name} cell ${cell}: '${cls}' samples\n${json}")
    endif()
  endforeach()
endfunction()

# run(NAME <flags...>): one figure run writing ${OUT}_NAME.json.
function(run name)
  execute_process(COMMAND ${FIG} ${common} ${ARGN} --metrics=${OUT}_${name}.json
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${name}: exit '${rc}'\n${out}\n${err}")
  endif()
endfunction()

# b at 2 threads: one updater and one lookup thread.
run(b --scenario=b --threads=2 --no-batches)
check_cell(b 0 HAS put get NONE scan batch)

# e at 3 threads: one updater, one bounded-range and one reverse scanner.
run(e --scenario=e --threads=3 --no-batches)
check_cell(e 0 HAS put scan NONE get batch)

# a at 1 thread with batch rows: cell 1 is b10_seq, whose updater applies
# 10-op batches and records them as `batch`, not `put`.
run(a --scenario=a --threads=1)
file(READ ${OUT}_a.json json)
string(JSON batch GET "${json}" cells 1 batch)
if(NOT batch STREQUAL "b10_seq")
  message(FATAL_ERROR "a: cell 1 is '${batch}', want b10_seq")
endif()
check_cell(a 1 HAS batch NONE put)

# a at 1 thread with --reps=3: the counters are the kept rep's, the window
# its rates and latencies come from. Each put or erase descends once; 1
# descent in 64 and 1 op in 4 are sampled, so descent_sampled x 64 is close
# to the put class's sample count x 4. A delta over all three reps reads
# about 3x.
run(reps --scenario=a --threads=1 --no-batches --reps=3)
file(READ ${OUT}_reps.json json)
string(JSON sampled GET "${json}" cells 0 counters descent_sampled)
string(JSON timed GET "${json}" cells 0 latency put count)
math(EXPR descents "${sampled} * 64")
math(EXPR ops "${timed} * 4")
math(EXPR hi "${ops} * 3 / 2")
math(EXPR lo "${ops} / 2")
if(descents GREATER_EQUAL hi OR descents LESS lo)
  message(FATAL_ERROR "reps: ${descents} descents (sampled x 64) for ${ops} "
                      "ops (timed x 4) of the kept rep\n${json}")
endif()
