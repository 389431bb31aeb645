# ctest script (see tests/CMakeLists.txt): the figure harness FIG must reject
# an --index= or --scenario= it does not run — exit 2, print nothing on
# stdout, name the valid choices on stderr — reject an unknown flag
# (--rate= and --paper among them), a malformed number or an empty key space
# (--entries=0) the same way with a usage line, and still run a valid
# choice. The ablation ABL must reject a malformed --seconds=/--entries= or
# --entries=0 the same way, and still run when handed figure flags it does
# not read.
set(tiny --seconds=0.01 --warmup=0 --entries=100 --threads=1 --no-batches)

foreach(bad --index=k-ary --index=lf-list --index= --scenario=f --scenario=ab)
  execute_process(COMMAND ${FIG} ${bad} ${tiny}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "${bad}: exit '${rc}', want 2")
  endif()
  if(NOT out STREQUAL "")
    message(FATAL_ERROR "${bad}: wrote to stdout:\n${out}")
  endif()
  if(NOT err MATCHES "valid: ")
    message(FATAL_ERROR "${bad}: stderr does not list the valid names:\n${err}")
  endif()
endforeach()

foreach(bad --thread=2 --seconds=abc --threads=1,x --reps= --no-batches=1
            --rate=1000 --paper --entries=0)
  execute_process(COMMAND ${FIG} ${bad} ${tiny}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "${bad}: exit '${rc}', want 2")
  endif()
  if(NOT out STREQUAL "")
    message(FATAL_ERROR "${bad}: wrote to stdout:\n${out}")
  endif()
  if(NOT err MATCHES "usage: ")
    message(FATAL_ERROR "${bad}: stderr has no usage line:\n${err}")
  endif()
endforeach()

execute_process(COMMAND ${FIG} --index=jiffy --scenario=a ${tiny}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0 OR NOT out MATCHES ",a_update,simple,[^,]+,[^,]+,jiffy,1,")
  message(FATAL_ERROR "--index=jiffy --scenario=a: exit '${rc}':\n${out}")
endif()

foreach(bad --seconds=abc --entries=12x --seconds=-1 --entries= --entries=0)
  execute_process(COMMAND ${ABL} ${bad}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "ablation ${bad}: exit '${rc}', want 2")
  endif()
  if(NOT out STREQUAL "")
    message(FATAL_ERROR "ablation ${bad}: wrote to stdout:\n${out}")
  endif()
  if(NOT err MATCHES "usage: ")
    message(FATAL_ERROR "ablation ${bad}: stderr has no usage line:\n${err}")
  endif()
endforeach()

execute_process(COMMAND ${ABL} --seconds=0.005 --entries=100 --index=jiffy
                        --threads=1 --no-batches
                RESULT_VARIABLE rc OUTPUT_VARIABLE out)
if(NOT rc EQUAL 0 OR NOT out MATCHES "ablation_clock,tsc,reads0%,1,")
  message(FATAL_ERROR "ablation with figure flags: exit '${rc}':\n${out}")
endif()
