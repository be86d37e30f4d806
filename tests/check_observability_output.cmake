# Telemetry export validation (docs/OBSERVABILITY.md): --trace-out must
# produce a Chrome trace-event document whose every event carries the
# name/ph/ts/pid/tid fields (the Perfetto-loadability contract), and
# --metrics-out must produce valid JSON with the expected gator_*
# instruments, and the trace must carry every phase span, parse included.
# Invoked by ctest with -DCLI=<gator_cli> -DAPP=<app dir>
# -DWORK=<scratch dir>. Validation needs python3; when absent, only the
# exit code is checked.

file(MAKE_DIRECTORY "${WORK}")

execute_process(
  COMMAND ${CLI} ${APP}
          --trace-out=${WORK}/trace.json
          --metrics-out=${WORK}/metrics.json
  RESULT_VARIABLE run_code
  OUTPUT_QUIET)
if(NOT run_code EQUAL 0)
  message(FATAL_ERROR "gator_cli failed: ${run_code}")
endif()

find_program(PYTHON3 python3)
if(NOT PYTHON3)
  message(STATUS "python3 not found; skipping JSON validation")
  return()
endif()

file(WRITE "${WORK}/validate_trace.py" "
import json, sys
doc = json.load(open(sys.argv[1]))
events = doc['traceEvents']
assert events, 'trace has no events'
for e in events:
    for field in ('name', 'ph', 'ts', 'pid', 'tid'):
        assert field in e, 'event missing %s: %r' % (field, e)
    assert e['ph'] in ('X', 'C', 'i'), 'unexpected phase %r' % e['ph']
    if e['ph'] == 'X':
        assert 'dur' in e, 'complete span missing dur: %r' % e
names = {e['name'] for e in events}
for span in ('parse', 'graph-build', 'solve', 'solver.fixpoint'):
    assert span in names, 'missing phase span %r (have %s)' % (span, names)
print('trace OK: %d events' % len(events))
")
execute_process(
  COMMAND ${PYTHON3} ${WORK}/validate_trace.py ${WORK}/trace.json
  RESULT_VARIABLE trace_ok)
if(NOT trace_ok EQUAL 0)
  message(FATAL_ERROR "trace.json validation failed")
endif()

file(WRITE "${WORK}/validate_metrics.py" "
import json, sys
doc = json.load(open(sys.argv[1]))
metrics = doc['metrics']
assert metrics, 'metrics document is empty'
names = {m['name'] for m in metrics}
for expected in ('gator_apps_total', 'gator_graph_nodes_total',
                 'gator_solver_propagations_total', 'gator_flowset_size'):
    assert expected in names, 'missing instrument %r' % expected
hist = next(m for m in metrics if m['name'] == 'gator_flowset_size')
assert hist['type'] == 'histogram' and hist['buckets']
print('metrics OK: %d instruments' % len(metrics))
")
execute_process(
  COMMAND ${PYTHON3} ${WORK}/validate_metrics.py ${WORK}/metrics.json
  RESULT_VARIABLE metrics_ok)
if(NOT metrics_ok EQUAL 0)
  message(FATAL_ERROR "metrics validation failed")
endif()
