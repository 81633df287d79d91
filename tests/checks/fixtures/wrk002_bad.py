"""WRK002 fixture: worker-side writes that evaporate under a pool."""

from repro.runtime.tasks import task_function

RESULT_CACHE = {}
CALL_COUNT = 0


@task_function("fixture_mutating_kind")
def accumulate(context, payload):
    global CALL_COUNT  # expect: WRK002
    CALL_COUNT = CALL_COUNT + 1
    RESULT_CACHE[payload] = context  # expect: WRK002
    return CALL_COUNT
