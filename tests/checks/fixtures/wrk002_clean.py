"""WRK002 clean twin: results flow back through the return value."""

from repro.runtime.tasks import task_function


@task_function("fixture_pure_kind")
def accumulate(context, payload):
    local_cache = {payload: context}
    return {"cache": local_cache, "calls": 1}
