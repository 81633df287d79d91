"""WRK001 clean twin: the task function registers at import time."""

from repro.runtime.tasks import task_function


@task_function("fixture_module_kind")
def run_module_level(context, payload):
    return payload
