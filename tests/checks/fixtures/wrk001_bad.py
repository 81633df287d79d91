"""WRK001 fixture: a task function worker processes cannot resolve."""

from repro.runtime.tasks import task_function


def make_task():
    @task_function("fixture_nested_kind")
    def run_nested(context, payload):  # expect: WRK001
        return payload

    return run_nested
