"""SVC001 fixture: a request handler pricing candidates directly."""

from repro.runtime.engine import Runtime


def handle_rank(trace, candidates):
    runtime = Runtime.serial()
    return runtime.frame_times_many(trace, candidates)  # expect: SVC001
