"""SVC001 clean twin: the ranking request is queued, not priced inline."""


def handle_rank(executor, spec):
    # Candidate pricing runs in the executor's worker pool; the
    # handler only persists and enqueues the submission.
    return executor.submit(spec)
