"""Subsetting-as-a-service: persistent job queue + HTTP API.

The service layers the existing runtime engine behind a small HTTP
surface so long-running subsetting work can be submitted, queued,
deduplicated, and polled::

    repro serve --port 8630 --workers 2 --job-dir .repro/jobs
    repro jobs submit --url http://127.0.0.1:8630 --kind subset ...

Pieces (each usable on its own):

- :mod:`repro.service.specs` — request validation → :class:`JobSpec`
  with a content-addressed ``job_key``;
- :mod:`repro.service.jobs` — the persistent :class:`JobStore` under
  ``.repro/jobs/`` (crash-safe lifecycle records);
- :mod:`repro.service.executor` — worker pool, in-flight coalescing,
  cache-warm dedup, run-record emission;
- :mod:`repro.service.api` — HTTP-agnostic routing
  (:class:`ServiceApp`), fully testable without sockets;
- :mod:`repro.service.http` — the ``ThreadingHTTPServer`` shim;
- :mod:`repro.service.client` — stdlib client the CLI subcommands use.
"""
