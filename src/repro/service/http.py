"""Stdlib HTTP front-end for :class:`~repro.service.api.ServiceApp`.

A :class:`~http.server.ThreadingHTTPServer` whose request handler does
nothing but translate: read the body, call ``app.handle``, write the
status/headers/bytes back.  All routing, validation, and job logic
lives behind the app, so this module has no opinions to test beyond
"bytes go in, bytes come out" — and the service keeps numpy as its only
hard dependency.

Traffic visibility is the metrics registry's job, not stderr's: every
request lands in ``service_requests{method,route,status}`` and the
``service_request_duration_s{route,status}`` histogram on
``/v1/metrics`` (and therefore on the dashboard), which replaced the
old all-or-nothing ``verbose`` request logging.
"""

from __future__ import annotations

import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union
from urllib.parse import parse_qs, urlsplit

from repro.service.api import Response, ServiceApp
from repro.service.dashboard import DashboardData
from repro.service.events import (
    KEEPALIVE_INTERVAL_S,
    Event,
    keepalive_bytes,
)
from repro.service.executor import JobExecutor
from repro.service.jobs import JobStore

#: Cap on accepted request bodies; a job submission is a small JSON
#: document, so anything bigger is a client error (or abuse).
MAX_BODY_BYTES = 1 << 20

#: Oversized bodies up to this size are read and discarded before the
#: 413 goes out: closing a socket with unread input resets it, and the
#: client would see the reset instead of the 413.  Bigger ones are not
#: worth reading; their connection is just closed.
_MAX_DRAIN_BYTES = 8 * MAX_BODY_BYTES

#: How often a streaming handler wakes to check for server shutdown.
_STREAM_POLL_S = 0.5


class _Handler(BaseHTTPRequestHandler):
    """Thin translation layer; the bound ``app`` does the work."""

    server: "ServiceServer"
    protocol_version = "HTTP/1.1"

    # -- plumbing ----------------------------------------------------------

    def log_message(self, format: str, *args: Any) -> None:
        # Request logging is the metrics registry's job (the
        # service_requests counter and request-duration histogram).
        pass

    def _read_body(self) -> Optional[bytes]:
        length = int(self.headers.get("Content-Length") or 0)
        if length <= 0:
            return None
        if length > MAX_BODY_BYTES:
            if length <= _MAX_DRAIN_BYTES:
                while length > 0:
                    chunk = self.rfile.read(min(length, 1 << 16))
                    if not chunk:
                        break
                    length -= len(chunk)
            self.close_connection = True
            return b"__too_large__"
        return self.rfile.read(length)

    def _write(self, response: Response) -> None:
        payload = response.body_bytes()
        self.send_response(response.status)
        self.send_header("Content-Type", response.content_type)
        self.send_header("Content-Length", str(len(payload)))
        for name, value in response.headers.items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(payload)

    def _dispatch(self, method: str) -> None:
        body = self._read_body()
        if body == b"__too_large__":
            self._write(
                Response(413, {"error": "request body too large"})
            )
            return
        self._write(self.server.app.handle(method, self.path, body))

    # -- server-sent events ------------------------------------------------

    def _stream_events(self) -> None:
        """Hold the socket open and relay the app's event bus as SSE.

        The one route the Response model cannot express: output is
        incremental and the connection lives until the client leaves,
        the server closes, or an optional ``?limit=`` is reached
        (counting non-hello events — what scripts and ``--wait`` use to
        exit deterministically).  Idle streams get comment keepalives
        every ~15 s.  Request metrics are recorded by hand since
        ``app.handle`` is bypassed.
        """
        app = self.server.app
        bus = app.events
        query = {
            key: values[-1]
            for key, values in parse_qs(urlsplit(self.path).query).items()
        }
        try:
            limit = int(query["limit"]) if "limit" in query else None
        except ValueError:
            self._write(
                Response(400, {"error": "limit must be an integer"})
            )
            return
        kinds = None
        if query.get("kinds"):
            kinds = {
                part.strip()
                for part in query["kinds"].split(",")
                if part.strip()
            }
        app.metrics.inc(
            "service_requests", method="GET", route="/v1/events", status="200"
        )
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-cache")
        self.send_header("Connection", "close")
        self.end_headers()
        delivered = 0
        try:
            with bus.subscribe() as subscription:
                # The hello is connection-local (not fanned out through
                # the bus) so parallel streams don't see each other's.
                hello = Event(
                    seq=0,
                    kind="hello",
                    data={"server": self.server.url},
                    created_unix=time.time(),
                )
                self.wfile.write(hello.sse_bytes())
                self.wfile.flush()
                last_sent = time.monotonic()
                while not bus.closed:
                    event = subscription.get(timeout=_STREAM_POLL_S)
                    now = time.monotonic()
                    if event is None:
                        if now - last_sent >= KEEPALIVE_INTERVAL_S:
                            self.wfile.write(keepalive_bytes())
                            self.wfile.flush()
                            last_sent = now
                        continue
                    if kinds is not None and event.kind not in kinds | {
                        "shutdown"
                    }:
                        continue
                    self.wfile.write(event.sse_bytes())
                    self.wfile.flush()
                    last_sent = now
                    if event.kind == "shutdown":
                        break
                    if event.kind != "hello":
                        delivered += 1
                        if limit is not None and delivered >= limit:
                            break
        except (BrokenPipeError, ConnectionResetError, OSError):
            pass  # client went away; nothing to clean up beyond unsubscribe
        self.close_connection = True

    # -- verbs -------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - http.server naming
        if urlsplit(self.path).path.rstrip("/") == "/v1/events":
            self._stream_events()
            return
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 - http.server naming
        self._dispatch("POST")

    def do_DELETE(self) -> None:  # noqa: N802 - http.server naming
        self._dispatch("DELETE")

    def do_PUT(self) -> None:  # noqa: N802 - http.server naming
        self._dispatch("PUT")


class ServiceServer(ThreadingHTTPServer):
    """The service's HTTP server, bound to one :class:`ServiceApp`.

    ``daemon_threads`` keeps request threads from blocking shutdown;
    executor workers (when present) are joined by :meth:`close`.
    """

    daemon_threads = True

    def __init__(
        self,
        app: ServiceApp,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        super().__init__((host, port), _Handler)
        self.app = app

    @property
    def address(self) -> Tuple[str, int]:
        return self.server_address[0], self.server_address[1]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def close(self) -> None:
        """Stop serving and drain the executor's workers, if any.

        The event bus closes *first* so open SSE streams receive their
        ``shutdown`` event and unwind instead of pinning daemon threads
        on idle sockets.
        """
        self.app.events.close()
        self.shutdown()
        self.server_close()
        if self.app.executor is not None:
            self.app.executor.stop()


def build_server(
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    workers: int = 1,
    queue_limit: Optional[int] = None,
    sim_jobs: Union[int, str] = 1,
    job_dir: Optional[Union[str, Path]] = None,
    cache_dir: Optional[Union[str, Path]] = None,
    run_store: Optional[Union[str, Path]] = None,
    dashboard: bool = True,
    bench_root: Union[str, Path] = ".",
) -> Tuple[ServiceServer, Dict[str, Any]]:
    """Assemble store + executor + app + server; start the workers.

    The dashboard is mounted by default on the same app (sharing the
    executor's job store, so ``/v1/dash/jobs`` reflects the live
    queue); pass ``dashboard=False`` for a jobs-only server.  Returns
    the (already listening, not yet serving) server and the recovery
    report from the executor's boot scan.  The caller runs
    ``server.serve_forever()`` (the CLI) or drives requests directly
    against ``server.url`` (tests), and must call ``server.close()``.
    """
    from repro.service.executor import DEFAULT_QUEUE_LIMIT

    store = JobStore(job_dir)
    executor = JobExecutor(
        store,
        workers=workers,
        queue_limit=queue_limit if queue_limit is not None else DEFAULT_QUEUE_LIMIT,
        sim_jobs=sim_jobs,
        cache_dir=cache_dir,
        run_store=run_store,
    )
    recovery = executor.start()
    dash_data = (
        DashboardData(
            run_store=run_store, job_store=store, bench_root=bench_root
        )
        if dashboard
        else None
    )
    app = ServiceApp(executor, dashboard=dash_data)
    server = ServiceServer(app, host=host, port=port)
    return server, recovery


def build_dash_server(
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    run_store: Optional[Union[str, Path]] = None,
    job_dir: Optional[Union[str, Path]] = None,
    bench_root: Union[str, Path] = ".",
    serve_ui: bool = True,
) -> ServiceServer:
    """A read-only dashboard server: no executor, no workers, no writes.

    Job routes answer 503; the dash routes (and, with ``serve_ui``, the
    HTML page) read the run store, job store, and BENCH files as they
    are on disk.  Safe to point at a store another process is appending
    to.  ``serve_ui=False`` leaves the JSON data API only.
    """
    dash_data = DashboardData(
        run_store=run_store,
        job_store=JobStore(job_dir) if job_dir is not None else None,
        bench_root=bench_root,
    )
    app = ServiceApp(executor=None, dashboard=dash_data)
    if not serve_ui:
        app.serve_ui = False
    return ServiceServer(app, host=host, port=port)
