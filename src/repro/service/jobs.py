"""Persistent job store under ``.repro/jobs/``.

One JSON file per job, named ``{created_micros}-{job_id}.json`` and
created by :func:`repro.util.atomicfile.create_unique` — as run records
are — so two submissions can never overwrite each other.  Unlike run
records, job records *transition*: ``queued → running → succeeded |
failed | cancelled`` (plus ``interrupted`` for jobs that were
mid-flight across too many crashes), so updates rewrite the job's own
file with :func:`repro.util.atomicfile.write_atomic`.  Either way a
crash never leaves a partial record under a job's name.

The store is the service's restart story: on boot
:meth:`JobStore.recover` requeues every ``running`` job that has only
been started once and marks the rest ``interrupted``, so a crashed
server resumes its backlog without losing or duplicating records.
"""

from __future__ import annotations

import json
import threading
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

from repro.errors import ValidationError
from repro.util.atomicfile import create_unique, write_atomic

#: Bump when the record layout changes meaning.
JOB_STORE_VERSION = 1

#: Default store location, relative to the working directory.
DEFAULT_JOB_DIR = ".repro/jobs"

#: Every state a job can be in.  ``interrupted`` is terminal: the job
#: was ``running`` across more than :data:`MAX_ATTEMPTS` boots.
JOB_STATES: Tuple[str, ...] = (
    "queued",
    "running",
    "succeeded",
    "failed",
    "cancelled",
    "interrupted",
)

#: States from which a job will never run again.
TERMINAL_STATES: Tuple[str, ...] = (
    "succeeded",
    "failed",
    "cancelled",
    "interrupted",
)

#: How many times a job may be *started* before a crash-recovery pass
#: gives up on it (a job that takes the server down twice is presumed
#: poisonous).
MAX_ATTEMPTS = 2


@dataclass
class JobRecord:
    """One job's full lifecycle state (mutable; persisted on transition)."""

    job_id: str
    job_key: str
    kind: str
    spec: Dict[str, Any]
    state: str = "queued"
    created_unix: float = 0.0
    updated_unix: float = 0.0
    started_unix: Optional[float] = None
    finished_unix: Optional[float] = None
    attempts: int = 0
    error: Optional[str] = None
    #: Primary job id this submission was deduplicated onto, if any.
    coalesced_with: Optional[str] = None
    result: Optional[Dict[str, Any]] = None
    #: Flattened metrics snapshot of the job's run (run-store naming).
    metrics: Dict[str, float] = field(default_factory=dict)
    #: Live progress gauges: tasks_done / tasks_total / frames.
    progress: Dict[str, float] = field(default_factory=dict)

    @property
    def is_terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def to_dict(self) -> Dict[str, Any]:
        return {
            "job_store_version": JOB_STORE_VERSION,
            "job_id": self.job_id,
            "job_key": self.job_key,
            "kind": self.kind,
            "spec": self.spec,
            "state": self.state,
            "created_unix": self.created_unix,
            "updated_unix": self.updated_unix,
            "started_unix": self.started_unix,
            "finished_unix": self.finished_unix,
            "attempts": self.attempts,
            "error": self.error,
            "coalesced_with": self.coalesced_with,
            "result": self.result,
            "metrics": self.metrics,
            "progress": self.progress,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "JobRecord":
        version = data.get("job_store_version")
        if version != JOB_STORE_VERSION:
            raise ValidationError(
                f"unsupported job record version {version!r} "
                f"(this build reads version {JOB_STORE_VERSION})"
            )
        state = str(data["state"])
        if state not in JOB_STATES:
            raise ValidationError(f"unknown job state {state!r}")
        return cls(
            job_id=str(data["job_id"]),
            job_key=str(data["job_key"]),
            kind=str(data["kind"]),
            spec=dict(data.get("spec", {})),
            state=state,
            created_unix=float(data.get("created_unix", 0.0)),
            updated_unix=float(data.get("updated_unix", 0.0)),
            started_unix=data.get("started_unix"),
            finished_unix=data.get("finished_unix"),
            attempts=int(data.get("attempts", 0)),
            error=data.get("error"),
            coalesced_with=data.get("coalesced_with"),
            result=data.get("result"),
            metrics={
                k: float(v) for k, v in data.get("metrics", {}).items()
            },
            progress={
                k: float(v) for k, v in data.get("progress", {}).items()
            },
        )

    def status_payload(self) -> Dict[str, Any]:
        """The JSON body ``GET /v1/jobs/{id}`` returns (no result blob)."""
        return {
            "job_id": self.job_id,
            "job_key": self.job_key,
            "kind": self.kind,
            "state": self.state,
            "created_unix": self.created_unix,
            "updated_unix": self.updated_unix,
            "started_unix": self.started_unix,
            "finished_unix": self.finished_unix,
            "attempts": self.attempts,
            "error": self.error,
            "coalesced_with": self.coalesced_with,
            "progress": dict(self.progress),
            "spec": self.spec,
        }


def _encode(record: JobRecord) -> bytes:
    return (json.dumps(record.to_dict(), indent=2, sort_keys=True) + "\n").encode("utf-8")


def new_job(job_key: str, kind: str, spec: Dict[str, Any]) -> JobRecord:
    """A fresh ``queued`` record with identity and timestamps stamped."""
    now = time.time()
    return JobRecord(
        job_id=uuid.uuid4().hex[:12],
        job_key=job_key,
        kind=kind,
        spec=spec,
        state="queued",
        created_unix=now,
        updated_unix=now,
    )


class JobStore:
    """The persistent job directory (one JSON file per job).

    One store instance is shared between the executor's worker threads
    and the HTTP request threads, so the in-memory id->path cache is
    guarded by ``_lock``.  Only the dict operations hold it — directory
    scans and record I/O stay outside (CONC003 discipline): the files
    themselves are safe through :mod:`repro.util.atomicfile`.
    """

    def __init__(self, root: Union[str, Path, None] = None) -> None:
        self.root = Path(root) if root is not None else Path(DEFAULT_JOB_DIR)
        self._lock = threading.Lock()
        self._paths: Dict[str, Path] = {}

    # -- writing -----------------------------------------------------------

    def create(self, record: JobRecord) -> Path:
        """Persist a brand-new job file; never overwrites."""
        self.root.mkdir(parents=True, exist_ok=True)
        stamp = int(record.created_unix * 1e6)
        path = create_unique(
            self.root, f"{stamp:017d}-{record.job_id}", _encode(record)
        )
        with self._lock:
            self._paths[record.job_id] = path
        return path

    def update(self, record: JobRecord) -> Path:
        """Atomically rewrite an existing job's file (state transition)."""
        path = self._path_for(record.job_id)
        record.updated_unix = time.time()
        write_atomic(path, _encode(record))
        return path

    def _path_for(self, job_id: str) -> Path:
        with self._lock:
            cached = self._paths.get(job_id)
        if cached is not None and cached.exists():
            return cached
        matches = sorted(self.root.glob(f"*-{job_id}.json"))
        if not matches:
            raise ValidationError(f"no job record for id {job_id!r}")
        with self._lock:
            self._paths[job_id] = matches[0]
        return matches[0]

    # -- reading -----------------------------------------------------------

    def paths(self) -> List[Path]:
        """Record files, oldest first (filenames sort by creation time)."""
        if not self.root.is_dir():
            return []
        return sorted(p for p in self.root.glob("*.json") if p.is_file())

    def records(
        self,
        state: Optional[str] = None,
        kind: Optional[str] = None,
        limit: Optional[int] = None,
    ) -> List[JobRecord]:
        """Stored jobs, oldest first; filterable by state and kind.

        ``limit`` keeps only the newest N after filtering.  Unreadable
        or foreign JSON files are skipped, not fatal — the directory is
        long-lived and may hold partial writes from a crash.
        """
        loaded: List[JobRecord] = []
        for path in self.paths():
            try:
                with open(path, "r", encoding="utf-8") as stream:
                    record = JobRecord.from_dict(json.load(stream))
            except (OSError, ValueError, KeyError, ValidationError):
                continue
            if state is not None and record.state != state:
                continue
            if kind is not None and record.kind != kind:
                continue
            with self._lock:
                self._paths.setdefault(record.job_id, path)
            loaded.append(record)
        loaded.sort(key=lambda r: (r.created_unix, r.job_id))
        if limit is not None and limit >= 0:
            loaded = loaded[-limit:] if limit else []
        return loaded

    def get(self, job_id: str) -> JobRecord:
        """The record for ``job_id`` (exact id, not a prefix).

        An unreadable file raises :class:`ValidationError` naming it,
        as an unknown id does, so the API answers 404 for both.
        """
        path = self._path_for(job_id)
        try:
            with open(path, "r", encoding="utf-8") as stream:
                return JobRecord.from_dict(json.load(stream))
        except (OSError, ValueError, KeyError) as exc:
            raise ValidationError(f"unreadable job record {path}: {exc}") from None

    def resolve(self, ref: str) -> JobRecord:
        """A record by job-id prefix (unique) or exact id."""
        try:
            return self.get(ref)
        except ValidationError:
            pass
        matches = [r for r in self.records() if r.job_id.startswith(ref)]
        if len(matches) == 1:
            return matches[0]
        if not matches:
            raise ValidationError(f"no job matches id prefix {ref!r}")
        raise ValidationError(
            f"job id prefix {ref!r} is ambiguous ({len(matches)} matches)"
        )

    # -- crash recovery ----------------------------------------------------

    def recover(self) -> Tuple[List[JobRecord], List[JobRecord]]:
        """Reconcile jobs left ``running`` by a dead server.

        Returns ``(requeued, interrupted)``: jobs started fewer than
        :data:`MAX_ATTEMPTS` times go back to ``queued`` (the executor
        re-enqueues them on start); the rest become ``interrupted`` with
        an explanatory error.  Idempotent — a store with no ``running``
        jobs is returned unchanged.
        """
        requeued: List[JobRecord] = []
        interrupted: List[JobRecord] = []
        for record in self.records(state="running"):
            if record.attempts < MAX_ATTEMPTS:
                record.state = "queued"
                record.progress = {}
                self.update(record)
                requeued.append(record)
            else:
                record.state = "interrupted"
                record.finished_unix = time.time()
                record.error = (
                    f"interrupted: job was running across {record.attempts} "
                    f"server starts (limit {MAX_ATTEMPTS})"
                )
                self.update(record)
                interrupted.append(record)
        return requeued, interrupted
