"""Append-only run-history store under ``.repro/runs/``.

Every simulating CLI subcommand, service job and benchmark appends one
:class:`RunRecord` per invocation (:func:`record_run`, or
:func:`collect_record` plus :func:`append_run` when the caller keeps
the record, as ``--manifest-out`` does), so the repository accumulates
a longitudinal, queryable record of execution telemetry instead of a
single overwritten snapshot: seeds, config and trace digests, a
flattened metrics snapshot, per-stage wall-time rollups, the git SHA,
and an environment fingerprint.  The regression gates in
:mod:`repro.obs.analyze` read windows of these records back to decide
whether the current run drifted.

The store is **append-only by construction**: each record lands in its
own file named by creation time plus a random run id, created whole by
:func:`repro.util.atomicfile.create_unique`, so two consecutive
invocations can never overwrite each other — the failure mode the old
``BENCH_*.json`` overwrite-in-place workflow made invisible — and a
killed writer never leaves a partial record.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time
import uuid
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.errors import ValidationError
from repro.obs.metrics import MetricsSnapshot
from repro.util.atomicfile import create_unique

#: Bump when the record layout changes meaning.
RUN_STORE_VERSION = 1

#: Environment override for the store directory.  An empty value
#: disables recording entirely (used by hermetic test runs).
RUN_STORE_ENV = "REPRO_RUN_STORE"

#: Default store location, relative to the working directory.
DEFAULT_STORE_DIR = ".repro/runs"


def default_store_dir() -> Optional[Path]:
    """The run-store directory: ``$REPRO_RUN_STORE`` or ``.repro/runs``.

    Returns ``None`` when the environment variable is set but empty —
    the documented way to disable run recording wholesale.
    """
    value = os.environ.get(RUN_STORE_ENV)
    if value is None:
        return Path(DEFAULT_STORE_DIR)
    if not value.strip():
        return None
    return Path(value)


#: Where the imported ``repro`` package lives: :func:`git_sha` asks git
#: about this directory, not about the working directory.
_PACKAGE_DIR = Path(__file__).resolve().parent.parent


def _git_output(*args: str) -> Optional[str]:
    """``git <args>``'s stripped stdout, run in the package directory; ``None`` on failure."""
    try:
        proc = subprocess.run(
            ["git", *args],
            cwd=_PACKAGE_DIR,
            capture_output=True,
            text=True,
            timeout=5,
            check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def git_sha() -> Optional[str]:
    """The commit of the running ``repro`` source, or ``None`` if none names it.

    The sha of the checkout holding the imported package, wherever the
    command runs from, when git tracks the package directory and its
    tracked files are unmodified; ``<sha>-dirty`` when some are
    modified.  ``None`` when no commit holds this source: the package is
    not inside a git work tree (an installed or exported copy), or git
    tracks none of its files (an untracked copy inside another
    checkout).
    """
    if not _git_output("ls-files", "--", "."):
        return None
    sha = _git_output("rev-parse", "HEAD")
    changes = _git_output("status", "--porcelain", "--untracked-files=no", "--", ".")
    if not sha or changes is None:
        return None
    return f"{sha}-dirty" if changes else sha


def environment_fingerprint() -> Dict[str, Any]:
    """The host/runtime facts that explain run-to-run perf variance."""
    from repro import __version__
    from repro.simgpu._kernels import kernel_info

    # resolve=False: fingerprinting must stay side-effect free (no
    # kernel compiles/imports); the backend shows as None until some
    # simulation actually resolved it in this process.
    kernels = kernel_info(resolve=False)
    return {
        "package_version": __version__,
        "python_version": sys.version.split()[0],
        "platform": platform.platform(),
        "host_cpu_count": os.cpu_count(),
        "kernels_requested": kernels["requested"],
        "kernels_backend": kernels["backend"],
    }


def build_info() -> Dict[str, Any]:
    """Package version plus source provenance, for version surfaces.

    Backs ``repro --version`` and the service's ``GET /v1/healthz``:
    the environment fingerprint's package/python facts joined with
    :func:`git_sha` (``None`` when no commit holds the source), so every
    deployment can say exactly which build is answering.
    """
    info = environment_fingerprint()
    info["git_sha"] = git_sha()
    return info


def version_line() -> str:
    """One human-readable line: ``repro <version> (<sha>, python <ver>)``."""
    info = build_info()
    sha = info["git_sha"]
    dirty = "-dirty" if sha and sha.endswith("-dirty") else ""
    provenance = f"git {sha[:12]}{dirty}" if sha else "no git commit"
    return (
        f"repro {info['package_version']} "
        f"({provenance}, python {info['python_version']})"
    )


def _render_labels(labels: Mapping[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
    return "{" + inner + "}"


def flatten_metrics(snapshot: Any) -> Dict[str, float]:
    """A :class:`~repro.obs.metrics.MetricsSnapshot` as flat scalars.

    Naming scheme (stable — the regression gate keys on it):

    - ``counter:<name>`` — counter total aggregated over labels;
    - ``counter:<name>{k=v,...}`` — one entry per labeled series;
    - ``gauge:<name>{...}`` — gauges verbatim;
    - ``hist:<name>{...}:mean`` / ``:count`` — histogram rollups.
    """
    flat: Dict[str, float] = {}
    for name, total in snapshot.counter_totals().items():
        flat[f"counter:{name}"] = float(total)
    for (name, labels), value in snapshot.counters.items():
        if labels:
            flat[f"counter:{name}{_render_labels(dict(labels))}"] = float(value)
    for (name, labels), value in snapshot.gauges.items():
        flat[f"gauge:{name}{_render_labels(dict(labels))}"] = float(value)
    for (name, labels), hist in snapshot.histograms.items():
        prefix = f"hist:{name}{_render_labels(dict(labels))}"
        flat[f"{prefix}:count"] = float(hist.count)
        flat[f"{prefix}:mean"] = float(hist.mean)
    return flat


@dataclass(frozen=True)
class RunRecord:
    """One appended run: identity, provenance, metrics, stage rollups."""

    run_id: str
    created_unix: float
    command: str
    argv: Sequence[str] = ()
    git_sha: Optional[str] = None
    environment: Mapping[str, Any] = field(default_factory=dict)
    jobs: Optional[int] = None
    seeds: Mapping[str, int] = field(default_factory=dict)
    config_digests: Mapping[str, str] = field(default_factory=dict)
    trace_digests: Mapping[str, str] = field(default_factory=dict)
    metrics: Mapping[str, float] = field(default_factory=dict)
    stages: Mapping[str, float] = field(default_factory=dict)
    top_stages: Mapping[str, float] = field(default_factory=dict)
    extra: Mapping[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "run_store_version": RUN_STORE_VERSION,
            "run_id": self.run_id,
            "created_unix": self.created_unix,
            "command": self.command,
            "argv": list(self.argv),
            "git_sha": self.git_sha,
            "environment": dict(self.environment),
            "jobs": self.jobs,
            "seeds": dict(self.seeds),
            "config_digests": dict(self.config_digests),
            "trace_digests": dict(self.trace_digests),
            "metrics": dict(self.metrics),
            "stages": dict(self.stages),
            "top_stages": dict(self.top_stages),
            "extra": dict(self.extra),
        }

    def to_json(self) -> str:
        """The record's file body: what the store and ``--manifest-out`` write."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunRecord":
        version = data.get("run_store_version")
        if version != RUN_STORE_VERSION:
            raise ValidationError(
                f"unsupported run record version {version!r} "
                f"(this build reads version {RUN_STORE_VERSION})"
            )
        return cls(
            run_id=str(data["run_id"]),
            created_unix=float(data["created_unix"]),
            command=str(data["command"]),
            argv=tuple(str(a) for a in data.get("argv", [])),
            git_sha=data.get("git_sha"),
            environment=dict(data.get("environment", {})),
            jobs=data.get("jobs"),
            seeds=dict(data.get("seeds", {})),
            config_digests=dict(data.get("config_digests", {})),
            trace_digests=dict(data.get("trace_digests", {})),
            metrics={k: float(v) for k, v in data.get("metrics", {}).items()},
            stages={k: float(v) for k, v in data.get("stages", {}).items()},
            top_stages={
                k: float(v) for k, v in data.get("top_stages", {}).items()
            },
            extra=dict(data.get("extra", {})),
        )

    def all_series(self) -> Dict[str, float]:
        """Every gateable scalar: metrics plus ``stage:``-prefixed rollups."""
        series = dict(self.metrics)
        for name, seconds in self.stages.items():
            series[f"stage:{name}"] = float(seconds)
        return series


def new_run_id() -> str:
    """A fresh run id (12 hex chars)."""
    return uuid.uuid4().hex[:12]


def collect_record(
    command: str,
    *,
    argv: Optional[Sequence[str]] = None,
    snapshot: Optional[MetricsSnapshot] = None,
    metrics: Optional[Mapping[str, float]] = None,
    stages: Optional[Mapping[str, float]] = None,
    seeds: Optional[Mapping[str, int]] = None,
    config_digests: Optional[Mapping[str, str]] = None,
    trace_digests: Optional[Mapping[str, str]] = None,
    jobs: Optional[int] = None,
    duration_s: Optional[float] = None,
    extra: Optional[Mapping[str, Any]] = None,
) -> RunRecord:
    """Build a :class:`RunRecord` from live objects.

    ``snapshot`` is the run's :class:`~repro.obs.metrics.MetricsSnapshot`.
    It is flattened into ``metrics``, and its histograms become the
    rollups: ``top_stages`` holds each stage's ``stage_s`` total, and
    ``stages`` holds those plus each task kind's ``task_wall_s`` total
    as ``worker.<kind>`` (worker time elapses inside a stage, so it is
    never top-level).  ``metrics``/``stages`` accept pre-flattened
    mappings for callers (benchmarks) without a snapshot; when both are
    given the explicit mappings win key-by-key.
    """
    flat: Dict[str, float] = {}
    stage_rollup: Dict[str, float] = {}
    top_rollup: Dict[str, float] = {}
    if snapshot is not None:
        flat.update(flatten_metrics(snapshot))
        top_rollup.update(snapshot.histogram_totals("stage_s", "stage"))
        stage_rollup.update(top_rollup)
        for kind, seconds in snapshot.histogram_totals("task_wall_s", "kind").items():
            stage_rollup[f"worker.{kind}"] = seconds
    if metrics:
        flat.update({k: float(v) for k, v in metrics.items()})
    if stages:
        stage_rollup.update({k: float(v) for k, v in stages.items()})

    # Derived series the regression gate cares about directly.
    hits = flat.get("counter:cache_hits", 0.0)
    misses = flat.get("counter:cache_misses", 0.0)
    if hits + misses > 0:
        flat["derived:cache_hit_rate"] = hits / (hits + misses)
    frames = flat.get("counter:frames_simulated", 0.0)
    wall = duration_s if duration_s else sum(top_rollup.values()) or None
    if frames and wall:
        flat["derived:frames_per_s"] = frames / wall
    if duration_s is not None:
        flat["derived:duration_s"] = float(duration_s)

    return RunRecord(
        run_id=new_run_id(),
        created_unix=time.time(),
        command=command,
        argv=tuple(str(a) for a in (argv if argv is not None else [])),
        git_sha=git_sha(),
        environment=environment_fingerprint(),
        jobs=jobs,
        seeds=dict(seeds or {}),
        config_digests=dict(config_digests or {}),
        trace_digests=dict(trace_digests or {}),
        metrics=flat,
        stages=stage_rollup,
        top_stages=top_rollup,
        extra=dict(extra or {}),
    )


class RunStore:
    """The append-only record directory (one JSON file per run).

    Thread-safety audit (CONC rules): worker threads append through
    :func:`record_run` while dashboard request threads read, with no
    lock — and none is needed.  The store keeps no mutable in-memory
    state (``root`` is set once in ``__init__``), appends never
    overwrite, and readers only ever see whole files.  Adding an id cache
    like :class:`~repro.service.jobs.JobStore` has would require its
    lock discipline; keep it stateless instead.
    """

    def __init__(self, root: Optional[Union[str, Path]] = None) -> None:
        resolved = Path(root) if root is not None else default_store_dir()
        if resolved is None:
            raise ValidationError(
                f"run store disabled: ${RUN_STORE_ENV} is set but empty"
            )
        self.root = resolved

    # -- writing -----------------------------------------------------------

    def append(self, record: RunRecord) -> Path:
        """Write ``record`` as a brand-new file; never overwrites."""
        self.root.mkdir(parents=True, exist_ok=True)
        stamp = int(record.created_unix * 1e6)
        return create_unique(
            self.root,
            f"{stamp:017d}-{record.run_id}",
            record.to_json().encode("utf-8"),
        )

    # -- reading -----------------------------------------------------------

    def paths(self) -> List[Path]:
        """Record files, oldest first (filenames sort by creation time)."""
        if not self.root.is_dir():
            return []
        return sorted(self.root.glob("*.json"))

    def records(
        self,
        command: Optional[str] = None,
        limit: Optional[int] = None,
    ) -> List[RunRecord]:
        """Stored records, oldest first, optionally filtered by command.

        ``limit`` keeps only the newest N after filtering.  Unreadable
        or foreign JSON files are skipped rather than fatal — the store
        directory is long-lived and may accumulate partial writes.
        """
        loaded: List[RunRecord] = []
        for path in self.paths():
            try:
                with open(path, "r", encoding="utf-8") as stream:
                    record = RunRecord.from_dict(json.load(stream))
            except (OSError, ValueError, KeyError, ValidationError):
                continue
            if command is not None and record.command != command:
                continue
            loaded.append(record)
        loaded.sort(key=lambda r: (r.created_unix, r.run_id))
        if limit is not None and limit >= 0:
            loaded = loaded[-limit:] if limit else []
        return loaded

    # -- artifact sidecars -------------------------------------------------

    def artifacts_dir(self, record: RunRecord) -> Path:
        """The record's sidecar directory (existing or conventional).

        Prefers the link the record carries in ``extra["artifacts"]``;
        records written before sidecars existed fall back to the
        conventional ``<run_id>.artifacts`` name, so a sidecar placed
        next to an old record is still discoverable.
        """
        from repro.obs.artifacts import artifact_link, artifacts_dir_for

        link = artifact_link(record.extra)
        if link is not None:
            return self.root / str(link["dir"])
        return artifacts_dir_for(self.root, record.run_id)

    def artifact_index(self, record: RunRecord) -> Dict[str, Any]:
        """The sidecar's index document; raises when the run has none."""
        from repro.obs.artifacts import read_index

        return read_index(self.artifacts_dir(record))

    def load_artifacts(self, record: RunRecord) -> Dict[str, Any]:
        """Every sidecar section of ``record``, digest-verified."""
        from repro.obs.artifacts import load_artifacts

        return load_artifacts(self.artifacts_dir(record))

    def load_artifact_section(self, record: RunRecord, name: str) -> Any:
        """One sidecar section of ``record``, digest-verified."""
        from repro.obs.artifacts import load_section

        return load_section(self.artifacts_dir(record), name)

    def resolve(self, ref: str) -> RunRecord:
        """A record by run-id prefix or negative age index (``-1`` = newest)."""
        records = self.records()
        if not records:
            raise ValidationError(f"run store {self.root} is empty")
        try:
            index = int(ref)
        except ValueError:
            matches = [r for r in records if r.run_id.startswith(ref)]
            if len(matches) == 1:
                return matches[0]
            if not matches:
                raise ValidationError(
                    f"no run record matches id prefix {ref!r}"
                ) from None
            shown = [r.run_id for r in matches[:8]]
            if len(matches) > len(shown):
                shown.append(f"... +{len(matches) - len(shown)} more")
            raise ValidationError(
                f"run id prefix {ref!r} is ambiguous "
                f"({len(matches)} matches: {', '.join(shown)})"
            ) from None
        try:
            return records[index]
        except IndexError:
            raise ValidationError(
                f"run index {index} out of range ({len(records)} records)"
            ) from None


def open_store(
    store: Optional[Union[str, Path, RunStore]] = None,
) -> Optional[RunStore]:
    """``store`` as a :class:`RunStore`, defaulting to :func:`default_store_dir`.

    Returns ``None`` when no ``store`` is given and recording is disabled
    (``$REPRO_RUN_STORE`` set but empty).
    """
    if isinstance(store, RunStore):
        return store
    root = Path(store) if store is not None else default_store_dir()
    return RunStore(root) if root is not None else None


def append_run(
    store: RunStore,
    record: RunRecord,
    artifacts: Optional[Mapping[str, Any]] = None,
) -> Tuple[RunRecord, Optional[Path]]:
    """Append ``record`` to ``store``; returns the record as stored and its path.

    ``artifacts`` is an optional mapping of sidecar section names to
    JSON-safe bodies (see :mod:`repro.obs.artifacts`); when non-empty,
    the sidecar is written *first* and its link embedded in the stored
    record's ``extra["artifacts"]`` — existing records are never mutated
    to attach artifacts after the fact.  Store I/O problems never raise:
    a failed sidecar write stores the record without a link, and a
    failed append returns ``None`` for the path.
    """
    if artifacts:
        from repro.obs.artifacts import write_artifacts

        try:
            link = write_artifacts(store.root, record.run_id, artifacts)
        except OSError:
            pass
        else:
            record = replace(record, extra={**record.extra, "artifacts": link})
    try:
        return record, store.append(record)
    except OSError:
        return record, None


def record_run(
    command: str,
    *,
    store: Optional[Union[str, Path, RunStore]] = None,
    argv: Optional[Sequence[str]] = None,
    snapshot: Optional[MetricsSnapshot] = None,
    metrics: Optional[Mapping[str, float]] = None,
    stages: Optional[Mapping[str, float]] = None,
    seeds: Optional[Mapping[str, int]] = None,
    config_digests: Optional[Mapping[str, str]] = None,
    trace_digests: Optional[Mapping[str, str]] = None,
    jobs: Optional[int] = None,
    duration_s: Optional[float] = None,
    extra: Optional[Mapping[str, Any]] = None,
    artifacts: Optional[Mapping[str, Any]] = None,
) -> Optional[Path]:
    """The shared append hook: collect a record and append it to the store.

    ``artifacts`` are the record's sidecar sections (see
    :func:`append_run`).  Returns the written path, or ``None`` when
    recording is disabled (``$REPRO_RUN_STORE`` set but empty and no
    explicit ``store``) or the write failed.  Never raises on store I/O
    problems — a telemetry write must not take the run down — but
    record *collection* errors (programming bugs) propagate.
    """
    run_store = open_store(store)
    if run_store is None:
        return None
    record = collect_record(
        command,
        argv=argv,
        snapshot=snapshot,
        metrics=metrics,
        stages=stages,
        seeds=seeds,
        config_digests=config_digests,
        trace_digests=trace_digests,
        jobs=jobs,
        duration_s=duration_s,
        extra=extra,
    )
    return append_run(run_store, record, artifacts)[1]
