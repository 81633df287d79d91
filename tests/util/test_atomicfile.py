"""Fault injection for the atomic-file helper and every store written through it.

Each store must come back in its prior state, never with a partial
record, when its writer is killed between the temp write and the
rename or link, when the rename or link raises, or when the disk fills
during the body write.  Racing writers may only ever expose whole files.
"""

from __future__ import annotations

import errno
import os
import shutil
import signal
import stat
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List

import numpy as np
import pytest

from repro.errors import ConfigError, ValidationError
from repro.obs.artifacts import artifacts_dir_for, load_artifacts, write_artifacts
from repro.obs.history import RunRecord, RunStore, new_run_id, record_run
from repro.runtime.cache import CACHE_DIR_ENV, CACHE_MISS, ArtifactCache
from repro.service.jobs import JobStore, new_job
from repro.simgpu import _kernels
from repro.simgpu.batch import FramePrecomp
from repro.simgpu.precomp_store import ARRAY_FIELDS, PrecompStore
from repro.util.atomicfile import atomic_path, create_unique, write_atomic

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")

#: Exit status of a forked writer that reached the rename or link.
KILLED = 86


@dataclass
class StoreCase:
    """One store: a prior state, one write a fault can hit, its readers."""

    directory: Path  # where the write's temp file lands
    primitive: str  # the os call that publishes the write
    write: Callable[[], Any]
    assert_prior: Callable[[], None]


def _cache(tmp_path: Path) -> StoreCase:
    cache = ArtifactCache(tmp_path / "cache")
    key = "ab" * 32
    cache.put(key, "old")

    def prior() -> None:
        assert cache.get(key) == "old"

    return StoreCase(tmp_path / "cache" / "ab", "replace", lambda: cache.put(key, "new"), prior)


def _precomp(tmp_path: Path) -> StoreCase:
    store = PrecompStore(tmp_path / "precomp")
    digest = "cd" * 32
    frame = FramePrecomp(
        frame_index=0,
        pass_spans=[("forward", 0, 4)],
        num_draws=4,
        **{name: np.arange(4.0) for name in ARRAY_FIELDS},
    )
    store.trace_dir(digest).mkdir(parents=True)

    def prior() -> None:
        assert store.load(digest, 0) is None

    return StoreCase(
        store.trace_dir(digest), "replace", lambda: store.publish(digest, frame), prior
    )


def _run_create(tmp_path: Path) -> StoreCase:
    store = RunStore(tmp_path / "runs")
    store.root.mkdir()
    record = RunRecord(run_id=new_run_id(), created_unix=time.time(), command="subset")

    def prior() -> None:
        assert store.paths() == []
        assert store.records() == []
        with pytest.raises(ValidationError, match="empty"):
            store.resolve(record.run_id)

    return StoreCase(store.root, "link", lambda: store.append(record), prior)


def _job_create(tmp_path: Path) -> StoreCase:
    store = JobStore(tmp_path / "jobs")
    store.root.mkdir()
    record = new_job("k", "simulate", {"kind": "simulate"})

    def prior() -> None:
        assert store.paths() == []
        assert store.records() == []
        with pytest.raises(ValidationError):
            store.get(record.job_id)
        with pytest.raises(ValidationError):
            store.resolve(record.job_id)

    return StoreCase(store.root, "link", lambda: store.create(record), prior)


def _job_update(tmp_path: Path) -> StoreCase:
    store = JobStore(tmp_path / "jobs")
    record = new_job("k", "simulate", {"kind": "simulate"})
    store.create(record)

    def start() -> None:
        running = store.get(record.job_id)
        running.state = "running"
        store.update(running)

    def prior() -> None:
        assert len(store.paths()) == 1
        assert [r.state for r in store.records()] == ["queued"]
        assert store.get(record.job_id).state == "queued"
        assert store.resolve(record.job_id[:6]).state == "queued"

    return StoreCase(store.root, "replace", start, prior)


def _sidecar(tmp_path: Path) -> StoreCase:
    root = tmp_path / "runs"
    write_artifacts(root, "run1", {"fidelity": {"e1": 1.0}})
    directory = artifacts_dir_for(root, "run1")

    def prior() -> None:
        assert load_artifacts(directory) == {"fidelity": {"e1": 1.0}}

    return StoreCase(
        directory,
        "replace",
        lambda: write_artifacts(root, "run1", {"fidelity": {"e1": 2.0}}),
        prior,
    )


STORES = pytest.mark.parametrize(
    "make_store",
    [_cache, _precomp, _run_create, _job_create, _job_update, _sidecar],
    ids=["cache", "precomp", "run-create", "job-create", "job-update", "sidecar"],
)


def _temps(directory: Path) -> List[Path]:
    return sorted(directory.rglob("*.tmp"))


def _fork(action: Callable[[], Any]) -> int:
    """Run ``action`` in a forked child; exit 0 if it returns, 1 if it raises."""
    pid = os.fork()
    if pid == 0:  # the child never returns into pytest
        code = 1
        try:
            action()
            code = 0
        finally:
            os._exit(code)
    return pid


def _reap(pids: List[int], codes: Dict[int, int], deadline: float) -> None:
    """Record the exit code of every child in ``pids`` that has exited."""
    for pid in pids:
        if pid in codes:
            continue
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            codes[pid] = os.waitstatus_to_exitcode(status)
        elif time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise AssertionError(f"forked writer {pid} did not finish")


def _wait(pid: int, timeout_s: float = 10.0) -> int:
    codes: Dict[int, int] = {}
    deadline = time.monotonic() + timeout_s
    while pid not in codes:
        _reap([pid], codes, deadline)
        time.sleep(0.002)
    return codes[pid]


def _fill_disk(monkeypatch: pytest.MonkeyPatch) -> None:
    """Point every new temp file's descriptor at ``/dev/full`` (ENOSPC)."""
    if not os.path.exists("/dev/full"):
        pytest.skip("needs /dev/full")
    real_mkstemp = tempfile.mkstemp

    def mkstemp(*args: Any, **kwargs: Any) -> Any:
        handle, name = real_mkstemp(*args, **kwargs)
        full = os.open("/dev/full", os.O_WRONLY)
        os.dup2(full, handle)
        os.close(full)
        return handle, name

    monkeypatch.setattr(tempfile, "mkstemp", mkstemp)


# -- the helper --------------------------------------------------------------


def test_helper_files_appear_whole_and_private(tmp_path):
    target = tmp_path / "value.bin"
    write_atomic(target, b"first")
    write_atomic(target, b"second")
    created = create_unique(tmp_path, "record", b"{}\n")
    again = create_unique(tmp_path, "record", b"[]\n")
    assert target.read_bytes() == b"second"
    assert [created.name, again.name] == ["record.json", "record-1.json"]
    assert created.read_bytes() == b"{}\n"
    for path in (target, created, again):
        assert stat.S_IMODE(path.stat().st_mode) == 0o600
    assert _temps(tmp_path) == []


def test_atomic_path_keeps_the_target_when_the_writer_fails(tmp_path):
    target = tmp_path / "lib.so"
    target.write_bytes(b"old")
    with pytest.raises(RuntimeError):
        with atomic_path(target) as tmp_name:
            Path(tmp_name).write_bytes(b"half")
            raise RuntimeError("compiler died")
    assert target.read_bytes() == b"old"
    assert _temps(tmp_path) == []
    with atomic_path(target) as tmp_name:
        Path(tmp_name).write_bytes(b"new")
    assert target.read_bytes() == b"new"


# -- faults on the write side, store by store --------------------------------


@needs_fork
@STORES
def test_killed_writer_leaves_the_prior_state(tmp_path, make_store):
    case = make_store(tmp_path)

    def die_at_publish() -> None:
        setattr(os, case.primitive, lambda *args, **kwargs: os._exit(KILLED))
        case.write()

    assert _wait(_fork(die_at_publish)) == KILLED
    assert len(_temps(case.directory)) == 1  # the killed writer's leftover
    case.assert_prior()


@STORES
def test_failed_rename_or_link_leaves_the_prior_state(tmp_path, monkeypatch, make_store):
    case = make_store(tmp_path)

    def refuse(*args: Any, **kwargs: Any) -> None:
        raise OSError(errno.EIO, "injected rename failure")

    monkeypatch.setattr(os, case.primitive, refuse)
    with pytest.raises(OSError, match="injected"):
        case.write()
    monkeypatch.undo()
    case.assert_prior()
    assert _temps(case.directory) == []


@STORES
def test_full_disk_leaves_the_prior_state(tmp_path, monkeypatch, make_store):
    case = make_store(tmp_path)
    _fill_disk(monkeypatch)
    with pytest.raises(OSError) as raised:
        case.write()
    assert raised.value.errno == errno.ENOSPC
    monkeypatch.undo()
    case.assert_prior()
    assert _temps(case.directory) == []


def test_record_run_returns_none_on_a_full_disk(tmp_path, monkeypatch):
    _fill_disk(monkeypatch)
    written = record_run(
        "subset", store=tmp_path / "runs", artifacts={"fidelity": {"e1": 1.0}}
    )
    assert written is None
    monkeypatch.undo()
    assert RunStore(tmp_path / "runs").records() == []
    assert _temps(tmp_path) == []


# -- racing writers ----------------------------------------------------------


@needs_fork
def test_racing_cache_writers_expose_only_whole_values(tmp_path):
    key = "ef" * 32
    values = [bytes([fill]) * 200_000 for fill in (1, 2)]

    def writer(value: bytes) -> None:
        cache = ArtifactCache(tmp_path)
        for _ in range(30):
            cache.put(key, value)

    pids = [_fork(lambda value=value: writer(value)) for value in values]
    reader = ArtifactCache(tmp_path)
    codes: Dict[int, int] = {}
    deadline = time.monotonic() + 20.0
    try:
        while len(codes) < len(pids):
            seen = reader.get(key)
            assert seen is CACHE_MISS or seen in values
            _reap(pids, codes, deadline)
    finally:
        for pid in set(pids) - set(codes):
            codes[pid] = _wait(pid)
    assert sorted(codes.values()) == [0, 0]
    assert reader.get(key) in values
    assert reader.metrics.counter_total("cache_corrupt_evicted") == 0


def test_threads_appending_one_record_get_distinct_whole_files(tmp_path):
    store = RunStore(tmp_path / "runs")
    record = RunRecord(run_id=new_run_id(), created_unix=time.time(), command="subset")

    def append_ten() -> None:
        for _ in range(10):
            store.append(record)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=append_ten) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert len(set(store.paths())) == 40
    assert len(store.records()) == 40
    assert _temps(store.root) == []


# -- the kernel build --------------------------------------------------------


def test_failed_kernel_build_leaves_the_build_dir_empty(tmp_path, monkeypatch):
    false = shutil.which("false")
    if false is None:
        pytest.skip("needs the false command")
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
    monkeypatch.setattr(_kernels, "_find_compiler", lambda: false)
    with pytest.raises(ConfigError, match="kernel compile failed"):
        _kernels._compile_c_library()
    assert list((tmp_path / "kernels").iterdir()) == []
