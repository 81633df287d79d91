"""CONC001–003: lock-discipline race detection over the call graph."""

from __future__ import annotations

import shutil
from pathlib import Path

from tests.checks.support import (
    FIXTURES,
    assert_matches_markers,
    check,
    observed,
)

CONC = ["CONC001", "CONC002", "CONC003"]

REPO_ROOT = Path(__file__).resolve().parents[2]
EXECUTOR = REPO_ROOT / "src" / "repro" / "service" / "executor.py"
PRECOMP_STORE = REPO_ROOT / "src" / "repro" / "simgpu" / "precomp_store.py"
JOBS = REPO_ROOT / "src" / "repro" / "service" / "jobs.py"
ATOMICFILE = REPO_ROOT / "src" / "repro" / "util" / "atomicfile.py"


def test_conc_fixtures_match_markers() -> None:
    report = check(FIXTURES / "conc", select=CONC)
    assert_matches_markers(report, FIXTURES / "conc")


def test_clean_twin_has_no_findings() -> None:
    report = check(FIXTURES / "conc" / "clean.py", select=CONC)
    assert observed(report) == []


def test_store_alone_is_not_threaded() -> None:
    # Without xspawn.py in the analyzed set, nothing marks SharedIndex
    # as running on multiple threads — the CONC001 finding on xstore
    # exists only because the call graph links the spawn site to it.
    report = check(FIXTURES / "conc" / "xstore.py", select=CONC)
    assert observed(report) == []


def test_precomp_store_publisher_stays_conc_clean() -> None:
    # The shared precompute store is reached from executor worker
    # threads (via the sweep layers) as well as the request path, so
    # its publisher/loader class must keep the lock discipline: mmap
    # handles and index snapshots are taken under the lock, file I/O
    # (the atomic-file helper's writes) happens outside it.  Analyzing
    # it together with the executor gives the call graph the thread
    # entry points, and with the helper the I/O behind its publish; any
    # new CONC finding here is a real race.
    report = check(EXECUTOR, PRECOMP_STORE, ATOMICFILE, select=CONC)
    findings = [
        triple for triple in observed(report) if "precomp_store" in triple[1]
    ]
    assert findings == []


def _lock_the_job_update(source: str) -> str:
    """Move ``JobStore.update``'s ``write_atomic`` call under its lock."""
    call = "        write_atomic(path, _encode(record))\n"
    assert call in source, "jobs.py update() lost its write_atomic call"
    return source.replace(call, "        with self._lock:\n    " + call)


def test_job_update_under_lock_fires_through_the_helper(tmp_path: Path) -> None:
    # The store's file I/O lives in repro.util.atomicfile, so CONC003
    # must follow the call into the helper to see a write under the lock.
    package = tmp_path / "repro"
    for sub in ("service", "util"):
        (package / sub).mkdir(parents=True)
        (package / sub / "__init__.py").write_text("", encoding="utf-8")
    (package / "__init__.py").write_text("", encoding="utf-8")
    shutil.copy(EXECUTOR, package / "service" / "executor.py")
    shutil.copy(ATOMICFILE, package / "util" / "atomicfile.py")
    jobs = package / "service" / "jobs.py"
    source = JOBS.read_text(encoding="utf-8")
    jobs.write_text(source, encoding="utf-8")
    assert observed(check(package, select=CONC)) == []

    jobs.write_text(_lock_the_job_update(source), encoding="utf-8")
    messages = [f.message for f in check(package, select=["CONC003"]).findings]
    assert any(
        "write_atomic() performs file I/O while JobStore.update holds self._lock"
        in message
        for message in messages
    ), messages


def test_blocking_fixture_names_the_lock_holder() -> None:
    report = check(FIXTURES / "conc" / "blocking_bad.py", select=["CONC003"])
    messages = [f.message for f in report.findings]
    assert any("Flusher.stop holds self._lock" in m for m in messages)
    assert any("join() waits for a thread" in m for m in messages)
    assert any("queue get() with no timeout" in m for m in messages)


def _mutate_submit_lock(source: str) -> str:
    """Replace the ``with self._lock:`` inside submit() with ``if True:``.

    Keeps the block syntactically intact so the only change is that the
    critical section no longer holds the lock — the mutation the
    detector exists to catch.
    """
    lines = source.splitlines(keepends=True)
    in_submit = False
    for index, line in enumerate(lines):
        if line.lstrip().startswith("def submit("):
            in_submit = True
        elif in_submit and line.strip() == "with self._lock:":
            indent = line[: len(line) - len(line.lstrip())]
            lines[index] = f"{indent}if True:\n"
            return "".join(lines)
    raise AssertionError("executor.py submit() lost its lock block")


def test_executor_mutation_lock_deletion_fires(tmp_path: Path) -> None:
    # The real executor passes: every guarded access holds the lock and
    # the intentional I/O-under-lock sites carry justified noqa.
    source = EXECUTOR.read_text(encoding="utf-8")
    clean_copy = tmp_path / "clean" / "executor.py"
    clean_copy.parent.mkdir()
    clean_copy.write_text(source, encoding="utf-8")
    assert observed(check(clean_copy.parent, select=CONC)) == []

    # Deleting submit()'s lock must light the detector up: the reads
    # become CONC001 and the writes racing the still-locked mutations
    # elsewhere become CONC002.
    mutated_copy = tmp_path / "mutated" / "executor.py"
    mutated_copy.parent.mkdir()
    mutated_copy.write_text(_mutate_submit_lock(source), encoding="utf-8")
    report = check(mutated_copy.parent, select=CONC)
    fired = {f.rule_id for f in report.findings}
    assert "CONC001" in fired
    assert "CONC002" in fired
    assert all(f.path.endswith("executor.py") for f in report.findings)


def test_threadsafe_attributes_are_exempt(tmp_path: Path) -> None:
    target = tmp_path / "qsafe.py"
    target.write_text(
        "import queue\n"
        "import threading\n"
        "\n"
        "\n"
        "class Pump:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "        self._jobs = queue.Queue()\n"
        "        self._count = 0\n"
        "\n"
        "    def start(self):\n"
        "        threading.Thread(target=self._loop, daemon=True).start()\n"
        "\n"
        "    def _loop(self):\n"
        "        with self._lock:\n"
        "            self._count += 1\n"
        "\n"
        "    def put(self, item):\n"
        "        self._jobs.put(item)\n",
        encoding="utf-8",
    )
    # _jobs is a queue.Queue: accessing it unlocked is the point of the
    # type, so only a _count access outside the lock could ever fire.
    assert observed(check(target, select=CONC)) == []


def test_init_writes_never_fire(tmp_path: Path) -> None:
    target = tmp_path / "ctor.py"
    target.write_text(
        "import threading\n"
        "\n"
        "\n"
        "class Box:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "        self._value = 0\n"
        "\n"
        "    def start(self):\n"
        "        threading.Thread(target=self._bump, daemon=True).start()\n"
        "\n"
        "    def _bump(self):\n"
        "        with self._lock:\n"
        "            self._value += 1\n",
        encoding="utf-8",
    )
    # The __init__ write to _value happens before the object escapes;
    # it must not count as an unguarded write.
    assert observed(check(target, select=CONC)) == []


def test_unthreaded_class_is_ignored(tmp_path: Path) -> None:
    target = tmp_path / "serial.py"
    target.write_text(
        "import threading\n"
        "\n"
        "\n"
        "class Tally:\n"
        "    def __init__(self):\n"
        "        self._lock = threading.Lock()\n"
        "        self._n = 0\n"
        "\n"
        "    def bump(self):\n"
        "        with self._lock:\n"
        "            self._n += 1\n"
        "\n"
        "    def value(self):\n"
        "        return self._n\n",
        encoding="utf-8",
    )
    # Tally takes a lock but no thread ever runs its methods: the
    # unlocked read in value() is single-threaded and must not fire.
    assert observed(check(target, select=CONC)) == []
