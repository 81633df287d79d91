"""Public-API surface checks: each public name has one import path.

A name is imported from the module that defines it; package
``__init__`` files hold only their docstring (``repro`` also holds
``__version__``), so importing one library module loads only what it
uses.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).parent


PUBLIC_MODULES = [
    "repro",
    "repro.errors",
    "repro.datasets",
    "repro.cli",
    "repro.util",
    "repro.util.charts",
    "repro.gfx",
    "repro.gfx.tracebin",
    "repro.synth",
    "repro.simgpu",
    "repro.simgpu.batch",
    "repro.core",
    "repro.core.calibrate",
    "repro.core.incremental",
    "repro.core.perfphase",
    "repro.core.subsetio",
    "repro.runtime",
    "repro.runtime.cache",
    "repro.runtime.engine",
    "repro.runtime.keys",
    "repro.runtime.tasks",
    "repro.baselines",
    "repro.analysis",
    "repro.analysis.experiments",
    "repro.analysis.suite",
    "repro.analysis.validation",
]


@pytest.mark.parametrize("module_name", PUBLIC_MODULES)
def test_module_imports(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__, f"{module_name} lacks a module docstring"


@pytest.mark.parametrize(
    "init",
    sorted(SRC.rglob("__init__.py")),
    ids=lambda path: path.relative_to(SRC.parent).as_posix(),
)
def test_package_init_holds_only_its_docstring(init):
    tree = ast.parse(init.read_text(encoding="utf-8"))
    assert ast.get_docstring(tree), f"{init} lacks a docstring"
    rest = tree.body[1:]
    if init.parent == SRC:
        assert len(rest) == 1
        (version,) = rest
        assert isinstance(version, ast.Assign)
        assert [target.id for target in version.targets] == ["__version__"]
    else:
        assert rest == [], (
            f"{init} re-exports names; import them from their defining modules"
        )


#: Modules only the CLI or one of its subcommands uses.
CLI_ONLY_MODULES = frozenset(
    {
        "repro.obs.history",
        "repro.obs.analyze",
        "repro.obs.artifacts",
        "repro.obs.export",
        "repro.obs.logjson",
        "repro.analysis.validation",
        "repro.analysis.characterize",
        "repro.core.calibrate",
        "repro.core.subsetio",
    }
)


def test_library_modules_load_only_what_they_use():
    # A fresh interpreter: the test session has imported everything.
    script = (
        "import sys\n"
        "import repro.core.pipeline, repro.runtime.engine, repro.analysis.sweep\n"
        "import repro.analysis.correlation, repro.gfx.traceio\n"
        "print(' '.join(sorted(sys.modules)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    loaded = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    ).stdout.split()
    assert sorted(CLI_ONLY_MODULES.intersection(loaded)) == []


def test_version_string():
    parts = repro.__version__.split(".")
    assert len(parts) == 3
    assert all(p.isdigit() for p in parts)


def test_experiment_runner_registry_matches_cli():
    from repro.analysis import experiments
    from repro.cli import EXPERIMENT_RUNNERS

    for experiment_id in EXPERIMENT_RUNNERS:
        candidates = [
            name
            for name in dir(experiments)
            if name.startswith(f"{experiment_id}_")
        ]
        assert candidates, f"no runner function for {experiment_id}"
