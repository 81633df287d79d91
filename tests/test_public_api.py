"""Public-API surface checks: exports exist and are importable."""

import importlib

import pytest


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
    "repro.simgpu.dvfs",
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
    "module_name",
    ["repro", "repro.gfx", "repro.synth", "repro.simgpu", "repro.core",
     "repro.baselines", "repro.analysis", "repro.util"],
)
def test_dunder_all_resolves(module_name):
    module = importlib.import_module(module_name)
    for name in getattr(module, "__all__", []):
        assert hasattr(module, name), f"{module_name}.{name} missing"


def test_version_string():
    import repro

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
