"""AST plumbing: noqa parsing, module names, import-map resolution."""

from __future__ import annotations

import textwrap

from repro.checks.astutils import infer_module_name, parse_noqa


def test_parse_noqa_targeted_bare_and_absent():
    noqa = parse_noqa(
        [
            "x = 1  # repro: noqa[DET001]",
            "y = 2  # repro: noqa[DET002, DET003]",
            "z = 3  # repro: noqa",
            "plain = 4",
        ]
    )
    assert noqa[1] == frozenset({"DET001"})
    assert noqa[2] == frozenset({"DET002", "DET003"})
    assert noqa[3] is None  # bare noqa: every rule
    assert 4 not in noqa


def test_infer_module_name_walks_packages(tmp_path):
    pkg = tmp_path / "outer" / "inner"
    pkg.mkdir(parents=True)
    (tmp_path / "outer" / "__init__.py").write_text("")
    (pkg / "__init__.py").write_text("")
    (pkg / "leaf.py").write_text("x = 1\n")
    assert infer_module_name(pkg / "leaf.py") == "outer.inner.leaf"
    assert infer_module_name(pkg / "__init__.py") == "outer.inner"
    # A module outside any package is just its stem.
    lone = tmp_path / "lone.py"
    lone.write_text("x = 1\n")
    assert infer_module_name(lone) == "lone"


# -- import-map resolution (feeds the call graph) ---------------------------


def _import_map(source: str, module_name=None, is_package=False):
    import ast

    from repro.checks.astutils import build_import_map

    tree = ast.parse(textwrap.dedent(source))
    return build_import_map(
        tree, module_name=module_name, is_package=is_package
    )


def test_from_import_aliasing_maps_the_local_name():
    mapping = _import_map("from os.path import join as j\n")
    assert mapping == {"j": "os.path.join"}


def test_plain_import_with_alias():
    mapping = _import_map("import numpy.linalg as la\n")
    assert mapping == {"la": "numpy.linalg"}


def test_relative_import_resolves_against_the_module_name():
    mapping = _import_map(
        "from . import jobs\nfrom ..obs import history\n",
        module_name="repro.service.http",
    )
    assert mapping["jobs"] == "repro.service.jobs"
    assert mapping["history"] == "repro.obs.history"


def test_relative_import_inside_a_package_init_anchors_on_itself():
    mapping = _import_map(
        "from .engine import run_checks\n",
        module_name="repro.checks",
        is_package=True,
    )
    assert mapping["run_checks"] == "repro.checks.engine.run_checks"


def test_relative_import_without_module_name_stays_unmapped():
    mapping = _import_map("from . import jobs\n")
    assert "jobs" not in mapping


def test_relative_import_climbing_past_the_top_stays_unmapped():
    mapping = _import_map(
        "from ... import impossible\n", module_name="repro.cli"
    )
    assert "impossible" not in mapping
