"""Performance anti-pattern rules (PERF001).

The sweep fast path exists because simulating a trace once per
candidate config is the dominant cost of architecture pathfinding:
the per-draw model is identical across configs, so a per-config
``simulate_trace`` loop redoes precompute and the Python dispatch
``num_configs`` times for numbers
:meth:`repro.runtime.engine.Runtime.frame_times_many` (or
``simulate_frames_many``) produces in a single
``(num_configs, num_draws)`` pass.  PERF001 keeps the anti-pattern
from creeping back in.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterator, Optional, Set, Tuple

from repro.checks.findings import Finding
from repro.checks.registry import get_rule, rule

if TYPE_CHECKING:
    from repro.checks.engine import ModuleContext

#: One-config whole-trace simulation calls that a per-config loop multiplies.
_SIM_CALL_NAMES = frozenset({"simulate_trace", "simulate_frames"})

#: Identifier fragments that mark a loop as iterating architecture
#: points rather than workloads.
_CONFIG_HINTS = ("config", "clock", "candidate")


def _identifiers(node: ast.AST) -> Iterator[str]:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def _iterates_configs(target: ast.AST, iterable: ast.AST) -> bool:
    """Does this loop head look like iteration over candidate configs?"""
    for node in (target, iterable):
        for identifier in _identifiers(node):
            lowered = identifier.lower()
            if any(hint in lowered for hint in _CONFIG_HINTS):
                return True
    return False


def _call_name(call: ast.Call) -> Optional[str]:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _sim_calls(body: ast.AST) -> Iterator[ast.Call]:
    for node in ast.walk(body):
        if isinstance(node, ast.Call) and _call_name(node) in _SIM_CALL_NAMES:
            yield node


@rule(
    "PERF001",
    name="simulate-trace-per-config-loop",
    severity="warning",
    hint=(
        "evaluate every candidate in one pass with Runtime.frame_times_many "
        "(frame totals) or Runtime.simulate_frames_many (per-frame outputs); "
        "a per-config loop redoes the trace precompute and the Python "
        "dispatch once per config"
    ),
)
def simulate_trace_per_config_loop(ctx: "ModuleContext") -> Iterator[Finding]:
    """Whole-trace simulation inside a loop over candidate configs.

    An architecture sweep that calls ``simulate_trace`` (or the
    one-config ``Runtime.simulate_frames``) once per config scales its
    cost with the candidate count even though every per-draw input
    except the config columns is loop-invariant.
    ``Runtime.frame_times_many`` and ``simulate_frames_many`` evaluate
    all candidates against one :class:`~repro.simgpu.batch.FramePrecomp`
    as a single ``(num_configs, num_draws)`` pass with identical
    results.  A loop counts as "over configs" when its target or
    iterable names configs, clocks, or candidates; a deliberate
    reference loop (cross-checking the scalar simulator) carries an
    inline PERF001 suppression.
    """
    this = get_rule("PERF001")
    module = ctx.module
    seen: Set[Tuple[int, int]] = set()

    def emit(call: ast.Call) -> Iterator[Finding]:
        anchor = (call.lineno, call.col_offset)
        if anchor in seen:
            return
        seen.add(anchor)
        yield this.finding(
            module.relpath,
            call.lineno,
            call.col_offset,
            f"{_call_name(call)}() runs once per config in a loop over "
            f"candidate configs",
        )

    for node in ast.walk(module.tree):
        if isinstance(node, (ast.For, ast.AsyncFor)):
            if _iterates_configs(node.target, node.iter):
                for statement in node.body:
                    for call in _sim_calls(statement):
                        yield from emit(call)
        elif isinstance(
            node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)
        ):
            if any(
                _iterates_configs(gen.target, gen.iter)
                for gen in node.generators
            ):
                elements = (
                    (node.key, node.value)
                    if isinstance(node, ast.DictComp)
                    else (node.elt,)
                )
                for element in elements:
                    for call in _sim_calls(element):
                        yield from emit(call)
