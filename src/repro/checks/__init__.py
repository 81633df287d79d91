"""repro.checks — determinism & cache-safety static analysis.

The reproduction's core claim (docs/RUNTIME.md) is that serial,
parallel, and cached runs agree bit for bit.  This package enforces
the invariants that claim rests on *statically*: unseeded global RNG
use, wall-clock and environment reads in cache-keyed code, unsorted
dict iteration feeding digests, task functions that can't survive a
worker round-trip, cache-key builders that silently drop an input,
unparseable files, and import cycles.  What ruff already checks
(undefined names, unused imports, mutable defaults) is left to ruff.

Entry points:

- ``repro check [paths]`` — the CLI gate (text/JSON/GitHub/SARIF
  output; any finding fails it, and an inline ``# repro: noqa[RULE]``
  comment is the one way to suppress one).
- :func:`repro.checks.engine.run_checks` — the library API the CLI and
  tests share.
- :func:`repro.checks.registry.rule` — the decorator the built-in rule
  modules register through.

The rule catalog with per-rule rationale lives in ``docs/CHECKS.md``.
"""
