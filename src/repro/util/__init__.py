"""Shared utilities: seeded RNG (:mod:`repro.util.rng`), statistics
(:mod:`repro.util.stats`), tables and charts (:mod:`repro.util.tables`,
:mod:`repro.util.charts`), argument validation
(:mod:`repro.util.validation`) and atomic file writes
(:mod:`repro.util.atomicfile`)."""
