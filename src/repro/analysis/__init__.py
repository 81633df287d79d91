"""Experiment harness reproducing the paper's evaluation.

:mod:`repro.analysis.experiments` has one runner per experiment (E1-E10,
see DESIGN.md section 4); each returns an
:class:`~repro.analysis.report.ExperimentResult` whose rows are the
table/figure series the paper reports.  :mod:`repro.analysis.correlation`
implements the frequency-scaling validation and
:mod:`repro.analysis.sweep` the architecture-pathfinding use case.
"""
