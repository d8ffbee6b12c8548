"""Benchmark harness: experiment drivers for every figure in the paper.

:mod:`repro.bench.experiments` has one ``figNN_*`` function per evaluation
figure; each returns a :class:`~repro.bench.harness.FigureResult` whose
rows are the series the paper plots and whose shape checks are the
paper's findings. ``python -m repro.bench.experiments`` runs them all and
exits non-zero on any mismatch; ``--markdown`` is the source of
EXPERIMENTS.md.
"""
