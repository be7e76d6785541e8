"""Experiment harnesses: one module per table/figure of the paper.

Every module exposes a ``run(...)`` function returning a
:class:`~repro.experiments.common.ReproTable` whose rows put our measured
values next to the paper's reported ones, plus boolean "claims" checking
the qualitative shape (who wins, what is flat, what blows up).

:data:`repro.experiments.index.EXPERIMENTS` is the one index of them.
This package imports nothing itself: the solver path reads the model
builders of :mod:`repro.experiments.workloads` without loading the
harnesses (or the eigen-analysis they pull in).
"""

__all__: list[str] = []
