"""Solver resilience layer: failure taxonomy, fallback chain, checkpoints.

Three cooperating pieces (see DESIGN.md section 8):

- :mod:`repro.resilience.taxonomy` — :class:`FailureReason` /
  :class:`SolveReport`, the shared vocabulary for *why* a solve failed
  and what was done about it;
- :mod:`repro.resilience.resilient` — :class:`ResilientSolver`, a
  preconditioner fallback chain (SB-BIC(0) -> BIC(0) -> Manteuffel-shifted
  BIC(0) -> diagonal scaling) that resumes from the best iterate instead
  of restarting;
- :mod:`repro.resilience.checkpoint` — in-memory CG snapshots
  (:class:`CGCheckpointStore`) for rollback/resume inside
  :func:`~repro.parallel.distributed.parallel_cg`, and the durable
  :class:`AlmJournal` that lets a killed nonlinear run resume from disk
  (DESIGN.md section 10).

Faults are injected by the communicators themselves: both transports
have ``inject_kill`` and ``inject_worker_fault``
(:mod:`repro.parallel.comm`, :mod:`repro.parallel.transport`).

``taxonomy`` is imported eagerly (it is dependency-free and the solver /
preconditioner layers pull names from it); the other two are loaded
lazily via module ``__getattr__`` because they import the solver stack,
which itself imports ``taxonomy`` — eager imports here would cycle.
"""

from repro.resilience.taxonomy import (
    CommTimeout,
    FailureReason,
    PivotNudgeWarning,
    RankFailure,
    SolveEvent,
    SolveReport,
)

__all__ = [
    "CommTimeout",
    "FailureReason",
    "PivotNudgeWarning",
    "SolveEvent",
    "SolveReport",
    "ResilientSolver",
    "FallbackStage",
    "RankFailure",
    "CGCheckpoint",
    "CGCheckpointStore",
    "AlmJournal",
    "DEFAULT_CHECKPOINT_INTERVAL",
]

_LAZY = {
    "ResilientSolver": "repro.resilience.resilient",
    "FallbackStage": "repro.resilience.resilient",
    "CGCheckpoint": "repro.resilience.checkpoint",
    "CGCheckpointStore": "repro.resilience.checkpoint",
    "AlmJournal": "repro.resilience.checkpoint",
    "DEFAULT_CHECKPOINT_INTERVAL": "repro.resilience.checkpoint",
}


def __getattr__(name: str):
    mod = _LAZY.get(name)
    if mod is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(mod), name)
