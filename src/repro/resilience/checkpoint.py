"""Checkpoint/recovery subsystem (DESIGN.md section 10).

Two cooperating levels of protection for the paper's long solves:

- **In-memory CG checkpoints** (:class:`CGCheckpointStore`): every *k*
  iterations each rank of :func:`~repro.parallel.distributed.parallel_cg`
  snapshots its Krylov state ``(x, r, p, rho, iteration)`` — three
  vector copies, negligible next to a matvec.  On a detected
  communication fault or rank failure the solver rolls *every* rank back
  to the last snapshot all of them completed and resumes, instead of
  abandoning thousands of iterations.  In a real MPI run each rank's
  snapshot is replicated into a buddy rank's memory (diskless
  checkpointing), which is why a dead rank's slice survives its death;
  here the store lives outside the ranks (in shared memory on the
  process transport), which models the same thing.

- **Durable ALM journal** (:class:`AlmJournal`): the outer
  augmented-Lagrange loop's state ``(u, multipliers, penalty trail,
  SolveReport history)`` written through the versioned / checksummed /
  atomic container of :mod:`repro.io.journal`, so a killed *process*
  resumes mid-run and continues bit-for-bit on the same inputs.  An
  input fingerprint (SHA-256 over the system arrays and loop
  parameters) invalidates a journal that does not belong to the run
  being resumed — resuming someone else's checkpoint is an error, not
  an adventure.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.io.journal import JournalError, read_journal, write_journal
from repro.resilience.taxonomy import SolveReport

__all__ = [
    "DEFAULT_CHECKPOINT_INTERVAL",
    "CGCheckpoint",
    "CGCheckpointStore",
    "AlmJournal",
    "fingerprint_arrays",
]

DEFAULT_CHECKPOINT_INTERVAL = 25
"""Default CG snapshot spacing: frequent enough that a rollback loses at
most a few dozen iterations, sparse enough that the copy cost disappears
(gated <= 5% wall-clock overhead in the bench tier)."""


# ----------------------------------------------------------------------
# in-memory CG checkpoints
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CGCheckpoint:
    """The scalars of one committed snapshot of the distributed CG state.

    Taken at the top of an iteration, so the slot's ``(x, r, p)`` plus
    ``rz`` and the right-hand-side norm are exactly what is needed to
    re-enter the loop at ``iteration`` (the residual history up to there
    has ``iteration + 1`` entries)."""

    iteration: int
    rz: float
    bnorm: float
    slot: int


class CGCheckpointStore:
    """Rank-local, double-buffered snapshots of the distributed CG state.

    Every rank saves its own ``(x, r, p)`` — the SPMD form of a buddy
    replica: the slots are allocated through *alloc*, which a process
    transport points at shared memory, so a rank's snapshot outlives the
    rank.  A snapshot is **committed** once every rank has stamped its
    slot with the same iteration; a rank killed half-way through a save
    leaves a stamp that disagrees, and :attr:`latest` falls back to the
    other slot.  Two slots are enough because the ranks meet at a
    collective every iteration: nobody starts snapshot ``k + interval``
    before everybody finished snapshot ``k``.

    ``sizes`` holds each rank's internal DOF count; ``interval`` is the
    snapshot spacing in iterations, ``due(it)`` says whether the top of
    iteration *it* should snapshot.
    """

    def __init__(
        self,
        sizes: list[int],
        interval: int = DEFAULT_CHECKPOINT_INTERVAL,
        alloc=np.zeros,
    ) -> None:
        if interval <= 0:
            raise ValueError(f"checkpoint interval must be positive, got {interval}")
        self.interval = int(interval)
        self._vectors = [
            [tuple(alloc(n) for _ in "xrp") for n in sizes] for _ in range(2)
        ]
        # per slot, per rank: (iteration stamp, rz, bnorm); stamp -1 = torn/empty
        self._stamps = alloc(2 * len(sizes) * 3).reshape(2, len(sizes), 3)
        self._stamps[:, :, 0] = -1.0

    def due(self, iteration: int) -> bool:
        return iteration % self.interval == 0

    def save(self, rank: int, iteration: int, xrp, rz: float, bnorm: float) -> None:
        """Snapshot *rank*'s ``(x, r, p)`` at the top of *iteration*."""
        slot = (iteration // self.interval) % 2
        stamp = self._stamps[slot, rank]
        stamp[0] = -1.0  # torn until the vectors are in
        for dst, src in zip(self._vectors[slot][rank], xrp):
            dst[:] = src
        stamp[1:] = rz, bnorm
        stamp[0] = iteration

    @property
    def latest(self) -> CGCheckpoint | None:
        """The newest snapshot every rank completed, if any."""
        best = None
        for slot, stamps in enumerate(self._stamps):
            it = stamps[0, 0]
            if it >= 0 and (stamps[:, 0] == it).all():
                if best is None or it > best.iteration:
                    best = CGCheckpoint(int(it), stamps[0, 1], stamps[0, 2], slot)
        return best

    def restore(self, x, r, p) -> CGCheckpoint:
        """Copy the committed snapshot back into every rank's live vectors."""
        ck = self.latest
        if ck is None:
            raise RuntimeError("no checkpoint has been committed")
        for rank, saved in enumerate(self._vectors[ck.slot]):
            for dst, src in zip((x[rank], r[rank], p[rank]), saved):
                dst[:] = src
        return ck


# ----------------------------------------------------------------------
# durable ALM journal
# ----------------------------------------------------------------------


def fingerprint_arrays(*parts) -> str:
    """SHA-256 hex digest over arrays / scalars identifying a run's inputs."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            arr = np.ascontiguousarray(part)
            h.update(str(arr.dtype).encode())
            h.update(str(arr.shape).encode())
            h.update(arr.tobytes())
        else:
            h.update(repr(part).encode())
        h.update(b"|")
    return h.hexdigest()


class AlmJournal:
    """Durable outer-loop checkpoint for :func:`solve_nonlinear_contact`.

    One journal file per run; each :meth:`save` atomically replaces the
    previous cycle's state.  :meth:`load` returns ``None`` when no file
    exists (fresh run), the saved state dict when it matches this run's
    input *fingerprint*, and raises :class:`~repro.io.journal.JournalError`
    when the file is corrupt, truncated, of an unknown version, or
    belongs to different inputs — a wrong resume is never silent.
    """

    def __init__(self, path: str | Path, fingerprint: str) -> None:
        self.path = Path(path)
        self.fingerprint = fingerprint

    def save(
        self,
        *,
        cycle: int,
        u: np.ndarray,
        lam: np.ndarray,
        penalty: float,
        backoffs: int,
        cg_iterations: list[int],
        penalty_trail: list[float],
        gap_norm: float,
        converged: bool,
        report: SolveReport,
    ) -> None:
        write_journal(
            self.path,
            {
                "u": np.asarray(u, dtype=np.float64),
                "lam": np.asarray(lam, dtype=np.float64),
                "cg_iterations": np.asarray(cg_iterations, dtype=np.int64),
                "penalty_trail": np.asarray(penalty_trail, dtype=np.float64),
            },
            {
                "kind": "alm_checkpoint",
                "fingerprint": self.fingerprint,
                "cycle": int(cycle),
                "penalty": float(penalty),
                "backoffs": int(backoffs),
                "gap_norm": float(gap_norm),
                "converged": bool(converged),
                "report_json": report.to_json(),
            },
        )

    def load(self) -> dict | None:
        if not self.path.exists():
            return None
        arrays, meta = read_journal(self.path)
        if meta.get("kind") != "alm_checkpoint":
            raise JournalError(
                f"{self.path}: journal holds {meta.get('kind')!r}, "
                "not an ALM checkpoint"
            )
        if meta.get("fingerprint") != self.fingerprint:
            raise JournalError(
                f"{self.path}: checkpoint belongs to a different run "
                "(input fingerprint mismatch) — refusing to resume from it; "
                "delete the file or point checkpoint_path elsewhere"
            )
        return {
            "cycle": int(meta["cycle"]),
            "u": arrays["u"],
            "lam": arrays["lam"],
            "penalty": float(meta["penalty"]),
            "backoffs": int(meta["backoffs"]),
            "cg_iterations": [int(v) for v in arrays["cg_iterations"]],
            "penalty_trail": [float(v) for v in arrays["penalty_trail"]],
            "gap_norm": float(meta["gap_norm"]),
            "converged": bool(meta["converged"]),
            "report": SolveReport.from_json(meta["report_json"]),
        }
