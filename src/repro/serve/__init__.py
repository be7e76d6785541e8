"""Solver-as-a-service: persistent workspace + coalescing job queue.

The paper's production setting re-solves near-identical systems over and
over — nonlinear penalty sweeps, per-timestep operators, parameter
studies.  This package keeps the expensive penalty-independent work
(meshing, assembly, BC elimination, selective-blocking analysis, IC
symbolic factorization, kernel warm-up) resident in a
:class:`~repro.serve.session.Workspace` keyed by problem fingerprint, so
a warm request is a values-only gather + numeric refactor + CG solve.
Concurrent requests that share an operator fingerprint coalesce into one
multi-RHS block-CG solve (:mod:`repro.solvers.block_cg`), and every job
is journaled durably before it runs so a killed server resumes and
returns bit-identical answers.

The hardened concurrency layer rides on top: an
:class:`~repro.serve.admission.AdmissionController` bounds queue depth
and payload size and enforces per-request deadlines (structured
``overloaded`` / ``request_timeout`` / ``poisoned_payload`` refusals,
never exceptions), and a :class:`~repro.serve.pool.WorkerPool` fans
independent fingerprint groups out to forked worker processes — crash
isolated and kill-able at a deadline — while quarantining requests that
crash or wedge a worker.  ``scripts/chaos_serve.py``
drives the whole stack under injected faults.

Entry points: ``repro serve`` (JSONL over stdio or a unix socket),
``repro batch`` (one-shot file mode), and the library-level
:class:`~repro.serve.session.SolverSession` /
:class:`~repro.serve.queue.JobQueue`.
"""

from repro.serve.admission import (
    AdmissionController,
    AdmissionPolicy,
    QuarantineRecord,
    rejection_response,
)
from repro.serve.pool import WorkerPool
from repro.serve.protocol import ProtocolError, SolveRequest, SolveResponse
from repro.serve.queue import Job, JobQueue, RetentionPolicy
from repro.serve.server import run_batch, serve_socket, serve_stdio
from repro.serve.session import SolverSession, Workspace
from repro.utils.lru import LRUCache

__all__ = [
    "AdmissionController",
    "AdmissionPolicy",
    "ProtocolError",
    "QuarantineRecord",
    "SolveRequest",
    "SolveResponse",
    "Job",
    "JobQueue",
    "LRUCache",
    "RetentionPolicy",
    "SolverSession",
    "WorkerPool",
    "Workspace",
    "rejection_response",
    "run_batch",
    "serve_socket",
    "serve_stdio",
]
