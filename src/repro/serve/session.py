"""Persistent solver workspace: cached setup keyed by problem fingerprint.

Cost anatomy of one solve (bench default block model, SB-BIC(0)):
meshing + assembly + BC elimination dominate, then selective-blocking
analysis + IC symbolic pattern work, then the numeric factorization —
the CG iterations themselves are a minority of a cold solve.  All of the
above except the numeric phase is *value-independent*, so a service that
keeps it resident turns a repeat solve into: gather values into a cached
union pattern (:meth:`~repro.fem.model.ContactStructure.system`), run a
values-only ``refactor``, iterate.  A repeat solve at an *identical*
operator fingerprint skips even the refactor.

Three LRU caches, all bounded (capacity configurable, each counts its
own hits, misses and evictions):

- **structures** — ``(model, scale)`` -> :class:`ContactStructure`
  plus a content hash of its arrays (computed once per build);
- **symbolics** — ``(model, scale, precond)`` -> ``ICSymbolic`` so a
  factor-cache miss after eviction still skips all pattern work;
- **factors** — ``(model, scale, precond)`` -> ``(preconditioner,
  operator fingerprint)``; fingerprint match = pure hit (zero setups),
  mismatch = numeric ``refactor``.

:class:`SolverSession` adds request handling on top: it resolves RHS
specs, groups a batch by ``(fingerprint, precond, eps, max_iter)``,
dedups identical right-hand sides, and solves each group with one
:func:`~repro.solvers.cg.cg_solve` (single RHS) or one
:func:`~repro.solvers.block_cg.block_cg_solve` (multi-RHS).  Grouping is
deterministic (first-appearance order), which is what makes a journal
replay after a crash reproduce answers bit-for-bit.
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import OrderedDict
from typing import Any, Callable

import numpy as np

from repro import obs
from repro.fem.model import ContactStructure
from repro.policy import PolicyHistory, SolverPolicy
from repro.precond import FAMILY_TABLE
from repro.resilience.checkpoint import fingerprint_arrays
from repro.resilience.taxonomy import FailureReason
from repro.serve.protocol import ProtocolError, SolveRequest, SolveResponse
from repro.solvers import block_cg_solve, cg_solve
from repro.utils.lru import LRUCache

__all__ = ["SolverSession", "Workspace"]


def _structure_builders() -> dict[str, Callable[[float], ContactStructure]]:
    # Deferred import: experiments.workloads imports fem.model, and the
    # serve layer sits above both.
    from repro.experiments.workloads import block_structure, swjapan_structure

    return {"block": block_structure, "swjapan": swjapan_structure}


class Workspace:
    """The cached-setup store behind a :class:`SolverSession`.

    *capacity* bounds every tier (structures, symbolic patterns and
    factors) alike."""

    def __init__(self, capacity: int = 8) -> None:
        self.structures = LRUCache(capacity)
        self.symbolics = LRUCache(capacity)
        self.factors = LRUCache(capacity)
        # (fingerprint -> family -> measured cost) tally of every
        # policy-resolved solve: the census of what `auto` chose
        self.policy_history = PolicyHistory()

    # -- structure + operator --------------------------------------------

    def structure(self, model: str, scale: float) -> tuple[ContactStructure, str, str]:
        """Return ``(structure, content_hash, "hit"|"miss")``."""
        key = (model, scale)
        entry = self.structures.get(key)
        if entry is not None:
            return entry[0], entry[1], "hit"
        with obs.span("serve.build_structure", model=model, scale=scale):
            s = _structure_builders()[model](scale)
        content = fingerprint_arrays(
            "structure-v1", model, scale,
            s.pattern.indptr, s.pattern.indices, s.a0.data, s.a1.data, s.b,
        )
        self.structures.put(key, (s, content))
        return s, content, "miss"

    @staticmethod
    def operator_fingerprint(content_hash: str, penalty: float) -> str:
        """Identity of the materialized operator ``A(penalty)`` + load.

        Derived from the structure *content* hash (not its cache key), so
        it survives eviction/rebuild and process restarts."""
        return fingerprint_arrays("operator-v1", content_hash, penalty)

    # -- preconditioner --------------------------------------------------

    def preconditioner(self, model: str, scale: float, precond: str, a, groups,
                       fingerprint: str) -> tuple[Any, str, dict[str, int]]:
        """Return ``(m, event, setups)`` with event one of:

        - ``"hit"``      — cached factor, fingerprint matched: 0 setups;
        - ``"refactor"`` — cached factor, new values: numeric only;
        - ``"numeric"``  — no factor but cached symbolic: numeric only;
        - ``"build"``    — cold: symbolic + numeric.

        ``setups`` is the census of what *this call* did — symbolic and
        numeric phases read off the factor's own counters, plus the
        cache entries its inserts evicted — so concurrent groups never
        see each other's work in it.
        """
        family = FAMILY_TABLE[precond]
        key = (model, scale, precond)
        entry = self.factors.get(key)
        if entry is not None and entry[1] == fingerprint:
            return entry[0], "hit", {"symbolic": 0, "numeric": 0, "evictions": 0}
        symbolic_built = evicted = 0
        if entry is not None:
            m, event = entry[0], "refactor"
            # Diagonal scaling counts no setup phases
            numeric_before = getattr(m, "numeric_setup_count", 0)
            with obs.span("serve.refactor", precond=precond):
                m.refactor(a)
        else:
            symbolic = self.symbolics.get(key) if family.has_symbolic else None
            event = "numeric" if symbolic is not None else "build"
            numeric_before = 0
            with obs.span("serve.build_preconditioner", precond=precond, mode=event):
                m = family.build(a, groups, symbolic=symbolic)
            if family.has_symbolic and symbolic is None:
                symbolic_built = 1
                evicted = self.symbolics.put(key, m.symbolic)
        evicted += self.factors.put(key, (m, fingerprint))
        return m, event, {
            "symbolic": symbolic_built,
            "numeric": getattr(m, "numeric_setup_count", 0) - numeric_before,
            "evictions": evicted,
        }

    def stats(self) -> dict[str, dict[str, int]]:
        return {
            "structures": self.structures.stats(),
            "symbolics": self.symbolics.stats(),
            "factors": self.factors.stats(),
        }


def _rhs_array(req: SolveRequest, s: ContactStructure) -> np.ndarray:
    if isinstance(req.rhs, str):  # "model"
        return s.b
    if isinstance(req.rhs, dict):  # {"seed": k}
        return np.random.default_rng(req.rhs["seed"]).standard_normal(s.ndof)
    arr = np.asarray(req.rhs, dtype=np.float64)
    if arr.shape != (s.ndof,):
        raise ProtocolError(
            f"explicit rhs has length {arr.shape[0]}, model has {s.ndof} DOF"
        )
    return arr


def _sha256(x: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(x).tobytes()).hexdigest()


class SolverSession:
    """A long-lived solving context: the workspace caches and the policy.

    ``solve_batch`` is the coalescing entry point the queue uses; a
    single ``solve`` is just a batch of one.  A batch runs in three
    phases — :meth:`prepare_batch`, :meth:`group_batch`, one solve per
    group.  The worker pool (:mod:`repro.serve.pool`) runs the first two
    here and ships each group to a forked child whose own session runs
    the exact serial solve path (which is what keeps pooled answers
    bit-identical to a serial run); each group's outcome comes back
    through :meth:`record_group_outcome`.

    Concurrency contract: every workspace tier is individually
    thread-safe, and the session serializes on two keyed locks

    - a *structure* lock per ``(model, scale)`` — held while
      :meth:`~repro.fem.model.ContactStructure.system` writes values into
      the shared union-pattern CSR, and while the ``auto`` probe reads
      them (connection threads run :meth:`prepare_batch` concurrently);
      a group solve reads them after, so whole batches stay
      single-consumer (:class:`~repro.serve.queue.JobQueue` serializes
      them when no pool is attached);
    - a *factor* lock per ``(model, scale, precond)`` — held for the
      whole group solve, because the cached factorization object is
      ``refactor``-ed **in place** on a penalty change and must not be
      re-valued while another group is applying it.
    """

    def __init__(self, capacity: int = 8) -> None:
        self.workspace = Workspace(capacity)
        # resolves precond="auto" requests through the solver policy and
        # tallies their outcomes in the workspace
        self.policy = SolverPolicy(history=self.workspace.policy_history)
        self.jobs_served = 0
        self._stats_lock = threading.Lock()
        self._key_locks: dict[tuple, threading.RLock] = {}
        self._key_locks_guard = threading.Lock()

    def _lock_for(self, key: tuple) -> threading.RLock:
        with self._key_locks_guard:
            lk = self._key_locks.get(key)
            if lk is None:
                lk = self._key_locks[key] = threading.RLock()
            return lk

    def solve(self, request: SolveRequest) -> SolveResponse:
        return self.solve_batch([request])[0]

    def solve_batch(self, requests: list[SolveRequest]) -> list[SolveResponse]:
        """Solve a batch, coalescing same-operator requests.

        Requests sharing a solve key (operator fingerprint +
        preconditioner + stopping criteria) become one multi-RHS solve;
        exact-duplicate right-hand sides within a group are solved once
        and fan the answer back out.  Responses come back in request
        order.  A failed group fails only its own jobs.
        """
        prepared, responses = self.prepare_batch(requests)
        groups = self.group_batch(prepared)
        for key, idxs in groups.items():
            fp, precond, eps, max_iter = key[:4]
            self._solve_group(fp, precond, eps, max_iter, idxs, prepared, responses)
        self.count_served(responses)
        return [r for r in responses if r is not None]

    # -- batch phases ------------------------------------------------------

    def prepare_batch(
        self, requests: list[SolveRequest]
    ) -> tuple[list[dict[str, Any] | None], list[SolveResponse | None]]:
        """Resolve structure + rhs + operator fingerprint per request.

        Returns ``(prepared, responses)`` aligned with *requests*; a
        request that fails preparation gets its structured error response
        immediately and a None ``prepared`` slot.
        """
        responses: list[SolveResponse | None] = [None] * len(requests)
        prepared: list[dict[str, Any] | None] = [None] * len(requests)
        for i, req in enumerate(requests):
            job_id = req.job_id if req.job_id is not None else f"job-{i}"
            try:
                with self._lock_for(("structure", req.model, req.scale)):
                    s, content, s_event = self.workspace.structure(req.model, req.scale)
                fp = self.workspace.operator_fingerprint(content, req.penalty)
                rhs = _rhs_array(req, s)
                precond, decision = req.precond, None
                if precond == "auto":
                    # Resolve to a concrete family now so grouping (and
                    # the factor cache) see real preconditioner names.
                    # The probe reads the materialized operator, so it
                    # runs under the structure lock like any other
                    # ``system`` access.  The decision depends on the
                    # operator only, so a journal replay decides the same.
                    with self._lock_for(("structure", req.model, req.scale)):
                        a = s.system(req.penalty)
                        decision = self.policy.decide(a, s.groups)
                    precond = decision.order[0]
            except Exception as exc:  # malformed request must not kill the batch
                reason = (
                    FailureReason.POISONED_PAYLOAD.value
                    if isinstance(exc, ProtocolError) else None
                )
                responses[i] = SolveResponse(
                    job_id=job_id, ok=False, error=str(exc), reason=reason
                )
                continue
            prepared[i] = {
                "req": req, "job_id": job_id, "s": s, "fp": fp,
                "rhs": rhs, "s_event": s_event,
                "precond": precond, "decision": decision,
            }
        return prepared, responses

    @staticmethod
    def group_batch(
        prepared: list[dict[str, Any] | None]
    ) -> "OrderedDict[tuple, list[int]]":
        """Group prepared requests by solve key, highest priority first.

        Base order is first appearance (the determinism contract journal
        replay relies on); a stable sort by descending group priority
        (the max over the group's requests) reorders *whole groups* so an
        urgent request is dispatched first under load without perturbing
        the order of equal-priority work.  A chaos-carrying request gets
        a private group so its injected fault cannot take healthy
        requests down with it.
        """
        groups: OrderedDict[tuple, list[int]] = OrderedDict()
        for i, p in enumerate(prepared):
            if p is None:
                continue
            req: SolveRequest = p["req"]
            key = (p["fp"], p["precond"], req.eps, req.max_iter)
            if req.chaos is not None:
                key += (("chaos", p["job_id"]),)
            groups.setdefault(key, []).append(i)
        if any(prepared[idxs[0]]["req"].priority for idxs in groups.values()):
            groups = OrderedDict(sorted(
                groups.items(),
                key=lambda kv: -max(prepared[i]["req"].priority for i in kv[1]),
            ))
        return groups

    def count_served(self, responses: list[SolveResponse | None]) -> None:
        with self._stats_lock:
            self.jobs_served += sum(
                1 for r in responses if r is not None and r.ok
            )

    # -- one coalesced group ---------------------------------------------

    def _solve_group(self, fp: str, precond: str, eps: float, max_iter: int | None,
                     idxs: list[int], prepared: list, responses: list) -> None:
        first = prepared[idxs[0]]
        req0: SolveRequest = first["req"]
        s: ContactStructure = first["s"]
        t0 = time.perf_counter()
        try:
            with self._lock_for(("factor", req0.model, req0.scale, precond)):
                with self._lock_for(("structure", req0.model, req0.scale)):
                    a = s.system(req0.penalty)
                m, f_event, setups = self.workspace.preconditioner(
                    req0.model, req0.scale, precond, a, s.groups, fp
                )
                return self._solve_group_body(
                    fp, precond, eps, max_iter, idxs, prepared, responses,
                    s, a, m, f_event, setups, t0,
                )
        except Exception as exc:
            err = f"{type(exc).__name__}: {exc}"
            for i in idxs:
                responses[i] = SolveResponse(
                    job_id=prepared[i]["job_id"], ok=False, fingerprint=fp, error=err
                )
            return

    def _solve_group_body(self, fp, precond, eps, max_iter, idxs, prepared,
                          responses, s, a, m, f_event, setups, t0) -> None:
        first = prepared[idxs[0]]
        try:
            # Dedup exact-duplicate RHS: solve unique columns only.
            col_of: dict[str, int] = {}
            cols: list[np.ndarray] = []
            job_col: list[int] = []
            for i in idxs:
                digest = _sha256(prepared[i]["rhs"])
                if digest not in col_of:
                    col_of[digest] = len(cols)
                    cols.append(prepared[i]["rhs"])
                job_col.append(col_of[digest])

            if len(cols) == 1:
                res = cg_solve(a, cols[0], m, eps=eps, max_iter=max_iter,
                               record_history=False)
                xs = [res.x]
                iters = [res.iterations]
                relres = [res.relative_residual]
                conv = [res.converged]
                total_iters = res.iterations
            else:
                bres = block_cg_solve(a, np.column_stack(cols), m, eps=eps,
                                      max_iter=max_iter, record_history=False)
                xs = [bres.x[:, j] for j in range(len(cols))]
                # a column that never converged ran every block iteration
                iters = [k if k >= 0 else bres.iterations
                         for k in bres.column_iterations]
                relres = list(bres.relative_residuals)
                conv = list(bres.converged_columns)
                total_iters = bres.iterations
        except Exception as exc:
            err = f"{type(exc).__name__}: {exc}"
            for i in idxs:
                responses[i] = SolveResponse(
                    job_id=prepared[i]["job_id"], ok=False, fingerprint=fp, error=err
                )
            return

        wall = time.perf_counter() - t0
        cache = {"structure": first["s_event"], "factor": f_event}
        ncoal = len(idxs)

        for i, col in zip(idxs, job_col):
            p = prepared[i]
            x = xs[col]
            responses[i] = SolveResponse(
                job_id=p["job_id"],
                ok=True,
                converged=bool(conv[col]),
                iterations=int(iters[col]),
                relative_residual=float(relres[col]),
                ndof=s.ndof,
                fingerprint=fp,
                coalesced=ncoal,
                wall_seconds=wall,
                cache=dict(cache),
                setups=dict(setups),
                x_sha256=_sha256(x),
                x=x,
                return_x=p["req"].return_x,
            )
            obs.record_span(
                "serve.job", wall,
                job_id=p["job_id"], fingerprint=fp, model=p["req"].model,
                penalty=p["req"].penalty, precond=precond, ndof=s.ndof,
                coalesced=ncoal, iterations=int(iters[col]),
                total_iterations=total_iters, converged=bool(conv[col]),
                structure=cache["structure"], factor=cache["factor"],
                symbolic_setups=setups.get("symbolic", 0),
                numeric_setups=setups.get("numeric", 0),
            )
        self.record_group_outcome(
            first.get("decision"), precond, [responses[i] for i in idxs]
        )

    def record_group_outcome(self, decision, precond: str,
                             responses: list[SolveResponse]) -> None:
        """Fold one coalesced group's outcome into the policy's tally.

        One outcome per group — the policy chose once, the group paid
        once — read off the group's responses: its wall seconds, whether
        every column converged, and the most iterations a column ran.
        A group a pool worker solved is recorded by the session that
        decided it, exactly as one solved here.  A request that named
        its family (no *decision*) or a failed group records nothing."""
        if decision is None or not all(r.ok for r in responses):
            return
        self.policy.record_outcome(
            decision, precond,
            seconds=responses[0].wall_seconds,
            converged=all(r.converged for r in responses),
            iterations=max(r.iterations for r in responses),
        )

    def stats(self) -> dict[str, Any]:
        return {
            "jobs_served": self.jobs_served,
            "caches": self.workspace.stats(),
            "policy": {"history_classes": len(self.workspace.policy_history)},
        }
