"""serve_mixed: the solver service under a realistic request mix.

In-process ``serve_stdio`` over a journaled ``JobQueue`` with an
``AdmissionController`` and a ``SolverSession(capacity=3)``.  Problems
are small, so protocol, admission, journal and Python dispatch are a
visible share.  One repetition is one *round* of 24 batches / 45
requests: single-RHS cache hits on two hot structures, eight-RHS bursts
(coalesced block CG), new-penalty requests (refactor = factor-cache
write), ``precond: "auto"`` requests (policy probe + decide) and
structure misses (assembly + LRU eviction + a numeric factorization; the
symbolic tier is consulted only on factor misses, so its three slots end
up holding the rare keys and the symbolic phase is a hit).  Reads sit beside
writes on the same caches and journal, so a hit-path gain that slows
misses shows in p50 against p90.

Closed loop, one client: the next batch is sent when the previous one
has been answered.  A batch's latency runs from its first request line
to the return of its flush.
"""

from __future__ import annotations

import json
import shutil
import statistics
import tempfile
import time
from pathlib import Path

import numpy as np

from bench.harness import percentile
from bench.workloads.base import BaseWorkload, SpanView
from bench.workloads.common import (
    HostState,
    kernel_probes,
    seeded_penalty,
)

HOT_A = ("block", 0.8)
HOT_B = ("swjapan", 1.0)
MISSES = (("block", 0.6), ("swjapan", 0.7))
KINDS = ("hit", "burst8", "newlam", "auto", "miss")
SEGMENTS = 4
HITS_A, HITS_B = 9, 5
BURST = 8
RHS_POOL = 3
"""Single-RHS hits draw their right-hand side from this many seeds per
structure, so identical requests recur and their digests can be compared."""


def _request(target, penalty, rhs_seed, precond="sbbic0") -> dict:
    model, scale = target
    return {"model": model, "scale": scale, "penalty": penalty,
            "precond": precond, "rhs": {"seed": int(rhs_seed)}}


def build_round(seed: int, round_index: int) -> list[tuple[str, list[dict]]]:
    """One round's batches, ``(kind, requests)`` in sending order.

    The round has four segments.  Each opens with one *rare* batch (a
    structure miss or an ``auto`` request, which is what adds a key to
    the three-slot caches) followed by a seeded shuffle of common
    batches that always include a hit on each hot structure - so the
    entry a rare request evicts is the previous rare one, never a hot
    one, whatever the seed.
    """
    base = np.random.default_rng([seed, 1])
    penalty = {HOT_A: seeded_penalty(6, base), HOT_B: seeded_penalty(6, base)}
    pool = {t: base.integers(1, 2**31, RHS_POOL) for t in (HOT_A, HOT_B)}
    rng = np.random.default_rng([seed, 2, round_index])

    def hit(target):
        return ("hit", [_request(target, penalty[target], rng.choice(pool[target]))])

    def burst(target):
        first = int(rng.integers(1, 2**31 - BURST))
        return ("burst8", [_request(target, penalty[target], first + j) for j in range(BURST)])

    def newlam(target):
        return ("newlam", [_request(target, seeded_penalty(6, rng), rng.choice(pool[target]))])

    rare = [
        ("miss", [_request(MISSES[0], penalty[HOT_A], rng.integers(1, 2**31))]),
        ("auto", [_request(HOT_B, seeded_penalty(6, rng), rng.integers(1, 2**31), "auto")]),
        ("miss", [_request(MISSES[1], penalty[HOT_B], rng.integers(1, 2**31))]),
        ("auto", [_request(HOT_B, seeded_penalty(6, rng), rng.integers(1, 2**31), "auto")]),
    ]
    others = [burst(HOT_A), burst(HOT_A), burst(HOT_B),
              newlam(HOT_A), newlam(HOT_A), newlam(HOT_B)]
    rng.shuffle(others)
    segments: list[list] = [[] for _ in range(SEGMENTS)]
    for i in range(HITS_A):
        segments[i % SEGMENTS].append(hit(HOT_A))
    for i in range(HITS_B):
        segments[i % SEGMENTS].append(hit(HOT_B))
    for i, batch in enumerate(others):
        segments[i % SEGMENTS].append(batch)
    batches = []
    for opener, segment in zip(rare, segments):
        rng.shuffle(segment)
        batches.append(opener)
        batches.extend(segment)
    return batches


class _Sink:
    """Collects the server's response lines (parsed after the clock stops)."""

    def __init__(self) -> None:
        self.lines: list[str] = []

    def write(self, text: str) -> None:
        self.lines.append(text)

    def flush(self) -> None:
        pass


class ServeMixed(BaseWorkload):
    name = "serve_mixed"
    warmups = 1
    min_reps = 5

    def setup(self) -> None:
        from repro.serve import (
            AdmissionController,
            AdmissionPolicy,
            JobQueue,
            SolverSession,
            serve_stdio,
        )

        self.serve_stdio = serve_stdio
        out_dir = Path(__file__).resolve().parent.parent / "out"
        out_dir.mkdir(exist_ok=True)
        self.journal_dir = tempfile.mkdtemp(prefix="journal_", dir=out_dir)
        self.session = SolverSession(capacity=3)
        self.admission = AdmissionController(AdmissionPolicy())
        self.queue = JobQueue(self.session, journal_dir=self.journal_dir,
                              admission=self.admission)
        self.digests: dict[str, str] = {}

    def close(self) -> None:
        shutil.rmtree(self.journal_dir, ignore_errors=True)

    def repetition(self, index: int):
        # index -1/-2... never collides: rounds are numbered from the warm-up on
        batches = build_round(self.seed, index + self.warmups)
        latencies: list[float] = []

        def lines():
            for _kind, requests in batches:
                t0 = time.perf_counter()
                for request in requests:
                    yield json.dumps(request) + "\n"
                yield "\n"  # flush boundary: control returns here once answered
                latencies.append(time.perf_counter() - t0)

        sink = _Sink()
        answered = self.serve_stdio(self.queue, lines(), sink)
        return batches, latencies, sink.lines, answered

    def verify(self, payload) -> dict:
        batches, latencies, lines, answered = payload
        responses = [json.loads(line) for line in lines]
        attempted = sum(len(requests) for _kind, requests in batches)
        failed = abs(attempted - len(responses))
        iterations = coalesced_groups = position = 0
        for _kind, requests in batches:
            answers = responses[position:position + len(requests)]
            position += len(requests)
            for request, answer in zip(requests, answers):
                ok = bool(answer.get("ok") and answer.get("converged"))
                if ok and request["precond"] != "auto" and answer["coalesced"] == 1:
                    # identical single requests must give bit-identical answers
                    key = json.dumps(request, sort_keys=True)
                    ok = self.digests.setdefault(key, answer["x_sha256"]) == answer["x_sha256"]
                failed += not ok
            counts = [a.get("iterations", 0) for a in answers]
            if any(a.get("coalesced", 1) > 1 for a in answers):
                coalesced_groups += 1
                iterations += max(counts)  # one block solve: its longest column
            else:
                iterations += sum(counts)
        return {
            "iterations": int(iterations),
            "attempted": attempted,
            "failed": int(failed),
            # answers carry a digest, not the vector: no true residual here
            "true_relres": 0.0,
            "residual_gap": 0.0,
            "latencies": [(kind, s) for (kind, _), s in zip(batches, latencies)],
            "answered": answered,
            "coalesced_groups": coalesced_groups,
        }

    def instrument(self) -> None:
        from repro.experiments import workloads as models
        from repro.fem.model import ContactStructure
        from repro.policy import SolverPolicy
        from repro.precond import icfact
        from repro.serve import queue as queue_module
        from repro.serve import session as session_module
        from repro.serve.protocol import SolveRequest, SolveResponse
        from repro.serve.queue import JobQueue

        t = self.tracer
        t.instrument(SolveRequest, "from_dict", "serve.protocol_decode")
        t.instrument(SolveResponse, "to_json_line", "serve.response_encode")
        t.instrument(JobQueue, "submit", "serve.submit")
        t.instrument(JobQueue, "process", "serve.process")
        t.instrument(queue_module, "write_journal", "io.journal_write")
        t.instrument(session_module, "cg_solve", "solvers.solve")
        t.instrument(session_module, "block_cg_solve", "solvers.block_solve")
        t.instrument(models, "block_structure", "fem.structure")
        t.instrument(models, "swjapan_structure", "fem.structure")
        t.instrument(ContactStructure, "system", "fem.system_affine")
        t.instrument(icfact.ICSymbolic, "__init__", "precond.symbolic")
        t.instrument(icfact.BlockICFactorization, "refactor", "precond.numeric")
        t.instrument(SolverPolicy, "decide", "policy.decide")
        t.instrument(SolverPolicy, "probe", "policy.probe")

    def layer_metrics(self, spans: SpanView, host: HostState) -> dict[str, float]:
        from repro import sb_bic0
        from repro.serve.protocol import SolveRequest

        by_kind: dict[str, list[float]] = {kind: [] for kind in KINDS}
        for rep in spans.reps:
            for kind, seconds in rep.outcome["latencies"]:
                by_kind[kind].append(seconds * rep.factor)
        every = [s for values in by_kind.values() for s in values]
        try:
            p90 = percentile(every, 90)
        except ValueError:
            p90 = 0.0  # too few batches in this run to state a p90
        requests_per_round = spans.reps[-1].outcome["attempted"]
        batches_per_round = len(spans.reps[-1].outcome["latencies"])
        round_s = statistics.median(rep.norm_s for rep in spans.reps)
        solver_s = spans.total_s("solvers.solve") + spans.total_s("solvers.block_solve")
        latency_sum = statistics.median(
            sum(s for _k, s in rep.outcome["latencies"]) * rep.factor for rep in spans.traced
        ) if spans.traced else 0.0

        def per(name: str, divisor: float) -> float:
            return spans.total_s(name) / divisor if divisor else 0.0

        caches = self.session.stats()["caches"]
        admission = self.admission.stats()
        chosen = {"sbbic0": 0, "bic0": 0, "diag": 0}
        outcomes = self.session.workspace.policy_history.to_dict()["outcomes"]
        for by_family in outcomes.values():
            for family, stats in by_family.items():
                chosen[family] = chosen.get(family, 0) + stats["runs"]
        line = json.dumps(build_round(self.seed, 0)[0][1][0])
        structure, _hash, _event = self.session.workspace.structure(*HOT_A)
        a = structure.system(1e6)
        out = kernel_probes(a, sb_bic0(a, structure.groups), host)
        out.update({
            "serve.requests_per_s": requests_per_round / round_s,
            "serve.request_latency_p50_s": statistics.median(every),
            "serve.request_latency_p90_s": p90,
            "serve.protocol_decode_s_per_req": host.per_call(
                lambda: SolveRequest.from_dict(json.loads(line))
            ),
            "serve.response_encode_s_per_req": per("serve.response_encode", requests_per_round),
            "serve.submit_s_per_req": per("serve.submit", requests_per_round),
            "serve.process_s_per_batch": per("serve.process", batches_per_round),
            "io.journal_write_s_per_job": per(
                "io.journal_write", spans.count("io.journal_write")),
            "serve.overhead_frac": 1.0 - solver_s / latency_sum if latency_sum else 0.0,
            "serve.evictions": float(sum(c["evictions"] for c in caches.values())),
            "serve.coalesced_groups": float(spans.reps[-1].outcome["coalesced_groups"]),
            "serve.rejected": float(sum(admission["rejected"].values())),
            "fem.structure_s": spans.self_s("fem.structure"),
            "fem.system_affine_s_per_call": per(
                "fem.system_affine", spans.count("fem.system_affine")),
            "fem.ndof": float(structure.ndof),
            "fem.nnz": float(a.nnz),
            "fem.contact_groups": float(len(structure.groups)),
            "precond.symbolic_s": spans.self_s("precond.symbolic"),
            "precond.symbolic_count": spans.count("precond.symbolic"),
            "precond.numeric_s": spans.self_s("precond.numeric"),
            "precond.numeric_count": spans.count("precond.numeric"),
            "solvers.solve_s": solver_s,
            "solvers.block_cg_s_per_rhs": per(
                "solvers.block_solve", BURST * spans.count("solvers.block_solve")),
            "policy.probe_s_per_req": per("policy.probe", spans.count("policy.probe")),
            "policy.decide_s_per_req": per("policy.decide", spans.count("policy.decide")),
        })
        for family in ("sbbic0", "bic0", "diag"):
            out[f"policy.family_chosen.{family}"] = float(chosen[family])
        for kind, values in by_kind.items():
            out[f"serve.{kind}_latency_s"] = statistics.median(values) if values else 0.0
        for tier, c in caches.items():
            lookups = c["hits"] + c["misses"]
            out[f"serve.cache_hit_ratio.{tier}"] = c["hits"] / lookups if lookups else 0.0
        return out
