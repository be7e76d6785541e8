"""Acceptance gates for the policy layer: a mixed sweep and a regret grid.

The sweep is generators x penalties (block contact model, southwest
Japan fault model, homogeneous box — the last has no contact groups, so
its best preconditioner is structurally different from the contact
cases').  Every case is solved through four *fixed* escalation ladders
(the paper's default order plus one ladder forced to lead with each
family), then through the policy (decide() time included).

Gates:

- policy <= 1.0x the best *fixed* ladder's total,
- policy strictly < the *default* static ladder's total,
- per-case fixed winners differ across the sweep — otherwise the gates
  above are vacuous.  The box wastes two block factorizations under the
  paper's SB-BIC-first default order, which is the existence proof for
  choosing the ladder per problem instead of statically,
- regret (``test_first_family_near_the_fastest``): on block and swjapan
  1.0 at lambda = 1, 1e2 and 1e8, with and without contact groups, the
  policy's first family, timed as cold set-up plus solve (best of 7,
  families interleaved), is within 1.25x of the fastest family the
  problem admits.  Timings assume one BLAS thread (CI sets
  ``OMP_NUM_THREADS=1``): on 2 cores an OpenBLAS pool competes with the
  solve team's partner process.  The cost
  model the policy used to rank by failed it on swjapan at 1e2 with
  groups (bic0) and on block at 1e8 without (diag).
"""

from __future__ import annotations

import time

import pytest

from repro import cg_solve
from repro.experiments.workloads import (
    block_problem,
    homogeneous_box_problem,
    swjapan_problem,
)
from repro.policy import SolverPolicy
from repro.precond import FAMILY_TABLE, ladder_families
from repro.resilience.resilient import ResilientSolver, build_ladder

SCALE = 0.4
N_BOX = 8
PENALTIES = (1.0e4, 1.0e6, 1.0e8)
FIXED_ARMS = ("default", "sbbic0", "bic0", "diag")


def build_cases() -> dict[str, object]:
    generators = {
        "block": lambda pen: block_problem(SCALE, pen),
        "swjapan": lambda pen: swjapan_problem(SCALE, pen),
        # the box ignores the penalty (no contact groups) — it is the
        # sweep's "your default ladder is wrong here" generator
        "box": lambda pen: homogeneous_box_problem(N_BOX, pen),
    }
    return {
        f"{gen}@{pen:g}": make(pen)
        for gen, make in generators.items()
        for pen in PENALTIES
    }


def forced_order(default: tuple[str, ...], first: str) -> tuple[str, ...]:
    """The default family order with *first* promoted to the front."""
    if first not in default:  # the "default" arm, or a family this case cannot build
        return default
    return (first, *[f for f in default if f != first])


def default_order(prob) -> tuple[str, ...]:
    """The paper's robustness order for *prob* (the family table's)."""
    n_groups = len(prob.groups) if prob.groups else 0
    return ladder_families(n_groups, prob.a.shape[0] % 3 == 0)


def timed_solve(prob, ladder):
    """Wall time of ``ladder()`` (build the stages) + resilient solve,
    and the result."""
    t0 = time.perf_counter()
    stages = ladder()
    res = ResilientSolver(prob.a, stages).solve(prob.b)
    return time.perf_counter() - t0, res


@pytest.fixture(scope="module")
def sweep():
    """Run the sweep once: per-arm totals and per-case wall times."""
    cases = build_cases()
    totals = {arm: 0.0 for arm in (*FIXED_ARMS, "policy")}
    wall_s: dict[str, dict[str, float]] = {name: {} for name in cases}

    def book(arm, name, wall, res):
        assert res.converged, f"{name} arm {arm} did not converge"
        totals[arm] += wall
        wall_s[name][arm] = wall

    for arm in FIXED_ARMS:
        for name, prob in cases.items():
            order = forced_order(default_order(prob), arm)
            book(arm, name, *timed_solve(
                prob, lambda: build_ladder(prob.a, prob.groups, order)))

    # the policy over the same traffic: decide() time included
    policy = SolverPolicy()
    for name, prob in cases.items():
        book("policy", name, *timed_solve(
            prob, lambda: policy.ladder(prob.a, prob.groups)[0]))

    print()
    for arm, total in totals.items():
        print(f"{arm:<9} total {total * 1e3:8.1f} ms")
    return totals, wall_s


def test_policy_beats_best_fixed_ladder(sweep):
    totals, _ = sweep
    best_fixed = min(totals[arm] for arm in FIXED_ARMS)
    assert totals["policy"] <= best_fixed, (
        f"policy pass {totals['policy'] * 1e3:.0f} ms vs best fixed "
        f"{best_fixed * 1e3:.0f} ms"
    )


def test_policy_strictly_beats_default_ladder(sweep):
    totals, _ = sweep
    assert totals["policy"] < totals["default"], (
        f"policy pass {totals['policy'] * 1e3:.0f} ms not below the "
        f"default static ladder's {totals['default'] * 1e3:.0f} ms"
    )


def test_sweep_winners_actually_differ(sweep):
    _, wall_s = sweep
    assert len(wall_s) == 9  # 3 generators x 3 penalties
    winners = {
        min(FIXED_ARMS, key=lambda arm: row[arm]) for row in wall_s.values()
    }
    assert len(winners) >= 2, f"single fixed winner {winners} across the sweep"


REGRET_ROWS = [
    (model, penalty, grouped)
    for model in ("block", "swjapan")
    for penalty in (1.0, 1.0e2, 1.0e8)
    for grouped in (True, False)
]
MAKERS = {"block": block_problem, "swjapan": swjapan_problem}


def cold_seconds(prob, groups, family: str) -> float:
    """One cold set-up plus solve of *family*."""
    t0 = time.perf_counter()
    m = FAMILY_TABLE[family].build(prob.a, groups)
    res = cg_solve(prob.a, prob.b, m, record_history=False)
    seconds = time.perf_counter() - t0
    assert res.converged, family
    return seconds


@pytest.mark.parametrize(
    "model,penalty,grouped", REGRET_ROWS,
    ids=[f"{m}-{p:g}-{'groups' if g else 'nogroups'}" for m, p, g in REGRET_ROWS])
def test_first_family_near_the_fastest(model, penalty, grouped):
    prob = MAKERS[model](1.0, penalty)
    groups = prob.groups if grouped else None
    first = SolverPolicy().decide(prob.a, groups).order[0]
    admitted = ladder_families(len(groups) if groups else 0, prob.a.shape[0] % 3 == 0)
    # best of 7, the families interleaved so a slow spell of the host
    # falls on all of them: block at 1e2 without groups is near a tie
    # (Diagonal 1.1-1.2x faster than BIC(0) with the solve team), and best
    # of 3 read it 1.26-1.48x in 2 of 5 runs on a 2-core host
    seconds = dict.fromkeys(admitted, float("inf"))
    for _ in range(7):
        for family in admitted:
            seconds[family] = min(seconds[family], cold_seconds(prob, groups, family))
    print(f"\n{model} 1.0 lambda={penalty:g} groups={grouped}: first {first}, "
          + ", ".join(f"{f} {s * 1e3:.0f} ms" for f, s in seconds.items()))
    assert seconds[first] <= 1.25 * min(seconds.values()), (first, seconds)
