"""Acceptance gates for the policy layer on a mixed sweep.

The sweep is generators x penalties (block contact model, southwest
Japan fault model, homogeneous box — the last has no contact groups, so
its best preconditioner is structurally different from the contact
cases').  Every case is solved through four *fixed* escalation ladders
(the paper's default order plus one ladder forced to lead with each
family), then twice through the cost-model policy:

- **cold** — a fresh policy: every decision pays its probe (what the
  first request of a served operator gets);
- **warm** — the same policy object over the same traffic: probes are
  cached (the serve session's steady state for repeat traffic).

Gates:

- warm <= 1.0x the best *fixed* ladder's total,
- warm strictly < the *default* static ladder's total,
- warm <= cold (cached probes never slower),
- per-case fixed winners differ across the sweep — otherwise the gates
  above are vacuous.  The box wastes two block factorizations under the
  paper's SB-BIC-first default order, which is the existence proof for
  choosing the ladder per problem instead of statically,
- per family, the cost model's set-up / iteration ratio is within 3x of
  this host's (``test_setup_to_iteration_ratio_matches_host``): the one
  number the ranking of a cheap-set-up family against an expensive one
  depends on, checked where a wall clock belongs.
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
from repro.policy import (
    PolicyDecision,
    SolverPolicy,
    candidate_costs,
    probe_problem,
)
from repro.precond import FAMILY_TABLE
from repro.resilience.resilient import ResilientSolver

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


def timed_ladder_solve(policy: SolverPolicy, name: str, prob, decision=None):
    """Wall time of (decide +) build-ladder + resilient solve, and the result."""
    t0 = time.perf_counter()
    stages, _ = policy.ladder(prob.a, prob.groups, decision=decision, cache_key=name)
    res = ResilientSolver(prob.a, stages).solve(prob.b)
    return time.perf_counter() - t0, res


@pytest.fixture(scope="module")
def sweep():
    """Run the sweep once: per-arm totals and per-case wall times."""
    cases = build_cases()
    static = SolverPolicy("static")  # the paper's default order per case
    totals = {arm: 0.0 for arm in (*FIXED_ARMS, "cold", "warm")}
    wall_s: dict[str, dict[str, float]] = {name: {} for name in cases}

    def book(arm, name, wall, res):
        assert res.converged, f"{name} arm {arm} did not converge"
        totals[arm] += wall
        wall_s[name][arm] = wall

    for arm in FIXED_ARMS:
        for name, prob in cases.items():
            default = static.decide(prob.a, prob.groups).order
            decision = PolicyDecision(
                mode="fixed", order=forced_order(default, arm), probe=None,
                source=f"bench fixed arm {arm!r}",
            )
            book(arm, name, *timed_ladder_solve(static, name, prob, decision))

    # the cost model over the same traffic twice: decide() time included
    policy = SolverPolicy("cost")
    for arm in ("cold", "warm"):
        for name, prob in cases.items():
            book(arm, name, *timed_ladder_solve(policy, name, prob))

    print()
    for arm, total in totals.items():
        print(f"{arm:<9} total {total * 1e3:8.1f} ms")
    return totals, wall_s


def test_policy_beats_best_fixed_ladder(sweep):
    totals, _ = sweep
    best_fixed = min(totals[arm] for arm in FIXED_ARMS)
    assert totals["warm"] <= best_fixed, (
        f"policy warm pass {totals['warm'] * 1e3:.0f} ms vs best fixed "
        f"{best_fixed * 1e3:.0f} ms"
    )


def test_policy_strictly_beats_default_ladder(sweep):
    totals, _ = sweep
    assert totals["warm"] < totals["default"], (
        f"policy warm pass {totals['warm'] * 1e3:.0f} ms not below the "
        f"default static ladder's {totals['default'] * 1e3:.0f} ms"
    )


def test_warm_pass_not_slower_than_cold(sweep):
    totals, _ = sweep
    assert totals["warm"] <= totals["cold"], (
        f"warm pass {totals['warm'] * 1e3:.0f} ms slower than cold "
        f"{totals['cold'] * 1e3:.0f} ms"
    )


def test_sweep_winners_actually_differ(sweep):
    _, wall_s = sweep
    assert len(wall_s) == 9  # 3 generators x 3 penalties
    winners = {
        min(FIXED_ARMS, key=lambda arm: row[arm]) for row in wall_s.values()
    }
    assert len(winners) >= 2, f"single fixed winner {winners} across the sweep"


@pytest.fixture(
    scope="module",
    params=[(block_problem, 0.8), (swjapan_problem, 2.0)],
    ids=["block0.8", "swjapan2.0"],
)
def sized_problem(request):
    make, scale = request.param
    prob = make(scale, 1.0e6)
    return prob, probe_problem(prob.a, prob.groups)


@pytest.mark.parametrize("family", ["sbbic0", "bic0", "ic0", "diag"])
def test_setup_to_iteration_ratio_matches_host(sized_problem, family):
    """Predicted set-up, in the family's own iterations, vs this host."""
    prob, probe = sized_problem
    (cost,) = candidate_costs(probe, families=(family,))
    predicted = cost.setup_seconds / cost.per_iter_seconds
    builds = [FAMILY_TABLE[family].build(prob.a, prob.groups) for _ in range(2)]
    setup_s = min(m.setup_seconds for m in builds)  # cold: symbolic + numeric
    res = cg_solve(prob.a, prob.b, builds[-1], max_iter=200, record_history=False)
    measured = setup_s / (res.solve_seconds / res.iterations)
    print(f"\n{family}: set-up = {predicted:.1f} iterations predicted, {measured:.1f} measured")
    assert measured / 3.0 <= predicted <= 3.0 * measured
