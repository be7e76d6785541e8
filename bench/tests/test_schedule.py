from bench.workloads.serve_mixed import HOT_A, HOT_B, KINDS, SEGMENTS, build_round


def test_same_seed_same_schedule_other_seed_other_schedule():
    assert build_round(5, 0) == build_round(5, 0)
    assert build_round(5, 0) != build_round(6, 0)
    assert build_round(5, 0) != build_round(5, 1)


def test_round_shape():
    batches = build_round(11, 3)
    kinds = [kind for kind, _ in batches]
    assert set(kinds) == set(KINDS)
    assert len(batches) == 24 and sum(len(reqs) for _, reqs in batches) == 45
    assert kinds.count("miss") == 2 and kinds.count("auto") == 2 and kinds.count("burst8") == 3


def test_every_segment_touches_both_hot_structures():
    """The cache invariant the docstring of build_round promises."""
    for seed in range(20):
        batches = build_round(seed, seed % 3)
        openers = [i for i, (kind, _) in enumerate(batches) if kind in ("miss", "auto")]
        assert len(openers) == SEGMENTS and openers[0] == 0
        for start, end in zip(openers, openers[1:] + [len(batches)]):
            hits = {(r["model"], r["scale"]) for kind, reqs in batches[start + 1:end]
                    if kind == "hit" for r in reqs}
            assert {HOT_A, HOT_B} <= hits
