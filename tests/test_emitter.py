"""Proof emission: during-search and post-search strategies."""

import random

import pytest

from graphcanon import (
    Coloring,
    canonical_form,
    emit_during,
    emit_post,
    emit_proof,
    unit_coloring,
    verify_proof,
)
from graphcanon.proof import decode_proof
from oracle_utils import (
    complete,
    complete_bipartite,
    cycle,
    path_graph,
    petersen,
    random_coloring,
    random_graph,
    random_tree,
    spider,
)


def _instances():
    rng = random.Random(2024)
    yield "K1", complete(1), None
    yield "K2", complete(2), None
    yield "K5", complete(5), None
    yield "P4", path_graph(4), None
    yield "C4", cycle(4), None
    yield "C9", cycle(9), None
    yield "K33", complete_bipartite(3, 3), None
    yield "K27", complete_bipartite(2, 7), None
    yield "petersen", petersen(), None
    yield "spider", spider([1, 2, 4]), None
    yield "tree16", random_tree(rng, 16), None
    for i in range(6):
        n = rng.randint(5, 14)
        yield f"gnp{i}", random_graph(rng, n, rng.choice([0.2, 0.5])), None
    for i in range(3):
        n = rng.randint(4, 10)
        g = random_graph(rng, n, 0.4)
        yield f"colored{i}", g, random_coloring(rng, n)


@pytest.mark.parametrize(
    "name,g,pi0", [pytest.param(*t, id=t[0]) for t in _instances()]
)
def test_both_strategies_verify_under_both_backends(name, g, pi0):
    base = pi0 or unit_coloring(g.n)
    want = canonical_form(g, pi0)
    for emitted in (emit_during(g, pi0), emit_post(g, pi0)):
        verdict = verify_proof(g, base, emitted.data)
        assert verdict.accepted, verdict.reason
        assert verdict.canonical_graph == want.graph
        assert verdict.canonical_coloring == want.coloring


@pytest.mark.parametrize(
    "name,g,pi0", [pytest.param(*t, id=t[0]) for t in _instances()]
)
def test_post_is_never_larger(name, g, pi0):
    during = emit_during(g, pi0)
    post = emit_post(g, pi0)
    assert len(post.data) <= len(during.data)


def test_emitted_proof_metadata():
    g = cycle(6)
    emitted = emit_post(g)
    n, rules = decode_proof(emitted.data)
    assert n == 6
    assert len(rules) == emitted.rule_count
    assert emitted.result.graph == canonical_form(g).graph


def test_emit_proof_strategy_dispatch():
    g = cycle(5)
    assert emit_proof(g, strategy="during").data == emit_during(g).data
    assert emit_proof(g, strategy="post").data == emit_post(g).data
    assert emit_proof(g).data == emit_post(g).data  # post is the default
    with pytest.raises(ValueError):
        emit_proof(g, strategy="sideways")


def test_during_and_post_agree_on_the_result():
    rng = random.Random(7)
    for _ in range(15):
        n = rng.randint(2, 12)
        g = random_graph(rng, n, rng.random())
        d = emit_during(g)
        p = emit_post(g)
        assert d.result.graph == p.result.graph
        assert d.result.labelling == p.result.labelling


def test_proofs_are_deterministic():
    g = petersen()
    assert emit_post(g).data == emit_post(g).data
    assert emit_during(g).data == emit_during(g).data


def test_rigid_graph_proof_round_trip():
    # No automorphisms at all: every pruning step must be by invariant or
    # leaf comparison.
    g = spider([1, 2, 3, 4])
    emitted = emit_post(g)
    verdict = verify_proof(g, unit_coloring(g.n), emitted.data)
    assert verdict.accepted
    assert verdict.canonical_graph == canonical_form(g).graph


def test_highly_symmetric_graph_uses_small_proof():
    # K7 has 5040 automorphisms; orbit pruning should keep the proof well
    # below one rule per tree node of the unpruned tree (7! leaves).
    emitted = emit_post(complete(7))
    assert emitted.rule_count < 500


def test_colored_instance_round_trip():
    g = cycle(8)
    pi0 = Coloring((0, 1, 0, 1, 0, 1, 0, 1))
    want = canonical_form(g, pi0)
    for emitted in (emit_during(g, pi0), emit_post(g, pi0)):
        verdict = verify_proof(g, pi0, emitted.data)
        assert verdict.accepted, verdict.reason
        assert verdict.canonical_graph == want.graph
        assert verdict.canonical_coloring == want.coloring


def test_proof_data_starts_with_n():
    from graphcanon.proof import decode_int

    g = cycle(5)
    for emitted in (emit_during(g), emit_post(g)):
        n, _ = decode_int(emitted.data, 0)
        assert n == 5
