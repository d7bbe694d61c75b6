"""Proof emission: ``emit_post``, and ``emit_during`` as a test fixture."""

import dataclasses
import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from graphcanon import (
    Coloring,
    EmitError,
    canonical_form,
    emit_post,
    individualize,
    invert,
    is_automorphism,
    unit_coloring,
    verify_proof,
)
from graphcanon.emitter import _Emitter, emit_during
from graphcanon.checker import SIDE_CONDITION
from graphcanon.proof import (
    ColoringAxiom,
    Individualize,
    MergeOrbits,
    OrbitsAxiom,
    PruneAutomorphism,
    PruneOrbits,
    RFiner,
    decode_proof,
    encode_proof,
)
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
def test_both_strategies_verify(name, g, pi0):
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


def test_emit_refuses_a_rule_whose_premises_are_not_derived():
    g = cycle(4)
    pi0 = unit_coloring(4)
    em = _Emitter(g, pi0)
    em.emit(ColoringAxiom(), RFiner((), pi0))
    # Individualize consumes REqual((), pi0); only RFiner((), pi0) exists.
    with pytest.raises(EmitError, match="Individualize needs underived premise REqual"):
        em.emit(Individualize((), 0, pi0), RFiner((0,), individualize(pi0, 0)))


def test_emitted_proof_metadata():
    g = cycle(6)
    emitted = emit_post(g)
    n, rules = decode_proof(emitted.data)
    assert n == 6
    assert len(rules) == emitted.rule_count
    assert emitted.result.graph == canonical_form(g).graph


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


def test_post_prunes_a_generator_chain_with_one_composed_automorphism():
    # The search of C4 keeps two reflections, (0 3 2 1) and (1 0 3 2). No
    # single one maps root child 2 below itself, but the chain 2 -> 3 -> 1
    # does; the rule carries the chain's composition, a rotation.
    g = cycle(4)
    pi0 = unit_coloring(4)
    emitted = emit_post(g)
    gens = set(emitted.result.generators)
    gens |= {invert(sigma) for sigma in gens}
    assert verify_proof(g, pi0, emitted.data).accepted
    n, rules = decode_proof(emitted.data)
    composed = [
        i
        for i, r in enumerate(rules)
        if isinstance(r, PruneAutomorphism) and r.sigma not in gens
    ]
    assert composed
    index = composed[0]
    rule = rules[index]
    for sigma in gens:
        assert tuple(invert(sigma)[v] for v in rule.nu2) >= rule.nu2
    # Swap two images off nu1 so that sigma still maps nu1 onto nu2 but is
    # no longer an automorphism.
    free = [v for v in range(n) if v not in rule.nu1]
    for a, b in zip(free, free[1:]):
        bad = list(rule.sigma)
        bad[a], bad[b] = bad[b], bad[a]
        if not is_automorphism(g, pi0, bad):
            break
    else:  # pragma: no cover - C4 always has such a pair
        pytest.fail("no corrupting swap found")
    rules[index] = dataclasses.replace(rule, sigma=tuple(bad))
    verdict = verify_proof(g, pi0, encode_proof(n, rules))
    assert not verdict.accepted
    assert verdict.error_kind == SIDE_CONDITION
    assert verdict.error_index == index


@pytest.mark.parametrize(
    "name,g,pi0", [pytest.param(*t, id=t[0]) for t in _instances()]
)
def test_only_during_proofs_carry_orbit_rules(name, g, pi0):
    orbit_rules = (OrbitsAxiom, MergeOrbits, PruneOrbits)
    _, post = decode_proof(emit_post(g, pi0).data)
    assert not any(isinstance(r, orbit_rules) for r in post)


def test_during_proofs_still_carry_orbit_rules():
    _, rules = decode_proof(emit_during(cycle(4)).data)
    kinds = {type(r) for r in rules}
    assert {OrbitsAxiom, MergeOrbits, PruneOrbits} <= kinds


def test_deep_tree_needs_no_recursion():
    # K60's search tree is 59 levels deep. Under a recursion limit of 100,
    # any layer that recursed once per tree level would raise RecursionError.
    script = textwrap.dedent(
        """
        import sys
        from graphcanon import (
            Graph, canonical_form, emit_post, unit_coloring, verify_proof,
        )
        from graphcanon.emitter import emit_during
        n = 60
        g = Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])
        sys.setrecursionlimit(100)
        result = canonical_form(g)
        assert len(result.leaf) == n - 1
        for emitted in (emit_post(g), emit_during(g)):
            verdict = verify_proof(g, unit_coloring(n), emitted.data)
            assert verdict.accepted, verdict.reason
            assert verdict.canonical_graph == result.graph
        """
    )
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
