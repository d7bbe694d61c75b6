"""Proof emission: ``emit_post``, and ``emit_during`` as a test fixture."""

import hashlib
import importlib
import itertools
import os
import random
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import pytest

from graphcanon import (
    Coloring,
    EmitError,
    Graph,
    Prover,
    canonical_form,
    emit_post,
    individualize,
    invert,
    is_automorphism,
    make_equitable,
    refine,
    relabel_graph,
    unit_coloring,
    verify_proof,
)
import graphcanon.checker
import graphcanon.emitter
import graphcanon.search
from graphcanon.emitter import emit_during
from graphcanon.checker import SIDE_CONDITION
from graphcanon.proof import (
    Individualize,
    MergeOrbits,
    OrbitsAxiom,
    PruneAutomorphism,
    PruneInvariant,
    PruneLeaf,
    PruneOrbits,
    PruneParent,
    RFiner,
    SplitColoring,
    decode_proof,
    encode_ints,
    encode_proof,
    rule_ints,
)
from oracle_utils import (
    brute_automorphisms,
    cfi,
    chang,
    complete,
    complete_bipartite,
    cycle,
    frucht,
    group_closure,
    path_graph,
    petersen,
    random_coloring,
    random_graph,
    random_perm,
    random_tree,
    reg3,
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


@pytest.mark.parametrize(
    "emit,digest",
    [
        (emit_post, "22ccabfa7e37854b5c7af9dc2c76f608a16a9a9409127d09427382f9e2442ce9"),
        (emit_during, "d9c733527ce181229ce5da144acebcde6d18f8f6ff79981862e583b01ea22636"),
    ],
    ids=["post", "during"],
)
def test_proof_bytes_golden(emit, digest):
    # Frozen sha256 of the concatenated proofs of every instance above: a
    # change to the emitted bytes must be made, and this value updated, on
    # purpose.
    data = b"".join(emit(g, pi0).data for _, g, pi0 in _instances())
    assert hashlib.sha256(data).hexdigest() == digest


@pytest.mark.parametrize(
    "emit,digest",
    [
        (emit_post, "8dd12366526f06671a44e0c63e9deb34465f2f86a7f985c0889162161a82e5f4"),
        (emit_during, "59655eadfd4cd29394a38f7abd44d35034d4f20b330002ae3389f1ec853c5fb9"),
    ],
    ids=["post", "during"],
)
def test_proof_rules_golden(emit, digest):
    # Frozen sha256 of every instance's rules as a multiset: each proof's
    # order n, then its rules' encodings sorted. It pins what the proofs
    # derive apart from the order they write it in.
    h = hashlib.sha256()
    for _, g, pi0 in _instances():
        n, rules = decode_proof(emit(g, pi0).data)
        h.update(encode_ints([n]))
        h.update(b"".join(sorted(encode_ints(rule_ints(r, n)) for r in rules)))
    assert h.hexdigest() == digest


def test_emit_refuses_a_rule_whose_premises_are_not_derived():
    g = cycle(4)
    pi0 = unit_coloring(4)
    em = Prover(g, pi0)
    # The constructor derives the root only: REqual((0,), ...) is not on the
    # stream, so an individualization below node (0,) must be refused.
    pi = individualize(pi0, 0)
    with pytest.raises(EmitError, match="Individualize needs underived premise REqual"):
        em.emit(Individualize((0,), 1, pi), RFiner((0, 1), individualize(pi, 1)))


def test_emitted_proof_metadata():
    g = cycle(6)
    emitted = emit_post(g)
    n, rules = decode_proof(emitted.data)
    assert n == 6
    assert len(rules) == emitted.rule_count
    assert emitted.result.graph == canonical_form(g).graph


def _rooted_instances(count):
    """Seeded random graphs, each with a random, the unit and a discrete
    initial coloring."""
    rng = random.Random(25)
    for _ in range(count):
        n = rng.randint(1, 14)
        g = random_graph(rng, n, rng.random())
        for pi0 in (random_coloring(rng, n), unit_coloring(n)):
            yield g, pi0
        yield g, Coloring(random_perm(rng, n))


def test_emitted_result_is_the_solvers_on_every_field():
    # The emitters search the equitable root R, not pi0: the coloring they
    # return must still be pi0's image, not R's.
    for g, pi0 in _rooted_instances(40):
        want = canonical_form(g, pi0)
        assert emit_post(g, pi0).result == want
        assert emit_during(g, pi0).result == want


def test_prover_knows_its_result_before_it_writes_the_proof():
    # Building a Prover derives the root chain and searches; only finish
    # walks the tree, and it returns emit_post's proof of that same result.
    root_chain = {"ColoringAxiom", "SplitColoring", "Equitable"}
    for g, pi0 in _rooted_instances(10):
        prover = Prover(g, pi0)
        assert prover.result == canonical_form(g, pi0)
        rules = decode_proof(encode_ints(prover.stream))[1]
        assert len(rules) == prover.rule_count
        assert {type(r).__name__ for r in rules} <= root_chain
        assert prover.finish() == emit_post(g, pi0)


def test_search_from_the_equitable_root_is_the_search_from_pi0():
    # Refining the equitable root splits nothing and returns it unchanged,
    # so a search of R is the search of pi0 but for the coloring's image.
    for g, pi0 in _rooted_instances(40):
        root = make_equitable(g, pi0, pi0.cells)
        assert make_equitable(g, root, root.cells) is root
        from_root = canonical_form(g, root)
        want = canonical_form(g, pi0)
        assert from_root._replace(coloring=want.coloring) == want


def test_emit_post_refines_the_root_once(monkeypatch):
    # The spider's root refines to discrete, so the whole search is the root
    # refinement: every round that splits something writes a SplitColoring.
    # (graphcanon.refine is the exported function, not the module.)
    refine_module = importlib.import_module("graphcanon.refine")
    split_round = refine_module._split_round
    effective = 0

    def counted(g, cells, w):
        nonlocal effective
        splits = split_round(g, cells, w)
        effective += bool(splits)
        return splits

    g = spider(range(1, 9))
    assert g.n == 37 and make_equitable(g, unit_coloring(37), [range(37)]).discrete
    monkeypatch.setattr(refine_module, "_split_round", counted)
    emitted = emit_post(g)
    _, rules = decode_proof(emitted.data)
    assert effective == sum(isinstance(r, SplitColoring) for r in rules) == 26


def test_emit_rejects_a_coloring_of_another_order():
    g = cycle(5)
    for n in (4, 6):
        for emit in (emit_post, emit_during):
            with pytest.raises(ValueError, match="does not match graph order"):
                emit(g, unit_coloring(n))


def test_during_and_post_agree_on_the_result():
    # Each proof, replayed by the checker, must conclude the solver's form.
    rng = random.Random(7)
    for _ in range(15):
        n = rng.randint(2, 12)
        g = random_graph(rng, n, rng.random())
        pi0 = random_coloring(rng, n)
        result = canonical_form(g, pi0)
        for proof in (emit_during(g, pi0), emit_post(g, pi0)):
            verdict = verify_proof(g, pi0, proof.data)
            assert verdict.accepted, verdict.reason
            assert verdict.canonical_graph == result.graph
            assert verdict.canonical_coloring == result.coloring


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
    rules[index] = rule._replace(sigma=tuple(bad))
    verdict = verify_proof(g, pi0, encode_proof(n, rules))
    assert not verdict.accepted
    assert verdict.error_kind == SIDE_CONDITION
    assert verdict.error_index == index


@pytest.mark.parametrize(
    "g,count",
    [
        pytest.param(cycle(4), 7, id="C4"),
        pytest.param(complete(4), 23, id="K4"),
        pytest.param(petersen(), 119, id="petersen"),
        pytest.param(complete_bipartite(3, 3), 71, id="K33"),
    ],
)
def test_post_prunes_equal_leaves_by_their_automorphism(g, count, monkeypatch):
    # Without stabilizer moves no child is pruned by an orbit, so every
    # off-path leaf that ties the canonical graph is pruned by the
    # automorphism that carries the two leaves' relabellings onto each other.
    monkeypatch.setattr(Prover, "_stabilizer_moves", lambda self, x: [])
    pi0 = unit_coloring(g.n)
    em = Prover(g, pi0)
    proof = em.finish()
    verdict = verify_proof(g, pi0, proof.data)
    assert verdict.accepted, verdict.reason
    assert verdict.canonical_graph == proof.result.graph == canonical_form(g).graph
    rules = decode_proof(proof.data)[1]
    assert sum(isinstance(r, PruneAutomorphism) for r in rules) == count


def test_post_refuses_a_result_whose_graph_the_leaf_does_not_give():
    g = petersen()
    em = Prover(g, unit_coloring(g.n))
    other = relabel_graph(em.result.graph, random_perm(random.Random(3), g.n))
    assert other != em.result.graph
    em.result = em.result._replace(graph=other)
    with pytest.raises(EmitError, match="does not reproduce the solver result"):
        em.finish()


def test_post_refuses_a_path_that_stops_above_its_leaf():
    g = petersen()
    em = Prover(g, unit_coloring(g.n))
    em.path = em.path[:-1]
    with pytest.raises(EmitError, match="canonical path does not end at a leaf"):
        em.finish()


def test_post_refuses_a_path_that_leaves_its_target_cell():
    # The leaf (2, 0) relabels the matching to the solver's graph, but 2 is
    # not in the root's target cell {0, 1}.
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    em = Prover(g, Coloring((0, 0, 1, 1)))
    em.path = (2, 0)
    with pytest.raises(EmitError, match="canonical path leaves its target cell"):
        em.finish()


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


def _prove_relabelled(*graphs):
    """Both proofs of each graph under two labellings verify, to one
    canonical form per graph. Returns the rules each emitter wrote."""
    rules = {emit_during: [], emit_post: []}
    for g in graphs:
        forms = set()
        for seed in range(2):
            h = relabel_graph(g, random_perm(random.Random(seed), g.n)) if seed else g
            for emit, out in rules.items():
                emitted = emit(h)
                verdict = verify_proof(h, unit_coloring(h.n), emitted.data)
                assert verdict.accepted, verdict.reason
                forms.add(verdict.canonical_graph)
                out.extend(decode_proof(emitted.data)[1])
        assert len(forms) == 1
    return rules


def test_chang_graphs_reach_the_orbit_and_invariant_decisions():
    # Strongly regular: refinement never splits the root, so every child is
    # individualized, hashed and compared, and automorphisms are plentiful.
    rules = _prove_relabelled(*map(chang, (1, 2, 3)))
    post = {type(r) for r in rules[emit_post]}
    during = {type(r) for r in rules[emit_during]}
    assert {PruneAutomorphism, PruneInvariant, PruneParent} <= post
    assert {PruneOrbits, MergeOrbits} <= during


def test_frucht_graph_reaches_the_leaf_decisions(monkeypatch):
    # With the 64-bit hash, two leaves tie only on a collision. The number of
    # cells is label-invariant too, so the proof system stays sound, and on a
    # rigid cubic graph it ties many leaves whose graphs differ: one is
    # pruned by the graph comparison against the canonical leaf.
    for module in (graphcanon.search, graphcanon.emitter, graphcanon.checker):
        monkeypatch.setattr(module, "hash_colored", lambda g, pi: pi.m)
    for rules in _prove_relabelled(frucht()).values():
        assert any(isinstance(r, PruneLeaf) and r.pi1.discrete for r in rules)


def test_hash_collisions_reach_the_dethrone_and_the_prefix_leaf(monkeypatch):
    # Under a constant hash every node ties every other. The search meets a
    # non-discrete node that ties a complete leaf and dethrones that leaf,
    # and the post emitter prunes a leaf above the canonical depth against
    # the non-discrete node on the canonical path.
    for module in (graphcanon.search, graphcanon.emitter, graphcanon.checker):
        monkeypatch.setattr(module, "hash_colored", lambda g, pi: 0)
    post = _prove_relabelled(reg3(10))[emit_post]
    assert any(isinstance(r, PruneLeaf) and not r.pi1.discrete for r in post)


def _cube():
    edges = [(u, u ^ b) for u in range(8) for b in (1, 2, 4) if u < u ^ b]
    return Graph.from_edges(8, edges)


@pytest.mark.parametrize(
    "g,order",
    [
        pytest.param(complete(5), 120, id="K5"),
        pytest.param(petersen(), 120, id="petersen"),
        pytest.param(_cube(), 48, id="Q3"),
        pytest.param(cfi(list(itertools.combinations(range(4), 2))), 192, id="cfi-K4"),
    ],
)
def test_node_search_finds_the_stabilizer_order(g, order):
    # The search of a node's refined coloring generates the node's whole
    # pointwise stabilizer, at the root and at a node of the canonical path.
    pi0 = unit_coloring(g.n)
    result = canonical_form(g)
    group = group_closure(result.generators, g.n)
    assert len(group) == order
    for prefix in ((), result.leaf[:2]):
        gens = canonical_form(g, refine(g, pi0, prefix)).generators
        fixing = {s for s in group if all(s[v] == v for v in prefix)}
        assert group_closure(gens, g.n) == fixing
        assert all(is_automorphism(g, pi0, s) for s in gens)


def test_node_search_gives_the_stabilizer_of_any_prefix():
    rng = random.Random(41)
    moved = 0
    for _ in range(300):
        n = rng.randint(2, 7)
        g = random_graph(rng, n, rng.choice([0.2, 0.5, 0.8]))
        pi0 = random_coloring(rng, n) if rng.random() < 0.3 else unit_coloring(n)
        prefix = tuple(rng.sample(range(n), rng.randint(0, n - 1)))
        gens = canonical_form(g, refine(g, pi0, prefix)).generators
        group = brute_automorphisms(g, pi0)
        want = {s for s in group if all(s[v] == v for v in prefix)}
        assert group_closure(gens, n) == want
        moved += len(want) > 1
    assert moved >= 50  # prefixes whose stabilizer is not trivial


def test_opened_nodes_prune_by_their_complete_stabilizer():
    # Each Chang graph gives one proof size under every labelling: a node
    # opened off the canonical path prunes its children by the orbits of
    # its whole stabilizer, not by the generators that happen to fix it.
    sizes = {1: 19_986, 2: 19_254, 3: 20_274}
    opened_prunes = 0
    for which, size in sizes.items():
        g = chang(which)
        for seed in range(20):
            h = relabel_graph(g, random_perm(random.Random(seed), g.n)) if seed else g
            emitted = emit_post(h)
            assert len(emitted.data) == size
            assert verify_proof(h, unit_coloring(h.n), emitted.data).accepted
            path = emitted.result.leaf
            _, rules = decode_proof(emitted.data)
            opened_prunes += sum(
                isinstance(r, PruneAutomorphism)
                and r.nu1[:-1] != path[: len(r.nu1) - 1]
                for r in rules
            )
    assert opened_prunes


def _traced_peak(f, *args):
    """``f(*args)`` and the peak of the memory it allocates, by tracemalloc."""
    tracemalloc.start()
    try:
        return f(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_emitting_and_checking_hold_memory_in_proportion_to_the_proof():
    # The emitter streams each rule's integers into one array and the
    # checker decodes the stream in windows, so neither holds every rule or
    # every integer; what they hold beyond that is one fact per derivation.
    g = reg3(60)
    g.neighbors  # built before tracing, as both sides share it
    emitted, emit_peak = _traced_peak(emit_post, g)
    data = emitted.data
    verdict, check_peak = _traced_peak(verify_proof, g, unit_coloring(g.n), data)
    assert verdict.accepted, verdict.reason
    assert verdict.canonical_graph == emitted.result.graph
    assert emit_peak <= 5 * len(data), (emit_peak, len(data))
    assert check_peak <= 2 * len(data), (check_peak, len(data))
