"""The canonical-form search itself, validated against brute force."""

import itertools
import random
from collections import Counter

import pytest

from graphcanon import (
    Coloring,
    Graph,
    act_coloring,
    canonical_form,
    graph_compare,
    hash_colored,
    is_automorphism,
    refine,
    relabel_graph,
    unit_coloring,
    verify_proof,
)
import graphcanon.search
from graphcanon.emitter import emit_during, emit_post
from graphcanon.search import _Search, orbit_descent
from oracle_utils import (
    all_graphs,
    brute_canonical,
    brute_isomorphic,
    cfi,
    chang,
    complete,
    complete_bipartite,
    cycle,
    group_closure,
    path_graph,
    petersen,
    random_coloring,
    random_graph,
    random_perm,
    reference_canonical,
    spider,
)


def test_square_canonical_form():
    r = canonical_form(cycle(4))
    assert r.graph.edges == ((0, 2), (0, 3), (1, 2), (1, 3))
    assert r.leaf == (0, 1)
    assert r.labelling == (0, 2, 1, 3)
    assert r.phi == (5407533569738538226, 12622867803377768761)
    assert r.coloring == unit_coloring(4)


def test_coloring_of_another_order_is_rejected():
    with pytest.raises(ValueError, match="coloring size"):
        canonical_form(cycle(4), unit_coloring(5))


def test_single_vertex():
    r = canonical_form(Graph.from_edges(1, []))
    assert r.graph.n == 1
    assert r.leaf == ()
    assert r.labelling == (0,)


def test_result_is_consistent():
    g = petersen()
    r = canonical_form(g)
    # the labelling actually produces the canonical graph
    assert relabel_graph(g, r.labelling) == r.graph
    # phi is the hash chain along the winning path, root hash excluded
    pi0 = unit_coloring(g.n)
    for d in range(len(r.leaf)):
        pi = refine(g, pi0, r.leaf[: d + 1])
        assert hash_colored(g, pi) == r.phi[d]
    leaf_pi = refine(g, pi0, r.leaf)
    assert leaf_pi.discrete
    assert leaf_pi.perm() == r.labelling


def test_generators_are_automorphisms():
    # The search reads each generator off two leaves whose relabelled graphs
    # compare equal and does not check it again: this test is that check.
    for g in (cycle(6), petersen(), complete_bipartite(3, 3)):
        r = canonical_form(g)
        pi0 = unit_coloring(g.n)
        assert r.generators, "symmetric graphs must yield generators"
        for sigma in r.generators:
            assert is_automorphism(g, pi0, sigma)
    rng = random.Random(31)
    colored = 0
    for _ in range(150):
        n = rng.randint(1, 12)
        g = random_graph(rng, n, rng.choice([0.1, 0.3, 0.5, 0.7, 0.9]))
        pi0 = random_coloring(rng, n)
        r = canonical_form(g, pi0)
        colored += bool(r.generators) and pi0.m > 1
        for sigma in r.generators:
            assert is_automorphism(g, pi0, sigma)
    assert colored >= 20


def test_rigid_graph_has_no_generators():
    g = spider([1, 2, 3])
    assert canonical_form(g).generators == []


def test_canonical_classes_match_brute_force_n4():
    # The search's representative needn't equal the brute-force max-matrix
    # representative (they maximize over different label sets), but both must
    # induce the same partition of labelled graphs into isomorphism classes.
    by_canon = {}
    by_brute = {}
    for idx, g in enumerate(all_graphs(4)):
        by_canon.setdefault(canonical_form(g).graph, set()).add(idx)
        by_brute.setdefault(brute_canonical(g), set()).add(idx)
    assert sorted(map(sorted, by_canon.values())) == sorted(
        map(sorted, by_brute.values())
    )


def test_canonical_matches_reference_walk():
    rng = random.Random(17)
    for _ in range(40):
        g = random_graph(rng, rng.randint(2, 8), rng.random())
        ref_graph, ref_leaf_pi = reference_canonical(g)
        r = canonical_form(g)
        assert r.graph == ref_graph
        assert tuple(r.labelling) == ref_leaf_pi.colors


def test_canonical_respects_initial_coloring():
    # A colored square: one pair of opposite corners marked. With vertices 0,2
    # in their own color class, only 4 of the 8 square symmetries remain.
    c4 = cycle(4)
    pi0 = Coloring((0, 1, 0, 1))
    r = canonical_form(c4, pi0)
    assert relabel_graph(c4, r.labelling) == r.graph
    assert act_coloring(pi0, r.labelling) == r.coloring
    assert sorted(len(c) for c in r.coloring.cells) == [2, 2]
    for sigma in r.generators:
        assert is_automorphism(c4, pi0, sigma)


def test_colored_classes_refine_uncolored():
    # Marking a pair of adjacent corners vs an opposite pair yields different
    # canonical pairs, though the underlying squares are isomorphic bare.
    c4 = cycle(4)
    a = canonical_form(c4, Coloring((0, 0, 1, 1)))
    b = canonical_form(c4, Coloring((0, 1, 0, 1)))
    assert (a.graph, a.coloring) != (b.graph, b.coloring)
    assert canonical_form(c4, unit_coloring(4)).graph == canonical_form(c4).graph


def test_label_invariance_random():
    rng = random.Random(23)
    for _ in range(60):
        n = rng.randint(2, 20)
        g = random_graph(rng, n, rng.random())
        sigma = random_perm(rng, n)
        r1 = canonical_form(g)
        r2 = canonical_form(relabel_graph(g, sigma))
        assert r1.graph == r2.graph


def test_label_invariance_with_colors():
    rng = random.Random(29)
    for _ in range(40):
        n = rng.randint(2, 12)
        g = random_graph(rng, n, rng.random())
        pi0 = random_coloring(rng, n)
        sigma = random_perm(rng, n)
        r1 = canonical_form(g, pi0)
        r2 = canonical_form(relabel_graph(g, sigma), act_coloring(pi0, sigma))
        assert r1.graph == r2.graph
        assert r1.coloring == r2.coloring


def test_distinguishes_non_isomorphic_pairs():
    rng = random.Random(31)
    checked = 0
    while checked < 30:
        n = rng.randint(4, 7)
        g1 = random_graph(rng, n, 0.5)
        g2 = random_graph(rng, n, 0.5)
        iso = brute_isomorphic(g1, g2)
        c1 = canonical_form(g1).graph
        c2 = canonical_form(g2).graph
        assert (c1 == c2) == iso
        checked += 1


def test_canonical_form_of_canonical_form_is_fixed():
    rng = random.Random(37)
    for _ in range(20):
        g = random_graph(rng, rng.randint(2, 12), rng.random())
        c = canonical_form(g).graph
        assert canonical_form(c).graph == c


def test_special_families():
    # canonical forms within a family with the same parameters must agree
    k5_a = canonical_form(complete(5)).graph
    k5_b = canonical_form(relabel_graph(complete(5), (4, 2, 0, 1, 3))).graph
    assert k5_a == k5_b
    assert canonical_form(complete(5)).visited >= 1
    # complement pairs: C5 is self-complementary
    c5 = cycle(5)
    comp_edges = [
        (u, v)
        for u, v in itertools.combinations(range(5), 2)
        if not c5.adj[u] >> v & 1
    ]
    assert canonical_form(Graph.from_edges(5, comp_edges)).graph == (
        canonical_form(c5).graph
    )


def _matching(k):
    return Graph.from_edges(2 * k, [(2 * i, 2 * i + 1) for i in range(k)])


# Each child is tested against every stored generator that fixes its parent,
# which keeps these counts quadratic. Using an automorphism only at the
# deepest common ancestor of its two leaves made them cubic: K14 visited 833
# nodes, a 50-edge matching 42,976.
@pytest.mark.parametrize("n", [12, 14, 40])
def test_visited_on_complete_and_empty_graphs(n):
    assert canonical_form(complete(n)).visited == n * (n + 1) // 2
    assert canonical_form(Graph.from_edges(n, [])).visited == n * (n + 1) // 2


@pytest.mark.parametrize("k", [20, 50])
def test_visited_on_perfect_matchings(k):
    assert canonical_form(_matching(k)).visited == k * (k + 2)


_K4 = list(itertools.combinations(range(4), 2))


# A frame's orbits include the generators stored before it was entered that
# fix its prefix. Without them these labellings visited 25, 25, 28, 12 and
# 27 nodes.
@pytest.mark.parametrize(
    "g,seed,visited",
    [
        pytest.param(cfi(_K4), 3, 21, id="cfi-K4"),
        pytest.param(cfi(_K4, {0}), 3, 21, id="cfi-K4-twisted"),
        pytest.param(chang(1), 3, 25, id="chang1"),
        pytest.param(chang(2), 6, 11, id="chang2"),
        pytest.param(chang(3), 6, 20, id="chang3"),
    ],
)
def test_stored_generators_prune_fresh_frames(g, seed, visited):
    h = relabel_graph(g, random_perm(random.Random(seed), g.n))
    assert canonical_form(h).visited == visited
    for emitted in (emit_during(h), emit_post(h)):
        verdict = verify_proof(h, unit_coloring(h.n), emitted.data)
        assert verdict.accepted, verdict.reason


def _hash_calls(monkeypatch):
    calls = Counter()
    hash_colored = graphcanon.search.hash_colored

    def counted(g, pi):
        calls["hash"] += 1
        return hash_colored(g, pi)

    monkeypatch.setattr(graphcanon.search, "hash_colored", counted)
    return calls


# Only the first descent is hashed: every later child that ties the best
# path's cell sizes is settled by its automorphic first-vertex descent. The
# eager search hashed every visited node but the root: n(n+1)/2 - 1 on K_n
# and k(k+2) - 1 on a k-edge matching.
@pytest.mark.parametrize("n", [12, 14, 40])
def test_complete_graphs_hash_one_descent(n, monkeypatch):
    calls = _hash_calls(monkeypatch)
    canonical_form(complete(n))
    assert calls["hash"] == n - 1


@pytest.mark.parametrize("k", [20, 50])
def test_perfect_matchings_hash_one_descent(k, monkeypatch):
    calls = _hash_calls(monkeypatch)
    canonical_form(_matching(k))
    assert calls["hash"] == k


def _hypercube(d):
    n = 1 << d
    return Graph.from_edges(n, [(u, u ^ 1 << b) for u in range(n) for b in range(d)])


def _circulant(n, jumps):
    return Graph.from_edges(n, {(v, (v + j) % n) for v in range(n) for j in jumps})


def _probe_instances():
    k4 = list(itertools.combinations(range(4), 2))
    yield from (complete(7), _hypercube(4), petersen(), cfi(k4), cfi(k4, {0}))
    yield from map(chang, (1, 2, 3))
    rng = random.Random(43)
    for _ in range(4):
        n = rng.randint(9, 16)
        yield _circulant(n, rng.sample(range(1, n // 2 + 1), rng.randint(1, 3)))


def test_probe_settles_descents_like_the_eager_search(monkeypatch):
    # With _probe returning None every child is hashed, as the eager search
    # did; the probe must leave the trajectory, and so every output and both
    # emitters' proofs, unchanged. A failed probe must leave the search's
    # state as it found it.
    probe = _Search._probe
    settled = Counter()

    def state(search):
        frames = [(f.nu, f.next, list(f.moves), f.known) for f in search._frames]
        best = (list(search.best.phi), search.best.path)
        return search.visited, list(search.generators), frames, best

    def counted(self, nu, pi):
        before = state(self)
        d = probe(self, nu, pi)
        settled[d is not None] += 1
        if d is None:
            assert state(self) == before
        return d

    rng = random.Random(47)
    for g in _probe_instances():
        for _ in range(3):
            h = relabel_graph(g, random_perm(rng, g.n))
            runs = []
            for impl in (counted, lambda self, nu, pi: None):
                monkeypatch.setattr(_Search, "_probe", impl)
                r = canonical_form(h)
                fields = (r.graph, r.labelling, r.leaf, r.phi, r.generators)
                proofs = (emit_post(h).data, emit_during(h).data)
                runs.append((*fields, r.visited, *proofs))
            assert runs[0] == runs[1]
    assert settled[True] and settled[False]


def _partial_perm(rng, n):
    """A random permutation of a random subset of ``range(n)``."""
    support = rng.sample(range(n), rng.randint(0, n))
    images = rng.sample(support, len(support))
    perm = list(range(n))
    for a, b in zip(support, images):
        perm[a] = b
    return tuple(perm)


def test_orbit_descent_matches_the_group_closure():
    rng = random.Random(53)
    chains = 0
    for _ in range(300):
        n = rng.randint(1, 7)
        gens = [_partial_perm(rng, n) for _ in range(rng.randint(0, 3))]
        group = group_closure(gens, n)
        for w in range(n):
            steps = orbit_descent(gens, w)
            if min(p[w] for p in group) == w:
                assert steps == []
                continue
            chains += 1
            assert steps and steps[0][0] == w and steps[-1][2] < w
            for (a, sigma, b), nxt in zip(steps, steps[1:] + [None]):
                assert sigma in gens and sigma[a] == b
                assert nxt is None or nxt[0] == b
            # The BFS distance from w to the nearest smaller vertex.
            reach, dist = {w}, 0
            while min(reach) >= w:
                reach |= {s[v] for s in gens for v in reach}
                dist += 1
            assert len(steps) == dist
    assert chains > 100


def test_canonical_graph_dominates_isomorphs():
    # The canonical graph is the maximum over the leaves the search ranks;
    # spot-check it dominates a handful of random relabellings.
    rng = random.Random(41)
    for _ in range(20):
        g = random_graph(rng, rng.randint(3, 9), rng.random())
        c = canonical_form(g).graph
        sigma = random_perm(rng, g.n)
        assert graph_compare(canonical_form(relabel_graph(g, sigma)).graph, c) == 0


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_exhaustive_small_oracle(n):
    for g in all_graphs(n):
        ref_graph, _ = reference_canonical(g)
        assert canonical_form(g).graph == ref_graph
