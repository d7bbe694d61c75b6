"""The canonical-form search itself, validated against brute force."""

import itertools
import random

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
)
from oracle_utils import (
    all_graphs,
    brute_canonical,
    brute_isomorphic,
    complete,
    complete_bipartite,
    cycle,
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
    for g in (cycle(6), petersen(), complete_bipartite(3, 3)):
        r = canonical_form(g)
        pi0 = unit_coloring(g.n)
        assert r.generators, "symmetric graphs must yield generators"
        for sigma in r.generators:
            assert is_automorphism(g, pi0, sigma)


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


# Each automorphism is folded into the orbits of every level it fixes, which
# keeps these counts quadratic. Merging it at the deepest common ancestor of
# its two leaves only made them cubic: K14 visited 833 nodes, a 50-edge
# matching 42,976.
@pytest.mark.parametrize("n", [12, 14, 40])
def test_visited_on_complete_and_empty_graphs(n):
    assert canonical_form(complete(n)).visited == n * (n + 1) // 2
    assert canonical_form(Graph.from_edges(n, [])).visited == n * (n + 1) // 2


@pytest.mark.parametrize("k", [20, 50])
def test_visited_on_perfect_matchings(k):
    assert canonical_form(_matching(k)).visited == k * (k + 2)


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
