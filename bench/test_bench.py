"""Tests of the benchmark's own inputs and helpers, apart from graphcanon.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import random
import sys
from itertools import combinations, permutations
from math import factorial
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import corpus  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402


def all_graphs(n):
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield frozenset(p for i, p in enumerate(pairs) if mask >> i & 1)


SMALL = [(n, edges) for n in range(1, 6) for edges in all_graphs(n)]


def adjacent(edges, u, v):
    return (min(u, v), max(u, v)) in edges


def brute_cliques(n, edges, k):
    """Ordered k-cliques among the first k places of every permutation."""
    if k > n:
        return 0
    hits = sum(
        all(adjacent(edges, p[i], p[j]) for i, j in combinations(range(k), 2))
        for p in permutations(range(n))
    )
    return hits // (factorial(k) * factorial(n - k))


def brute_components(n, edges):
    """Two vertices share a component iff some permutation starts with a
    path from one to the other."""
    reach = {v: {v} for v in range(n)}
    for p in permutations(range(n)):
        for i in range(1, n):
            if not adjacent(edges, p[i - 1], p[i]):
                break
            reach[p[0]].add(p[i])
    return len({frozenset(r) for r in reach.values()})


def brute_isomorphic(n, e1, e2):
    return any(oracle.relabel(e1, p) == e2 for p in permutations(range(n)))


def isomorphic(n, e1, e2):
    """Backtracking isomorphism test for connected graphs of small degree:
    vertices of the first graph are mapped in breadth-first order, each to a
    neighbour of an already mapped neighbour's image."""
    nb1, nb2 = oracle.neighbours(n, e1), oracle.neighbours(n, e2)
    order, parent = [0], {0: None}
    for u in order:
        for w in sorted(nb1[u]):
            if w not in parent:
                parent[w] = u
                order.append(w)
    assert len(order) == n, "isomorphic() takes connected graphs"
    image: dict[int, int] = {}
    used: set[int] = set()

    def extend(i):
        if i == n:
            return True
        v = order[i]
        candidates = range(n) if parent[v] is None else nb2[image[parent[v]]]
        for c in candidates:
            if c in used or len(nb2[c]) != len(nb1[v]):
                continue
            if all((image[w] in nb2[c]) == (w in nb1[v]) for w in image):
                image[v] = c
                used.add(c)
                if extend(i + 1):
                    return True
                del image[v]
                used.remove(c)
        return False

    return extend(0)


def srg_parameters(n, edges):
    """(k, lambda, mu) of a strongly regular graph, or None."""
    nb = oracle.neighbours(n, edges)
    degrees = {len(s) for s in nb}
    lam = {len(nb[u] & nb[v]) for u, v in combinations(range(n), 2) if v in nb[u]}
    mu = {len(nb[u] & nb[v]) for u, v in combinations(range(n), 2) if v not in nb[u]}
    if len(degrees) == len(lam) == len(mu) == 1:
        return degrees.pop(), lam.pop(), mu.pop()
    return None


# ---------------------------------------------------------------------------
# The corpus
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("workload", sorted(corpus.WORKLOADS))
def test_corpus_is_byte_identical_for_a_seed(workload):
    def texts(seed):
        return [(g.name, g.dimacs()) for g in corpus.build(workload, seed).graphs]

    assert texts(7) == texts(7)
    assert texts(7) != texts(8)


@pytest.mark.parametrize("workload", sorted(corpus.WORKLOADS))
def test_pairs_name_graphs_of_their_workload(workload):
    wl = corpus.build(workload, 1)
    names = [g.name for g in wl.graphs]
    assert len(names) == len(set(names))
    for pair in wl.pairs:
        g1, g2 = wl.graph(pair.first), wl.graph(pair.second)
        assert g1.n == g2.n and len(g1.edges) == len(g2.edges)
    assert any(p.isomorphic for p in wl.pairs)
    assert any(not p.isomorphic for p in wl.pairs)


# ---------------------------------------------------------------------------
# Independent helpers against an n! brute force
# ---------------------------------------------------------------------------


def test_helpers_agree_with_brute_force_on_all_graphs_up_to_5_vertices():
    for n, edges in SMALL:
        assert oracle.triangles(n, edges) == brute_cliques(n, edges, 3)
        assert oracle.four_cliques(n, edges) == brute_cliques(n, edges, 4)
        assert oracle.components(n, edges) == brute_components(n, edges)


def test_relabel_agrees_with_brute_force_on_all_graphs_up_to_5_vertices():
    for n, edges in SMALL:
        invariants = (
            oracle.triangles(n, edges),
            oracle.four_cliques(n, edges),
            oracle.components(n, edges),
            oracle.degree_sequence(n, edges),
        )
        for p in permutations(range(n)):
            moved = oracle.relabel(edges, p)
            assert moved == frozenset(
                (i, j)
                for i, j in combinations(range(n), 2)
                if adjacent(edges, p.index(i), p.index(j))
            )
            assert invariants == (
                oracle.triangles(n, moved),
                oracle.four_cliques(n, moved),
                oracle.components(n, moved),
                oracle.degree_sequence(n, moved),
            )


def test_backtracking_isomorphism_agrees_with_brute_force():
    connected = [(n, e) for n, e in SMALL if n == 5 and oracle.components(n, e) == 1]
    rng = random.Random(5)
    for n, e1 in connected:
        _, e2 = rng.choice(connected)
        assert isomorphic(n, e1, e2) == brute_isomorphic(n, e1, e2)


# ---------------------------------------------------------------------------
# Pair constructions at their smallest sizes
# ---------------------------------------------------------------------------


def test_cycle_pairs_differ_only_in_component_count():
    n1, e1 = corpus.cycles(2, 3)
    n2, e2 = corpus.cycles(1, 6)
    assert n1 == n2 and len(e1) == len(e2)
    assert oracle.degree_sequence(n1, e1) == oracle.degree_sequence(n2, e2)
    assert (oracle.components(n1, e1), oracle.components(n2, e2)) == (2, 1)


def test_swap_keeps_degrees_and_changes_triangles():
    rng = random.Random(3)
    n, edges = corpus.gnp(rng, 12, 0.5)
    swapped = corpus.triangle_changing_swap(rng, n, edges)
    assert len(swapped) == len(edges)
    assert oracle.degree_sequence(n, swapped) == oracle.degree_sequence(n, edges)
    assert oracle.triangles(n, swapped) != oracle.triangles(n, edges)


def test_cfi_twist_parity_decides_isomorphism():
    base = corpus.CFI_BASES["k4"]
    n, plain = corpus.cfi(base, set())
    _, odd = corpus.cfi(base, {2})
    _, even = corpus.cfi(base, {0, 5})
    assert n == 40 and oracle.degree_sequence(n, plain) == [3] * 40
    assert oracle.degree_sequence(n, odd) == [3] * 40
    assert not isomorphic(n, plain, odd)
    assert isomorphic(n, plain, even)


@pytest.mark.parametrize("name", sorted(corpus.CFI_BASES))
def test_cfi_bases_are_connected_and_3_regular(name):
    base = corpus.CFI_BASES[name]
    b = 1 + max(max(e) for e in base)
    edges = oracle.edge_set(base)
    assert len(edges) == len(base)
    assert oracle.degree_sequence(b, edges) == [3] * b
    assert oracle.components(b, edges) == 1
    n, g = corpus.cfi(base, set())
    assert n == 10 * b and oracle.components(n, g) == 1


def test_rook_and_shrikhande_differ_in_4_cliques():
    rook, shrikhande = corpus.rook(4, 4), corpus.shrikhande()
    assert srg_parameters(*rook) == srg_parameters(*shrikhande) == (6, 2, 2)
    assert (oracle.four_cliques(*rook), oracle.four_cliques(*shrikhande)) == (8, 0)


def test_t8_and_chang_graphs_differ_in_4_cliques():
    graphs = [corpus.triangular(8)] + [corpus.chang(i) for i in (1, 2, 3)]
    assert all(srg_parameters(*g) == (12, 6, 4) for g in graphs)
    assert [oracle.four_cliques(*g) for g in graphs] == [280, 248, 240, 240]


@pytest.mark.parametrize("q", [5, 13, 61])
def test_paley_graphs_are_strongly_regular(q):
    assert srg_parameters(*corpus.paley(q)) == ((q - 1) // 2, (q - 5) // 4, (q - 1) // 4)


def test_spiders_with_distinct_legs_have_no_automorphism():
    n, edges = corpus.spider([1, 2, 3])
    assert n == 7 and oracle.components(n, edges) == 1
    autos = [p for p in permutations(range(n)) if oracle.relabel(edges, p) == edges]
    assert autos == [tuple(range(n))]


def test_relabelled_copies_are_isomorphic():
    wl = corpus.build("symmetric", 3)
    for pair in wl.pairs:
        g1, g2 = wl.graph(pair.first), wl.graph(pair.second)
        if pair.isomorphic:
            assert isomorphic(g1.n, g1.edges, g2.edges)


# ---------------------------------------------------------------------------
# The benchmark's declared metrics
# ---------------------------------------------------------------------------


def test_benchmark_json_declares_the_runner_metrics():
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in declared["workloads"]] == list(corpus.WORKLOADS)
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == run.PER_LAYER
