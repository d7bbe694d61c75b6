"""Splitting, equitable closure, and the full refinement map."""

import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from graphcanon import (
    Coloring,
    act_coloring,
    individualize,
    make_equitable,
    relabel_graph,
    split,
    target_cell,
    unit_coloring,
)
from graphcanon.refine import splitting_cell
from oracle_utils import (
    complete_bipartite,
    cycle,
    is_finer,
    naive_equitable,
    naive_refine,
    naive_split,
    path_graph,
    petersen,
    random_coloring,
    random_graph,
    random_perm,
    refine,
    reg3,
    rngs,
)


# ---------------------------------------------------------------------------
# individualize
# ---------------------------------------------------------------------------


def test_individualize_puts_singleton_first():
    pi = Coloring.from_cells([(0, 1, 2, 3)])
    assert individualize(pi, 2).cells == ((2,), (0, 1, 3))


def test_individualize_middle_cell():
    pi = Coloring.from_cells([(0,), (1, 2, 3), (4,)])
    assert individualize(pi, 3).cells == ((0,), (3,), (1, 2), (4,))


def test_individualize_singleton_is_noop():
    pi = Coloring.from_cells([(1,), (0, 2)])
    assert individualize(pi, 1) is pi


# ---------------------------------------------------------------------------
# split
# ---------------------------------------------------------------------------


def test_split_path_by_unit_cell():
    # In a path 0-1-2 the middle vertex has two neighbors, the ends one.
    # The larger fragment {0,2} goes to the back.
    p3 = path_graph(3)
    assert split(p3, unit_coloring(3), 0).cells == ((1,), (0, 2))


def test_split_cycle_after_individualization():
    c4 = cycle(4)
    pi = Coloring.from_cells([(0,), (1, 2, 3)])
    # Vertex 2 is the only non-neighbor of 0, and the bigger fragment {1,3}
    # moves to the back.
    assert split(c4, pi, 0).cells == ((0,), (2,), (1, 3))


def test_split_no_change_returns_same_object():
    c4 = cycle(4)
    pi = unit_coloring(4)
    assert split(c4, pi, 0) is pi


def test_split_ties_on_size_move_first_maximal_fragment_last():
    # Path 0-1-2-3: fragments {0,3} (one neighbor) and {1,2} (two neighbors)
    # tie on size, so the first of them moves to the back.
    p4 = path_graph(4)
    assert split(p4, unit_coloring(4), 0).cells == ((1, 2), (0, 3))


def test_split_star_pulls_out_the_hub():
    g = complete_bipartite(1, 4)
    assert split(g, unit_coloring(5), 0).cells == ((0,), (1, 2, 3, 4))


@given(st.integers(2, 12), rngs)
@settings(max_examples=60)
def test_split_matches_naive_oracle(n, rng):
    g = random_graph(rng, n, rng.random())
    pi = random_coloring(rng, n, max_colors=4)
    i = rng.randrange(pi.m)
    assert list(split(g, pi, i).cells) == naive_split(g, list(pi.cells), i)


@given(st.integers(1, 12), rngs)
@settings(max_examples=100)
def test_splitting_cell_skips_cells_known_uniform(n, rng):
    # The checker passes the cells it has shown to split nothing; skipping
    # any subset of those must leave the answer as it is.
    g = random_graph(rng, n, rng.random())
    pi = random_coloring(rng, n, max_colors=rng.randint(1, n))
    cells = list(pi.cells)
    uniform = [c for i, c in enumerate(cells) if naive_split(g, cells, i) == cells]
    skip = frozenset(rng.sample(uniform, rng.randint(0, len(uniform))))
    assert splitting_cell(g, pi, skip) == splitting_cell(g, pi)


# ---------------------------------------------------------------------------
# equitability (splitting_cell finds no cell) / make_equitable
# ---------------------------------------------------------------------------


def test_is_equitable_examples():
    c4 = cycle(4)
    assert splitting_cell(c4, unit_coloring(4)) is None
    assert splitting_cell(c4, Coloring.from_cells([(0,), (2,), (1, 3)])) is None
    assert splitting_cell(path_graph(3), unit_coloring(3)) is not None
    # regular graphs are equitable under the unit coloring
    assert splitting_cell(petersen(), unit_coloring(10)) is None


def test_make_equitable_path():
    p5 = path_graph(5)
    pi = make_equitable(p5, unit_coloring(5), [tuple(range(5))])
    assert splitting_cell(p5, pi) is None
    assert list(pi.cells) == naive_equitable(p5, [tuple(range(5))])


def _dense_or_sparse(rng, n):
    """A G(n, p) of any density, a sparse one, or for even ``n >= 4`` a
    random cubic graph. In sparse graphs most open cells lie out of a
    splitter's reach, and splitters of several vertices split themselves."""
    kind = rng.randrange(3)
    if kind == 2 and n >= 4 and n % 2 == 0:
        return reg3(n, seed=rng.randrange(2**32))
    return random_graph(rng, n, rng.random() if kind == 0 else rng.uniform(1, 3) / n)


@given(st.integers(1, 40), st.integers(0, 3), rngs)
@settings(max_examples=80)
def test_make_equitable_callback_replays_with_split(n, k, rng):
    # Each round must be the split the checker's SplitColoring re-derives:
    # against the first cell that splits anything, at the root and below up
    # to ``k`` individualizations.
    g = _dense_or_sparse(rng, n)
    pi = random_coloring(rng, n, max_colors=3)
    alpha = list(pi.cells)
    for _ in range(k + 1):
        rounds = []
        final = make_equitable(
            g, pi, alpha, on_split=lambda b, w, a: rounds.append((b, w, a))
        )
        for before, w, after in rounds:
            assert w in before.cells
            assert before.cells.index(w) == splitting_cell(g, before)
            assert split(g, before, before.cells.index(w)) == after
            assert is_finer(after, before)
        # consecutive rounds chain together, from pi to the fixpoint
        chain = [pi] + [a for _, _, a in rounds]
        assert [b for b, _, _ in rounds] == chain[:-1]
        assert chain[-1] == final
        if final.discrete:
            break
        v = rng.choice([x for c in final.cells if len(c) > 1 for x in c])
        pi, alpha = individualize(final, v), [(v,)]


@given(st.integers(1, 40), rngs)
@settings(max_examples=80)
def test_make_equitable_matches_min_scan_fixpoint(n, rng):
    g = _dense_or_sparse(rng, n)
    pi = random_coloring(rng, n, max_colors=3)
    got = make_equitable(g, pi, list(pi.cells))
    assert list(got.cells) == naive_equitable(g, list(pi.cells))


@given(st.integers(1, 16), rngs)
@settings(max_examples=80)
def test_make_equitable_takes_alpha_cells_in_any_vertex_order(n, rng):
    # The worklist matches alpha's cells against the coloring's ascending
    # cells, so alpha given unsorted or as sets must refine the same way.
    g = random_graph(rng, n, rng.random())
    pi = random_coloring(rng, n, max_colors=3)
    alpha = rng.sample(pi.cells, rng.randint(1, pi.m))
    want_rounds, got_rounds = [], []
    want = make_equitable(g, pi, alpha, lambda *r: want_rounds.append(r))
    shuffled = [rng.sample(c, len(c)) for c in alpha]
    assert make_equitable(g, pi, shuffled, lambda *r: got_rounds.append(r)) == want
    assert got_rounds == want_rounds
    assert make_equitable(g, pi, [set(c) for c in alpha]) == want
    assert make_equitable(g, pi, [frozenset(c) for c in alpha]) == want


@pytest.mark.parametrize(
    "alpha, bad", [([(0, 1)], [0, 1]), ([(0, 1, 2), (0,)], [0])]
)
def test_make_equitable_rejects_alpha_sets_that_are_not_cells(alpha, bad):
    # The worklist only ever holds cells of the current coloring, so a set
    # that is not a cell of pi is refused on entry, by name.
    with pytest.raises(ValueError, match=re.escape(f"alpha set {bad} is not a cell")):
        make_equitable(path_graph(3), unit_coloring(3), alpha)


# ---------------------------------------------------------------------------
# refine: the laws the search and the checker both lean on
# ---------------------------------------------------------------------------


def test_refine_cycle_trace():
    c4 = cycle(4)
    pi0 = unit_coloring(4)
    assert refine(c4, pi0, ()).cells == ((0, 1, 2, 3),)
    assert refine(c4, pi0, (0,)).cells == ((0,), (2,), (1, 3))
    assert refine(c4, pi0, (0, 1)).cells == ((0,), (2,), (1,), (3,))


def test_refine_matches_naive_oracle():
    rng = random.Random(11)
    for _ in range(120):
        n = rng.randint(1, 10)
        g = random_graph(rng, n, rng.random())
        pi0 = random_coloring(rng, n)
        nu = tuple(rng.sample(range(n), rng.randint(0, min(n, 3))))
        assert list(refine(g, pi0, nu).cells) == naive_refine(g, pi0, nu)


@given(st.integers(1, 16), rngs)
@settings(max_examples=80)
def test_refine_laws(n, rng):
    g = random_graph(rng, n, rng.random())
    pi0 = random_coloring(rng, n)
    nu = tuple(rng.sample(range(n), rng.randint(0, min(n, 3))))
    pi = refine(g, pi0, nu)
    # finer than the base coloring, equitable, and nu ends up in singletons
    assert is_finer(pi, pi0)
    assert splitting_cell(g, pi) is None
    for v in nu:
        assert pi.cells[pi.colors[v]] == (v,)


@given(st.integers(2, 12), rngs)
@settings(max_examples=60)
def test_refine_is_label_invariant(n, rng):
    g = random_graph(rng, n, rng.random())
    pi0 = random_coloring(rng, n)
    nu = tuple(rng.sample(range(n), rng.randint(0, min(n, 2))))
    sigma = random_perm(rng, n)
    moved = refine(
        relabel_graph(g, sigma),
        act_coloring(pi0, sigma),
        tuple(sigma[v] for v in nu),
    )
    assert moved == act_coloring(refine(g, pi0, nu), sigma)


# ---------------------------------------------------------------------------
# target_cell
# ---------------------------------------------------------------------------


def test_target_cell_first_non_singleton():
    assert target_cell(Coloring.from_cells([(1,), (0, 2), (3, 4)])) == (0, 2)
    assert target_cell(Coloring.from_cells([(0, 1, 2)])) == (0, 1, 2)


def test_target_cell_discrete_is_none():
    assert target_cell(Coloring((2, 0, 1))) is None
