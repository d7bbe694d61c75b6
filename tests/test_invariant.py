"""Quotient graphs and the node invariant hash."""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from graphcanon import (
    Coloring,
    Graph,
    act_coloring,
    hash_colored,
    refine,
    relabel_graph,
    unit_coloring,
)
from graphcanon.invariant import _fnv1a
from oracle_utils import (
    cfi,
    complete,
    cycle,
    random_coloring,
    random_graph,
    random_perm,
    reference_fnv1a,
    reference_hash,
    reference_quotient,
    rngs,
)


def _random_equitable(rng, g):
    """``hash_colored`` takes equitable colorings only: refine a random one
    after individualizing a few random vertices."""
    pi0 = random_coloring(rng, g.n)
    nu = [rng.randrange(g.n) for _ in range(rng.randint(0, 4))]
    return refine(g, pi0, nu)


def test_quotient_graph_cycle():
    q = reference_quotient(cycle(4), Coloring.from_cells([(0,), (2,), (1, 3)]))
    # 3 cells of sizes 1, 1, 2, then pair counts in (i, j) order for i <= j;
    # within-cell counts halved
    assert q == (3, 1, 1, 2, 0, 0, 2, 0, 2, 0)


def test_quotient_graph_unit():
    assert reference_quotient(cycle(4), unit_coloring(4)) == (1, 4, 4)


def test_hash_colored_goldens():
    # Frozen values, derived independently of this implementation.
    c4 = cycle(4)
    assert hash_colored(c4, unit_coloring(4)) == 16524175872542382866
    assert (
        hash_colored(c4, Coloring.from_cells([(0,), (2,), (1, 3)]))
        == 5407533569738538226
    )
    assert (
        hash_colored(c4, Coloring.from_cells([(0,), (2,), (1,), (3,)]))
        == 12622867803377768761
    )


def test_hash_sees_cell_order():
    c4 = cycle(4)
    a = hash_colored(c4, Coloring.from_cells([(0,), (2,), (1, 3)]))
    # Swapping the two singleton cells gives the same quotient by symmetry
    # of this particular instance, hence the same hash...
    b = hash_colored(c4, Coloring.from_cells([(2,), (0,), (1, 3)]))
    assert a == b
    # ...but moving the big cell to the front changes the sizes vector.
    c = hash_colored(c4, Coloring.from_cells([(1, 3), (0,), (2,)]))
    assert c != a
    k3 = cycle(3)
    d1 = hash_colored(k3, Coloring.from_cells([(0,), (1, 2)]))
    d2 = hash_colored(k3, Coloring.from_cells([(1, 2), (0,)]))
    assert d1 != d2


@given(st.integers(1, 16), rngs)
@settings(max_examples=80)
def test_hash_is_label_invariant(n, rng):
    g = random_graph(rng, n, rng.random())
    pi = _random_equitable(rng, g)
    sigma = random_perm(rng, n)
    assert hash_colored(relabel_graph(g, sigma), act_coloring(pi, sigma)) == (
        hash_colored(g, pi)
    )


def test_no_collisions_over_small_random_pool():
    # Not a guarantee, just a regression tripwire: hashes over a pool of
    # small colored graphs should all be distinct quotients or equal words.
    rng = random.Random(9)
    seen = {}
    for _ in range(400):
        n = rng.randint(1, 10)
        g = random_graph(rng, n, rng.random())
        pi = _random_equitable(rng, g)
        h = hash_colored(g, pi)
        words = reference_quotient(g, pi)
        if h in seen:
            assert seen[h] == words, "FNV collision on distinct quotients"
        seen[h] = words


# Edge words for the zero-byte skipping: the small-word branch's bounds, a
# word with inner zero bytes, and the largest word.
_WORDS = st.one_of(
    st.sampled_from([0, 255, 256, 0x0100000001, 2**64 - 1]),
    st.integers(0, 300),
    st.integers(0, 2**64 - 1),
)


# Each word with the zero words before it; runs past 64 words outrun the table.
@given(st.lists(st.tuples(st.integers(0, 150), _WORDS), max_size=12))
@settings(max_examples=300)
def test_fnv1a_matches_byte_by_byte_reference(runs):
    gaps = [gap for gap, _ in runs]
    words = [w for _, w in runs]
    assert _fnv1a(words, [0] * len(words)) == reference_fnv1a(words)
    stream = [x for gap, w in runs for x in (*[0] * gap, w)]
    assert _fnv1a(words, gaps) == reference_fnv1a(stream)


@pytest.mark.parametrize("word", [-1, -255, -(2**64), 2**64, 2**70])
def test_fnv1a_rejects_words_outside_64_bits(word):
    with pytest.raises(OverflowError):
        reference_fnv1a([word])
    with pytest.raises(OverflowError):
        _fnv1a([3, word], [0, 0])


_K4 = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]

# Graphs up to 70 vertices: sparse ones give zero runs across rows and at the
# end of the stream, empty ones nothing but zeros, complete ones (from 24
# vertices) edge counts of more than one byte, and the CFI graph over K4 the
# colorings refinement cannot split that the search hashes most.
_HASH_GRAPHS = st.one_of(
    st.builds(
        lambda n, rng: random_graph(rng, n, rng.random()),
        st.integers(1, 16),
        rngs,
    ),
    st.builds(
        lambda n, p, seed: random_graph(random.Random(seed), n, p),
        st.integers(17, 70),
        st.sampled_from([0.02, 0.1, 0.5, 0.9]),
        st.integers(0, 2**32),
    ),
    st.builds(lambda n: Graph.from_edges(n, []), st.integers(1, 70)),
    st.builds(complete, st.integers(1, 70)),
    st.just(cfi(_K4)),
)


@given(_HASH_GRAPHS, rngs)
@settings(max_examples=150)
@example(Graph.from_edges(40, []), random.Random(1))
@example(complete(70), random.Random(5))
@example(cfi(_K4), random.Random(3))
@example(cycle(60), random.Random(4))
def test_equitable_hash_matches_general_hash(g, rng):
    pi = _random_equitable(rng, g)
    assert hash_colored(g, pi) == reference_hash(g, pi)
