"""Graphs, colorings, permutation actions, DIMACS I/O."""

import itertools
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from graphcanon import (
    Coloring,
    DimacsError,
    Graph,
    act_coloring,
    compose,
    format_dimacs,
    graph_compare,
    identity_perm,
    invert,
    is_automorphism,
    parse_dimacs,
    relabel_graph,
    unit_coloring,
)
from graphcanon.core import edge_text
from oracle_utils import (
    brute_automorphisms,
    complete,
    cycle,
    is_finer,
    path_graph,
    random_coloring,
    random_graph,
    random_perm,
    reference_cmp_key,
    reference_edges,
    reference_format_dimacs,
    reference_json_edges,
    reference_relabel,
    rngs,
    writer_graphs,
)


# ---------------------------------------------------------------------------
# Graph
# ---------------------------------------------------------------------------


def test_from_edges_basics():
    g = Graph.from_edges(4, [(2, 1), (0, 3), (1, 2)])
    assert g.n == 4
    assert g.edges == ((0, 3), (1, 2))
    assert g.edge_count == 2
    assert g.adj[1].bit_count() == 1
    assert g.adj[1] >> 2 & 1 and g.adj[2] >> 1 & 1
    assert not g.adj[0] >> 1 & 1


def test_graph_rejects_bad_input():
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph(0, [])
    with pytest.raises(ValueError, match="row count"):
        Graph(3, [0b10, 0b01])
    with pytest.raises(ValueError):
        Graph(2, [0b100, 0])  # bit outside vertex range
    with pytest.raises(ValueError):
        Graph(2, [0b01, 0b10])  # self-loops in rows


@pytest.mark.parametrize(
    "n, adj",
    [
        (2, [0b10, 0]),  # edge 0-1 in row 0 only
        (3, [0b110, 0b001, 0b011]),  # edge 0-2 in row 0 only
    ],
)
def test_graph_rejects_asymmetric_rows(n, adj):
    with pytest.raises(ValueError, match="not symmetric"):
        Graph(n, adj)


@pytest.mark.parametrize("sigma", [(0, 0, 1), (0, 1, 3), (2, 1, -1)])
def test_relabel_graph_rejects_non_permutations(sigma):
    with pytest.raises(ValueError, match="not a permutation"):
        relabel_graph(path_graph(3), sigma)


@given(st.integers(1, 70), st.floats(0, 1), st.integers(0, 2**32))
@settings(max_examples=60)
def test_neighbors_match_reference_edges(n, p, seed):
    g = random_graph(random.Random(seed), n, p)
    want = [[] for _ in range(n)]
    for u, v in reference_edges(g):
        want[u].append(v)
        want[v].append(u)
    assert g.neighbors == tuple(tuple(sorted(vs)) for vs in want)
    assert Graph(n, g.adj).neighbors == g.neighbors


def test_graph_equality_and_hash():
    g1 = Graph.from_edges(3, [(0, 1)])
    g2 = Graph.from_edges(3, [(0, 1)])
    g3 = Graph.from_edges(3, [(1, 2)])
    assert g1 == g2 and hash(g1) == hash(g2)
    assert g1 != g3
    assert g1 != "not a graph"


def test_graph_compare_triangle_beats_path():
    # The adjacency matrix is read row-major as one big binary number, with
    # vertex 0 the most significant bit of each row. A triangle has every
    # off-diagonal bit set, so it dominates any other 3-vertex graph.
    assert graph_compare(complete(3), path_graph(3)) > 0
    assert graph_compare(path_graph(3), complete(3)) < 0
    assert graph_compare(complete(3), complete(3)) == 0


def test_graph_compare_orders_by_first_row_first():
    a = Graph.from_edges(3, [(0, 1)])  # rows 010, 100, 000
    b = Graph.from_edges(3, [(1, 2)])  # rows 000, 001, 010
    assert graph_compare(a, b) > 0


def test_graph_compare_different_sizes():
    assert graph_compare(Graph.from_edges(2, []), Graph.from_edges(3, [])) < 0


@settings(max_examples=400)
@given(st.integers(1, 9), st.integers(1, 9), rngs)
def test_graph_compare_matches_reference_key(n1, n2, rng):
    g1 = random_graph(rng, n1, rng.random())
    kind = rng.randrange(3)
    if kind == 0:
        g2 = relabel_graph(g1, random_perm(rng, n1))
    else:
        g2 = random_graph(rng, n1 if kind == 1 else n2, rng.random())
    k1 = (g1.n, reference_cmp_key(g1))
    k2 = (g2.n, reference_cmp_key(g2))
    want = (k1 > k2) - (k1 < k2)
    assert graph_compare(g1, g2) == want
    assert graph_compare(g2, g1) == -want


# ---------------------------------------------------------------------------
# Coloring
# ---------------------------------------------------------------------------


def test_coloring_cells_ordering():
    pi = Coloring((1, 0, 1, 2))
    assert pi.cells == ((1,), (0, 2), (3,))
    assert pi.m == 3
    assert not pi.discrete


def test_coloring_from_cells_round_trip():
    cells = ((2,), (0, 3), (1,))
    assert Coloring.from_cells(cells).cells == cells


def test_coloring_validation():
    with pytest.raises(ValueError):
        Coloring(())
    with pytest.raises(ValueError):
        Coloring((0, 2))  # gap: color 1 missing
    with pytest.raises(ValueError):
        Coloring((-1, 0))
    with pytest.raises(ValueError):
        Coloring((0, 2**62))  # rejected before anything is sized by the color
    with pytest.raises(ValueError):
        Coloring.from_cells([(0,), (0, 1)])  # vertex repeated
    with pytest.raises(ValueError):
        Coloring.from_cells([(0,), (2,)])  # vertex 1 missing


@pytest.mark.parametrize("cells", [[(0,), ()], [(), (0,)]], ids=["last", "first"])
def test_coloring_from_cells_rejects_an_empty_cell(cells):
    with pytest.raises(ValueError, match="is empty"):
        Coloring.from_cells(cells)


def test_discrete_coloring_is_a_permutation():
    pi = Coloring((2, 0, 1))
    assert pi.discrete
    assert pi.perm() == (2, 0, 1)
    with pytest.raises(ValueError):
        Coloring((0, 0, 1)).perm()


def test_unit_coloring():
    assert unit_coloring(4).cells == ((0, 1, 2, 3),)


def test_is_finer():
    coarse = Coloring((0, 0, 1, 1))
    fine = Coloring((0, 1, 2, 2))
    assert is_finer(fine, coarse)
    assert is_finer(coarse, coarse)
    assert not is_finer(coarse, fine)
    # same number of cells but different partition
    assert not is_finer(Coloring((0, 1, 0, 1)), Coloring((0, 0, 1, 1)))


# ---------------------------------------------------------------------------
# Permutations
# ---------------------------------------------------------------------------


@given(st.integers(1, 30), rngs)
def test_compose_invert_laws(n, rng):
    a = random_perm(rng, n)
    b = random_perm(rng, n)
    ident = identity_perm(n)
    assert compose(a, invert(a)) == ident
    assert compose(invert(a), a) == ident
    assert compose(a, ident) == a
    for v in range(n):
        assert compose(a, b)[v] == b[a[v]]


def test_relabel_graph_moves_edges():
    g = path_graph(3)  # 0-1-2
    h = relabel_graph(g, (2, 0, 1))  # vertex v gets new name sigma[v]
    assert h.edges == ((0, 1), (0, 2))


@given(st.integers(2, 16), rngs)
def test_relabel_graph_is_action(n, rng):
    g = random_graph(rng, n)
    a = random_perm(rng, n)
    b = random_perm(rng, n)
    assert relabel_graph(relabel_graph(g, a), b) == relabel_graph(g, compose(a, b))
    assert relabel_graph(g, identity_perm(n)) == g


@pytest.mark.parametrize("n", [1, 7, 8, 9, 63, 64, 65, 130, 255, 256, 257])
def test_set_bit_kernels_match_bit_by_bit_reference(n):
    rng = random.Random(n)
    for p in (0.0, 0.05, 0.5, 0.95, 1.0):
        g = random_graph(rng, n, p)
        sigma = random_perm(rng, n)
        edges = reference_edges(g)
        assert g.edges == edges
        nbrs = [[] for _ in range(n)]
        for u, v in edges:
            nbrs[u].append(v)
            nbrs[v].append(u)
        assert g.neighbors == tuple(tuple(sorted(vs)) for vs in nbrs)
        # Graph(n, adj) decodes its lists to check symmetry; _valid does not.
        fresh = Graph._valid(n, g.adj)
        assert "neighbors" not in fresh.__dict__
        image = relabel_graph(fresh, sigma)
        assert image == relabel_graph(Graph(n, g.adj), sigma)
        assert image == reference_relabel(g, sigma)


def test_act_coloring():
    pi = Coloring((0, 0, 1))
    sigma = (1, 2, 0)
    # vertex v (new name sigma[v]) keeps its old color
    assert act_coloring(pi, sigma).colors == (1, 0, 0)


@given(st.integers(2, 12), rngs)
def test_act_coloring_maps_cells_pointwise(n, rng):
    pi = random_coloring(rng, n)
    sigma = random_perm(rng, n)
    moved = act_coloring(pi, sigma)
    assert moved.m == pi.m
    for before, after in zip(pi.cells, moved.cells):
        assert after == tuple(sorted(sigma[v] for v in before))


def test_is_automorphism():
    c4 = cycle(4)
    pi0 = unit_coloring(4)
    assert is_automorphism(c4, pi0, (1, 2, 3, 0))  # rotation
    assert is_automorphism(c4, pi0, (0, 3, 2, 1))  # reflection
    assert not is_automorphism(c4, pi0, (1, 0, 2, 3))
    assert not is_automorphism(c4, pi0, (0, 0, 2, 3))  # not a bijection
    # automorphisms must also fix the coloring
    colored = Coloring((0, 1, 0, 1))
    assert is_automorphism(c4, colored, (2, 3, 0, 1))
    assert not is_automorphism(c4, colored, (1, 2, 3, 0))


def _automorphism_by_relabelling(g, pi0, sigma):
    """The definition: ``sigma`` is a permutation, ``G^sigma == G`` by the
    pair-by-pair ``reference_relabel``, and every vertex keeps its color."""
    if sorted(sigma) != list(range(g.n)):
        return False
    keeps = all(pi0.colors[sigma[v]] == c for v, c in enumerate(pi0.colors))
    return keeps and reference_relabel(g, sigma) == g


def _near_twins(rng, n):
    """A graph on ``n > 2`` vertices in which ``b`` has the neighbours of ``a``
    but for ``x``, and the transposition of ``a`` and ``b``, which maps
    exactly the pairs ``{a, x}`` and ``{b, x}`` wrongly: no automorphism, but
    only the edges at ``a``, ``b`` and ``x`` show it."""
    a, b, x = rng.sample(range(n), 3)
    rest = [v for v in range(n) if v not in (a, b)]
    common = {v for v in rest if rng.random() < 0.5}
    edges = [e for e in itertools.combinations(rest, 2) if rng.random() < 0.4]
    edges += [(a, y) for y in common] + [(b, y) for y in common ^ {x}]
    sigma = list(range(n))
    sigma[a], sigma[b] = b, a
    return Graph.from_edges(n, edges), tuple(sigma)


def test_is_automorphism_matches_the_relabelling_definition():
    """``is_automorphism`` is the definition: on true automorphisms of
    the uncolored graph (some breaking a random coloring), the same with two
    images swapped, transpositions of near twins, random permutations, maps
    with a repeated or out-of-range value, and maps one too short or too
    long."""
    outcomes = set()
    for seed in range(150):
        rng = random.Random(seed)
        n = rng.randint(1, 7)
        graphs = [complete(n), random_graph(rng, n, 0.4)] + ([cycle(n)] if n > 2 else [])
        g = rng.choice(graphs)
        pi0 = rng.choice([unit_coloring(n), random_coloring(rng, n)])
        auto = list(rng.choice(brute_automorphisms(g, unit_coloring(n))))
        sigmas = [tuple(auto), random_perm(rng, n), random_perm(rng, n) + (n,)]
        sigmas.append(random_perm(rng, n)[:-1])
        a, b = rng.randrange(n), rng.randrange(n)
        auto[a], auto[b] = auto[b], auto[a]
        sigmas.append(tuple(auto))
        bad = list(random_perm(rng, n))
        bad[rng.randrange(n)] = rng.choice([n, bad[0]])
        sigmas.append(tuple(bad))
        cases = [(g, pi0, sigma) for sigma in sigmas]
        if n > 2:
            twins, sigma = _near_twins(rng, rng.randint(n, 12))
            cases.append((twins, unit_coloring(twins.n), sigma))
        for h, colors, sigma in cases:
            want = _automorphism_by_relabelling(h, colors, sigma)
            assert is_automorphism(h, colors, sigma) == want, (h, colors, sigma)
            outcomes.add((want, len(sigma) == h.n and sorted(sigma) == list(range(h.n))))
    # Both answers on permutations, and non-permutations, were drawn.
    assert outcomes == {(True, True), (False, True), (False, False)}


# ---------------------------------------------------------------------------
# DIMACS
# ---------------------------------------------------------------------------


def test_parse_dimacs_round_trip():
    text = "c a comment\np edge 4 3\ne 1 2\ne 2 3\ne 1 4\n"
    g = parse_dimacs(text)
    assert g.n == 4
    assert g.edges == ((0, 1), (0, 3), (1, 2))
    again = parse_dimacs(format_dimacs(g))
    assert again == g


def test_parse_dimacs_ignores_duplicates_and_blank_lines():
    g = parse_dimacs("p edge 3 2\n\ne 1 2\ne 2 1\n")
    assert g.edges == ((0, 1),)


@pytest.mark.parametrize(
    "text",
    [
        "e 1 2\n",  # missing header
        "p edge 0 0\n",  # empty vertex set
        "p edge 3 1\ne 1 1\n",  # self-loop
        "p edge 3 1\ne 1 4\n",  # vertex out of range
        "p edge 3 1\ne 1\n",  # malformed edge line
        "p edge x 1\n",  # malformed header
        "p edge 3 1\np edge 3 1\n",  # repeated header
        "p edge 3 1\nq 1 2\n",  # unknown line type
        "p edge 1_0 0\n",  # underscore in a number
        "p edge 3 1\ne +1 2\n",  # signed number
        "p edge 3 1\ne \u0661 2\n",  # non-ASCII digit
        "p edge 3 foo\n",  # non-numeric edge count
    ],
)
def test_parse_dimacs_rejects(text):
    with pytest.raises(DimacsError):
        parse_dimacs(text)


@pytest.mark.parametrize(
    "text, message",
    [
        ("p edge 1_0 0\n", "line 1: bad vertex count"),
        ("p edge \u0663 0\n", "line 1: bad vertex count"),
        ("p edge 3 2\ne 1 2\ne +1 3\n", "line 3: bad edge endpoints"),
        ("p edge 3 1\ne 1 \u0662\n", "line 2: bad edge endpoints"),
        ("p edge 3 foo\n", "line 1: expected 'p edge N M'"),
        ("p edge 3 \u0661\n", "line 1: expected 'p edge N M'"),
        ("p edge 3 1\ne 1 " + "9" * 5000 + "\n", "line 2: bad edge endpoints"),
        ("p edge " + "9" * 5000 + " 0\n", "line 1: bad vertex count"),
    ],
)
def test_parse_dimacs_numbers_are_ascii_digits(text, message):
    with pytest.raises(DimacsError, match=f"^{re.escape(message)}$"):
        parse_dimacs(text)


def test_parse_dimacs_never_converts_the_edge_count():
    """Past Python's 4,300-digit ``int`` limit, an edge count still parses."""
    g = parse_dimacs("p edge 3 " + "9" * 5000 + "\n")
    assert (g.n, g.edges) == (3, ())


_TOKENS = ["p", "edge", "e", "c", "0", "1", "2", "3", "7", "01", "100", "+1", "1_0", "\u0661", "x"]
_SPACES = ["  ", "\t", " \x0b ", "\x1f", "\r", "\x1c"]
_BREAKS = ["\r\n", "\r", "\n\n", " \n", "\n ", "\nc\n", "\x1c", "\u2028", " "]


@st.composite
def _dimacs_like_texts(draw):
    """A valid DIMACS text with up to two slips: a wrong token, one token
    too few or too many, other whitespace, or another line break. Vertex
    counts have one to three digits; edge lines repeat and come reversed."""
    n = draw(st.integers(2, 7) | st.integers(8, 999))
    vertex = st.integers(1, n).map(str)
    pair = st.tuples(st.integers(1, n), st.integers(1, n)).filter(lambda e: e[0] != e[1])
    edges = draw(st.lists(pair, max_size=12))
    if edges:  # some edge lines again, as drawn or reversed
        for u, v in draw(st.lists(st.sampled_from(edges), max_size=4)):
            edges.append((v, u) if draw(st.booleans()) else (u, v))
        edges = draw(st.permutations(edges))
    lines = [["p", "edge", str(n), draw(vertex)]]
    lines += [["e", str(u), str(v)] for u, v in edges]
    spaces, breaks = [" "] * len(lines), ["\n"] * len(lines)
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(lines) - 1))
        slip = draw(st.integers(0, 3))
        if slip == 0:
            j = draw(st.integers(0, len(lines[i]) - 1))
            lines[i][j] = draw(st.sampled_from(_TOKENS))
        elif slip == 1 and draw(st.booleans()):
            lines[i].pop()
        elif slip == 1:
            lines[i].append(draw(vertex))
        elif slip == 2:
            spaces[i] = draw(st.sampled_from(_SPACES))
        else:
            breaks[i] = draw(st.sampled_from(_BREAKS))
    text = "".join(sp.join(line) + br for line, sp, br in zip(lines, spaces, breaks))
    return text[:-1] if draw(st.booleans()) else text


def _parsed(text, shift=0):
    try:
        return parse_dimacs(text)
    except DimacsError as exc:
        return re.sub(r"^line (\d+)", lambda m: f"line {int(m[1]) - shift}", str(exc))


@settings(max_examples=400)
@given(_dimacs_like_texts())
def test_parse_dimacs_bulk_path_agrees_with_line_loop(text):
    """A leading comment line sends any text to the line loop; with its line
    numbers shifted back, the outcome must be the same graph or error."""
    assert _parsed(text) == _parsed("c\n" + text, shift=1)


def test_edge_writers_match_the_per_edge_references():
    for g in writer_graphs():
        assert format_dimacs(g) == reference_format_dimacs(g), g.n
        assert f"[{edge_text(g, '[{}, {}]', ', ')}]" == reference_json_edges(g), g.n


def test_format_dimacs_is_one_based():
    out = format_dimacs(Graph.from_edges(2, [(0, 1)]))
    assert "p edge 2 1" in out
    assert "e 1 2" in out


def test_dimacs_fuzz_round_trip():
    rng = random.Random(42)
    for _ in range(50):
        g = random_graph(rng, rng.randint(1, 20), rng.random())
        assert parse_dimacs(format_dimacs(g)) == g
