"""Colored graphs, permutation actions, and the orderings everything else builds on.

Vertices are 0-based ints throughout: a graph on ``n`` vertices has vertex set
``{0, ..., n-1}``. Adjacency is stored as one int bitmask per vertex (bit ``v``
of ``adj[u]`` is set iff ``u ~ v``), which keeps the refinement hot loops on
``int.bit_count`` instead of set algebra. On first use a graph decodes its rows
a byte at a time into the neighbor lists that hashing and relabelling read.

A :class:`Coloring` is a surjective map onto ``{0, ..., m-1}``, i.e. an ordered
partition of the vertex set into ``m`` cells (cell ``i`` holds the vertices of
color ``i``).  A discrete coloring (``m == n``) doubles as a permutation: the
color tuple itself maps each vertex to its new label.

Permutations are plain tuples ``sigma`` with ``sigma[v]`` the image of ``v``.
Composition is left to right: ``compose(a, b)[v] == b[a[v]]``.
"""

from __future__ import annotations

from functools import cached_property
from itertools import accumulate, chain, compress, cycle, repeat
from typing import Iterable, Sequence

# Largest integer a proof can carry, hence the largest vertex count.
MAX_WIRE_INT = (1 << 31) - 1

# The set bit positions of each byte value, ascending: for b < 2**i, entry
# b + 2**i is entry b followed by i.
_BYTE_BITS: list[tuple[int, ...]] = [()]
for _i in range(8):
    _BYTE_BITS += [bits + (_i,) for bits in _BYTE_BITS]


def _set_bits(rows: Iterable[int], n: int) -> list[int]:
    """The set bit positions of rows below ``2**n``, ascending, row after row,
    decoded a byte at a time (zero bytes skipped)."""
    nbytes = (n + 7) // 8
    data = b"".join([row.to_bytes(nbytes, "little") for row in rows])
    starts = zip(cycle(range(0, 8 * nbytes, 8)), data)
    return [k + i for k, b in compress(starts, data) for i in _BYTE_BITS[b]]


class Graph:
    """An undirected simple graph with bitmask adjacency rows."""

    __slots__ = ("n", "adj", "__dict__")

    def __init__(self, n: int, adj: Sequence[int]):
        if n <= 0:
            raise ValueError("graph must have at least one vertex")
        if len(adj) != n:
            raise ValueError("adjacency row count does not match n")
        self.n = n
        self.adj = tuple(adj)
        for u, row in enumerate(self.adj):
            if row >> n:
                raise ValueError("adjacency bits outside vertex range")
            if row >> u & 1:
                raise ValueError("self-loops are not allowed")
        adj = self.adj
        if any(not adj[v] >> u & 1 for u, vs in enumerate(self.neighbors) for v in vs):
            raise ValueError("adjacency rows are not symmetric")

    @classmethod
    def _valid(cls, n: int, adj: Sequence[int]) -> "Graph":
        """A graph on ``n > 0`` rows that are valid by construction: in range,
        loop-free and symmetric. Skips the checks of ``__init__``."""
        g = cls.__new__(cls)
        g.n, g.adj = n, tuple(adj)
        return g

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        if n <= 0:
            raise ValueError("graph must have at least one vertex")
        adj = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) outside vertex range")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return cls._valid(n, adj)

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Sorted tuple of edges, each as ``(u, v)`` with ``u < v``."""
        rows = [row >> (u + 1) << (u + 1) for u, row in enumerate(self.adj)]
        us = chain.from_iterable(map(repeat, range(self.n), map(int.bit_count, rows)))
        return tuple(zip(us, _set_bits(rows, self.n)))

    @cached_property
    def neighbors(self) -> tuple[tuple[int, ...], ...]:
        """Each vertex's neighbors, ascending, as :func:`relabel_graph` reads them."""
        flat = _set_bits(self.adj, self.n)
        ends = list(accumulate(map(int.bit_count, self.adj), initial=0))
        return tuple(tuple(flat[a:b]) for a, b in zip(ends, ends[1:]))

    @property
    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Graph) and self.n == other.n and self.adj == other.adj
        )

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={list(self.edges)})"


class Coloring:
    """An ordered partition of ``{0..n-1}``; color ``i`` is the ``i``-th cell."""

    __slots__ = ("colors", "__dict__")

    def __init__(self, colors: Sequence[int]):
        colors = tuple(colors)
        if not colors:
            raise ValueError("coloring of an empty vertex set")
        if min(colors) < 0:
            raise ValueError("negative color")
        # Counted, not indexed, so nothing is sized by the largest color.
        if len(set(colors)) != max(colors) + 1:
            raise ValueError("colors must cover 0..m-1 with no gaps")
        self.colors = colors

    @classmethod
    def from_cells(cls, cells: Sequence[Sequence[int]]) -> "Coloring":
        n = sum(len(c) for c in cells)
        colors = [-1] * n
        for i, cell in enumerate(cells):
            if not cell:
                raise ValueError(f"cell {i} is empty")
            for v in cell:
                if not (0 <= v < n) or colors[v] != -1:
                    raise ValueError("cells must partition the vertex set")
                colors[v] = i
        return cls(colors)

    @classmethod
    def _valid(cls, cells: Sequence[tuple[int, ...]]) -> "Coloring":
        """The coloring with ``cells``, which are valid by construction: non-empty,
        ascending and a partition of ``0..n-1``. Skips the checks of
        ``from_cells`` and caches ``cells`` as given."""
        colors = [0] * sum(map(len, cells))
        for i, cell in enumerate(cells):
            for v in cell:
                colors[v] = i
        pi = cls.__new__(cls)
        pi.colors = tuple(colors)
        pi.__dict__["cells"] = tuple(cells)
        return pi

    @property
    def n(self) -> int:
        return len(self.colors)

    @cached_property
    def cells(self) -> tuple[tuple[int, ...], ...]:
        """Cells in color order, each cell's vertices ascending."""
        m = max(self.colors) + 1
        buckets: list[list[int]] = [[] for _ in range(m)]
        for v, c in enumerate(self.colors):
            buckets[c].append(v)
        return tuple(tuple(b) for b in buckets)

    @property
    def m(self) -> int:
        return len(self.cells)

    @property
    def discrete(self) -> bool:
        return self.m == self.n

    def perm(self) -> tuple[int, ...]:
        """The permutation ``v -> color(v)`` defined by a discrete coloring."""
        if not self.discrete:
            raise ValueError("only a discrete coloring defines a permutation")
        return self.colors

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Coloring) and self.colors == other.colors

    def __hash__(self) -> int:
        return hash(self.colors)

    def __repr__(self) -> str:
        inner = " | ".join(" ".join(str(v) for v in cell) for cell in self.cells)
        return f"Coloring[{inner}]"


def unit_coloring(n: int) -> Coloring:
    """The coarsest coloring: every vertex in one cell."""
    return Coloring([0] * n)


def identity_perm(n: int) -> tuple[int, ...]:
    return tuple(range(n))


def compose(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    """Left-to-right composition: apply ``a`` first, then ``b``."""
    return tuple(b[x] for x in a)


def invert(a: Sequence[int]) -> tuple[int, ...]:
    inv = [0] * len(a)
    for x, y in enumerate(a):
        inv[y] = x
    return tuple(inv)


def relabel_graph(g: Graph, sigma: Sequence[int]) -> Graph:
    """The graph ``G^sigma``: edge ``(u, v)`` becomes ``(sigma[u], sigma[v])``.

    ``sigma`` must be a permutation of the vertices, else :class:`ValueError`.
    Each image row is the sum of the images' bits over ``g.neighbors``, so
    every relabelling of ``g`` after the first reads its cached lists.
    """
    if sorted(sigma) != list(range(g.n)):
        raise ValueError("sigma is not a permutation of the vertices")
    bit = [1 << s for s in sigma]
    adj = [0] * g.n
    for u, vs in zip(sigma, g.neighbors):
        adj[u] = sum(map(bit.__getitem__, vs))
    return Graph._valid(g.n, adj)


def act_coloring(pi: Coloring, sigma: Sequence[int]) -> Coloring:
    """The coloring ``pi^sigma`` with ``pi^sigma(sigma[v]) == pi(v)``."""
    colors = [0] * pi.n
    for v, c in enumerate(pi.colors):
        colors[sigma[v]] = c
    return Coloring(colors)


def graph_compare(g1: Graph, g2: Graph) -> int:
    """Total order on graphs: by vertex count, then by adjacency-matrix bits.

    The matrix is read row-major with vertex 0 most significant, so the graph
    whose first differing entry is 1 compares greater. Returns -1, 0 or 1.
    """
    if g1.n != g2.n:
        return -1 if g1.n < g2.n else 1
    for a, b in zip(g1.adj, g2.adj):
        if a != b:
            # Vertex v is bit v of a row, so the first differing entry is
            # the lowest set bit of a ^ b.
            diff = a ^ b
            return 1 if a & diff & -diff else -1
    return 0


def is_automorphism(g: Graph, pi0: Coloring, sigma: Sequence[int]) -> bool:
    """True iff ``sigma`` maps the colored graph ``(G, pi0)`` onto itself."""
    try:
        image = relabel_graph(g, sigma)  # the one permutation check
    except ValueError:
        return False
    colors = pi0.colors
    return image == g and all(colors[sigma[v]] == c for v, c in enumerate(colors))


class DimacsError(ValueError):
    """Raised for unreadable DIMACS input."""


def _decimal(token: str) -> bool:
    return token.isascii() and token.isdigit()


def _natural(token: str) -> int:
    if not _decimal(token):
        raise ValueError(token)
    return int(token)


def parse_dimacs(text: str) -> Graph:
    """Read a graph in DIMACS ``p edge`` format (1-based vertices).

    Comment lines start with ``c``. Duplicate and reversed edge lines are
    ignored; the edge count in the header is not enforced. Numbers are ASCII
    decimal digits. Self-loops are rejected: this toolkit handles simple
    graphs only.
    """
    # Bulk path: only spaces and line feeds, a header line, then one edge per
    # line (every line feed but a final one opens one). Else the line loop.
    tok = text.split()
    m = (len(tok) - 4) // 3
    if (
        tok[:2] == ["p", "edge"]
        and len(tok) % 3 == 1
        and tok[4::3].count("e") == m
        and _decimal("".join(tok[2:4] + tok[5::3] + tok[6::3]))
        and text.count("\n") - text.endswith("\n") == m == text.count("\ne ")
        and len(text) == sum(map(len, tok)) + text.count(" ") + text.count("\n")
    ):
        try:  # from_edges rejects n = 0, endpoints out of range and self-loops
            us, vs = ([int(t) - 1 for t in tok[j::3]] for j in (5, 6))
            if int(tok[2]) <= MAX_WIRE_INT:
                return Graph.from_edges(int(tok[2]), zip(us, vs))
        except ValueError:
            pass
    n = None
    edges: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if n is not None:
                raise DimacsError(f"line {lineno}: duplicate problem line")
            if len(parts) != 4 or parts[1] != "edge" or not _decimal(parts[3]):
                raise DimacsError(f"line {lineno}: expected 'p edge N M'")
            try:
                n = _natural(parts[2])
            except ValueError as exc:
                raise DimacsError(f"line {lineno}: bad vertex count") from exc
            if not 0 < n <= MAX_WIRE_INT:
                raise DimacsError(
                    f"line {lineno}: vertex count must be in 1..{MAX_WIRE_INT}"
                )
        elif parts[0] == "e":
            if n is None:
                raise DimacsError(f"line {lineno}: edge before problem line")
            if len(parts) != 3:
                raise DimacsError(f"line {lineno}: expected 'e U V'")
            try:
                u, v = _natural(parts[1]), _natural(parts[2])
            except ValueError as exc:
                raise DimacsError(f"line {lineno}: bad edge endpoints") from exc
            if not (1 <= u <= n and 1 <= v <= n):
                raise DimacsError(f"line {lineno}: endpoint outside 1..{n}")
            if u == v:
                raise DimacsError(f"line {lineno}: self-loop at {u}")
            a, b = min(u, v) - 1, max(u, v) - 1
            edges.add((a, b))
        else:
            raise DimacsError(f"line {lineno}: unrecognized line {parts[0]!r}")
    if n is None:
        raise DimacsError("missing problem line")
    return Graph.from_edges(n, edges)


def format_dimacs(g: Graph) -> str:
    """Render a graph back to DIMACS ``p edge`` text (1-based vertices)."""
    lines = [f"p edge {g.n} {len(g.edges)}"]
    lines += [f"e {u + 1} {v + 1}" for u, v in g.edges]
    return "\n".join(lines) + "\n"
