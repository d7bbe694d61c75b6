"""Seeded inputs of the benchmark workloads.

Each workload is a list of graphs and a list of pairs with an answer known
apart from the program. Every graph is relabelled by a permutation drawn
from the workload seed, and the isomorphic partner of a pair is a second,
independently relabelled copy, so the program only ever sees shuffled
DIMACS files. Nothing here imports graphcanon.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations

import oracle


@dataclass(frozen=True)
class Graph:
    name: str
    n: int
    edges: frozenset[tuple[int, int]]

    def dimacs(self) -> str:
        lines = [f"p edge {self.n} {len(self.edges)}"]
        lines += [f"e {u + 1} {v + 1}" for u, v in sorted(self.edges)]
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Pair:
    first: str
    second: str
    isomorphic: bool
    why: str


@dataclass
class Workload:
    name: str
    graphs: list[Graph]
    pairs: list[Pair]

    def graph(self, name: str) -> Graph:
        return next(g for g in self.graphs if g.name == name)


# ---------------------------------------------------------------------------
# Graph families, on vertices 0..n-1
# ---------------------------------------------------------------------------


def complete(n: int):
    return n, oracle.edge_set(combinations(range(n), 2))


def empty(n: int):
    return n, frozenset()


def cycles(k: int, m: int):
    """``k`` disjoint cycles of length ``m``."""
    edges = [(c * m + i, c * m + (i + 1) % m) for c in range(k) for i in range(m)]
    return k * m, oracle.edge_set(edges)


def hypercube(d: int):
    n = 1 << d
    return n, oracle.edge_set((x, x ^ (1 << b)) for x in range(n) for b in range(d))


def rook(a: int, b: int):
    """The rook's graph K_a x K_b: cells of one row or one column are adjacent."""
    cells = [(i, j) for i in range(a) for j in range(b)]
    edges = [
        (x, y)
        for x, y in combinations(range(len(cells)), 2)
        if (cells[x][0] == cells[y][0]) != (cells[x][1] == cells[y][1])
    ]
    return len(cells), oracle.edge_set(edges)


def shrikhande():
    """Cayley graph of Z4 x Z4 on {±(0,1), ±(1,0), ±(1,1)}: srg(16, 6, 2, 2)
    like the 4x4 rook's graph, but without a 4-clique."""
    steps = {(0, 1), (0, 3), (1, 0), (3, 0), (1, 1), (3, 3)}
    edges = [
        (4 * a + b, 4 * c + d)
        for a in range(4)
        for b in range(4)
        for c in range(4)
        for d in range(4)
        if ((a - c) % 4, (b - d) % 4) in steps
    ]
    return 16, oracle.edge_set(edges)


def paley(q: int):
    """Paley graph of a prime ``q = 1 mod 4``: differences that are squares."""
    squares = {x * x % q for x in range(1, q)}
    return q, oracle.edge_set(
        (a, b) for a, b in combinations(range(q), 2) if (a - b) % q in squares
    )


def triangular(k: int):
    """T(k), the line graph of K_k: 2-subsets of ``range(k)`` that meet."""
    pairs = list(combinations(range(k), 2))
    edges = [
        (x, y)
        for x, y in combinations(range(len(pairs)), 2)
        if set(pairs[x]) & set(pairs[y])
    ]
    return len(pairs), oracle.edge_set(edges)


# Switching sets of the three Chang graphs, as edges of K8 (vertices of T(8)):
# a perfect matching, an 8-cycle, and a triangle plus a 5-cycle.
CHANG_SWITCHES = {
    1: [(0, 1), (2, 3), (4, 5), (6, 7)],
    2: [(i, (i + 1) % 8) for i in range(8)],
    3: [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6), (6, 7), (3, 7)],
}


def chang(which: int):
    """A Chang graph: T(8) Seidel-switched on a set of its vertices.

    All three are srg(28, 12, 6, 4) like T(8) itself, so refinement cannot
    split them, but their automorphism groups are far smaller than T(8)'s.
    """
    n, edges = triangular(8)
    index = {p: i for i, p in enumerate(combinations(range(8), 2))}
    switched = {index[tuple(sorted(e))] for e in CHANG_SWITCHES[which]}
    flip = {
        (u, v)
        for u, v in combinations(range(n), 2)
        if (u in switched) != (v in switched)
    }
    return n, edges ^ flip


def spider(legs):
    """A centre with one path per leg; distinct leg lengths make it rigid."""
    edges = []
    n = 1
    for length in legs:
        prev = 0
        for _ in range(length):
            edges.append((prev, n))
            prev = n
            n += 1
    return n, oracle.edge_set(edges)


def gnp(rng: random.Random, n: int, p: float):
    return n, oracle.edge_set(
        (u, v) for u, v in combinations(range(n), 2) if rng.random() < p
    )


# 3-regular connected bases of the CFI graphs.
CFI_BASES = {
    "k4": list(combinations(range(4), 2)),
    "k33": [(a, b) for a in range(3) for b in range(3, 6)],
}


def cfi(base, twisted: set[int]):
    """Cai-Fuerer-Immerman graph over a 3-regular base with edge list ``base``.

    Each base vertex ``v`` becomes four middle vertices, one per even subset
    ``S`` of its incident edges, and two end vertices ``(e, 0)``, ``(e, 1)``
    per incident edge ``e``; middle ``S`` meets ``(e, 1)`` when ``e`` is in
    ``S`` and ``(e, 0)`` otherwise. Base edge ``e = uv`` joins ``(e, i)`` at
    ``u`` to ``(e, i)`` at ``v``, or to ``(e, 1 - i)`` when ``e`` is twisted.
    Over a connected base, an odd number of twists gives a graph not
    isomorphic to the untwisted one.
    """
    incident: dict[int, list[int]] = {}
    for e, (u, v) in enumerate(base):
        incident.setdefault(u, []).append(e)
        incident.setdefault(v, []).append(e)
    ids: dict[tuple, int] = {}

    def vid(key) -> int:
        return ids.setdefault(key, len(ids))

    edges = []
    for v in sorted(incident):
        inc = incident[v]
        for mask in range(1 << len(inc)):
            if bin(mask).count("1") % 2:
                continue
            for pos, e in enumerate(inc):
                edges.append((vid(("m", v, mask)), vid(("a", v, e, mask >> pos & 1))))
    for e, (u, v) in enumerate(base):
        t = 1 if e in twisted else 0
        for i in (0, 1):
            edges.append((vid(("a", u, e, i)), vid(("a", v, e, i ^ t))))
    return len(ids), oracle.edge_set(edges)


def triangle_changing_swap(rng: random.Random, n: int, edges):
    """A degree-preserving double-edge swap ``ab, cd -> ad, cb`` that changes
    the triangle count, so the result is not isomorphic to the input."""
    edges = oracle.edge_set(edges)
    before = oracle.triangles(n, edges)
    order = sorted(edges)
    for _ in range(1000):
        (a, b), (c, d) = rng.sample(order, 2)
        if rng.random() < 0.5:
            c, d = d, c
        new1, new2 = (min(a, d), max(a, d)), (min(c, b), max(c, b))
        if len({a, b, c, d}) < 4 or new1 in edges or new2 in edges:
            continue
        swapped = (edges - {(a, b), (min(c, d), max(c, d))}) | {new1, new2}
        if oracle.triangles(n, swapped) != before:
            return swapped
    raise ValueError("no triangle-changing swap found")


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def _shuffled(rng: random.Random, name: str, graph) -> Graph:
    n, edges = graph
    perm = list(range(n))
    rng.shuffle(perm)
    return Graph(name, n, oracle.relabel(edges, perm))


class _Builder:
    def __init__(self, name: str, seed: int):
        self.rng = random.Random(f"{name}:{seed}")
        self.workload = Workload(name, [], [])

    def add(self, name: str, graph) -> str:
        self.workload.graphs.append(_shuffled(self.rng, name, graph))
        return name

    def iso_pair(self, name: str, graph) -> None:
        first = self.add(name, graph)
        second = self.add(name + "-relabelled", graph)
        self.workload.pairs.append(Pair(first, second, True, "relabelled copy"))

    def non_iso_pair(self, first: str, second: str, why: str) -> None:
        self.workload.pairs.append(Pair(first, second, False, why))


def symmetric(seed: int) -> Workload:
    b = _Builder("symmetric", seed)
    b.iso_pair("K14", complete(14))
    b.add("E12", empty(12))
    b.add("Q5", hypercube(5))
    b.iso_pair("Q4", hypercube(4))
    b.add("R4x5", rook(4, 5))
    for k, m in ((4, 4), (2, 10), (6, 3)):
        b.non_iso_pair(
            b.add(f"{k}C{m}", cycles(k, m)),
            b.add(f"{k // 2}C{2 * m}", cycles(k // 2, 2 * m)),
            f"{k} vs {k // 2} components",
        )
    return b.workload


def rigid(seed: int) -> Workload:
    """The random graphs and swaps come from a fixed generator, and the seed
    only relabels them: refinement is label-invariant, so every seed does
    the same work and only the machine's noise separates seeds."""
    b = _Builder("rigid", seed)
    structure = random.Random("rigid")
    for n, p in ((128, 0.08), (256, 0.04), (256, 0.3)):
        name = f"G{n}-{p}"
        g = gnp(structure, n, p)
        b.add(name, g)
        b.add(name + "-swap", (n, triangle_changing_swap(structure, *g)))
        b.non_iso_pair(name, name + "-swap", "triangle counts differ")
    b.iso_pair("spider12", spider(range(1, 13)))
    return b.workload


def cfi_workload(seed: int) -> Workload:
    """Every graph in three independent labellings, each copy with its own
    pairs: how many nodes the search visits on these graphs depends on the
    labelling, and summing over three labellings lessens how much one seed
    moves the workload's totals."""
    b = _Builder("cfi", seed)
    for copy in ("", "-b", "-c"):
        for base_name, base in CFI_BASES.items():
            twist = {b.rng.randrange(len(base))}
            b.non_iso_pair(
                b.add(f"CFI-{base_name}{copy}", cfi(base, set())),
                b.add(f"CFI-{base_name}-twisted{copy}", cfi(base, twist)),
                "odd twist over a connected base",
            )
        b.add(f"Paley61{copy}", paley(61))
        b.non_iso_pair(
            b.add(f"R4x4{copy}", rook(4, 4)),
            b.add(f"Shrikhande{copy}", shrikhande()),
            "8 vs 0 4-cliques",
        )
        b.non_iso_pair(
            b.add(f"T8{copy}", triangular(8)),
            b.add(f"Chang1{copy}", chang(1)),
            "280 vs 248 4-cliques",
        )
        b.non_iso_pair(
            b.add(f"Chang2{copy}", chang(2)), f"Chang1{copy}", "240 vs 248 4-cliques"
        )
        b.iso_pair(f"Chang3{copy}", chang(3))
    return b.workload


WORKLOADS = {"symmetric": symmetric, "rigid": rigid, "cfi": cfi_workload}


def build(name: str, seed: int) -> Workload:
    return WORKLOADS[name](seed)
