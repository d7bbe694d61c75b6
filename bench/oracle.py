"""Graph facts computed apart from graphcanon, with plain Python sets.

The benchmark judges the program's outputs with these helpers, so nothing
here imports graphcanon. A graph is ``(n, edges)`` with 0-based vertices and
each edge a ``(u, v)`` tuple with ``u < v``.
"""

from __future__ import annotations

from itertools import combinations


def edge_set(edges) -> frozenset[tuple[int, int]]:
    """Normalise an iterable of vertex pairs to a set of ``(min, max)`` tuples."""
    return frozenset((min(u, v), max(u, v)) for u, v in edges)


def relabel(edges, perm) -> frozenset[tuple[int, int]]:
    """The edge set with every vertex ``v`` renamed to ``perm[v]``."""
    return edge_set((perm[u], perm[v]) for u, v in edges)


def is_permutation(perm, n: int) -> bool:
    return len(perm) == n and sorted(perm) == list(range(n))


def neighbours(n: int, edges) -> list[set[int]]:
    nbrs: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    return nbrs


def degree_sequence(n: int, edges) -> list[int]:
    return sorted(len(s) for s in neighbours(n, edges))


def components(n: int, edges) -> int:
    """Number of connected components."""
    nbrs = neighbours(n, edges)
    seen = [False] * n
    count = 0
    for start in range(n):
        if seen[start]:
            continue
        count += 1
        seen[start] = True
        stack = [start]
        while stack:
            u = stack.pop()
            for w in nbrs[u]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
    return count


def triangles(n: int, edges) -> int:
    """Number of triangles, each counted once."""
    nbrs = neighbours(n, edges)
    return sum(
        sum(1 for w in nbrs[u] & nbrs[v] if w > v) for u, v in edge_set(edges)
    )


def four_cliques(n: int, edges) -> int:
    """Number of 4-vertex cliques, each counted once."""
    nbrs = neighbours(n, edges)
    count = 0
    for u, v in edge_set(edges):
        common = sorted(w for w in nbrs[u] & nbrs[v] if w > v)
        for a, b in combinations(common, 2):
            if b in nbrs[a]:
                count += 1
    return count
