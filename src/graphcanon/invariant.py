"""Label-invariant node invariants for the search tree.

The per-node invariant is a hash of the quotient graph of the node's refined
coloring: cell count, cell sizes, and the number of edges between every pair
of cells (including each cell with itself). Two colored graphs related by a
relabelling produce the same quotient, hence the same hash.

The hash itself is 64-bit FNV-1a over the quotient's word stream, each word
fed as 8 big-endian bytes. A node's invariant vector collects the hashes of
all its prefixes and is compared lexicographically, with a proper prefix
ordering below any of its extensions.
"""

from __future__ import annotations

from .core import Coloring, Graph

FNV_OFFSET = 14695981039346656037
FNV_PRIME = 1099511628211
_MASK64 = (1 << 64) - 1


def quotient_graph(g: Graph, pi: Coloring) -> tuple[int, ...]:
    """The quotient's word stream: ``(cell_count, *cell_sizes, *edge_counts)``.

    ``edge_counts`` lists, for every cell pair ``(i, j)`` with ``i <= j`` in
    lexicographic order, the number of edges with one endpoint in cell ``i``
    and the other in cell ``j``.
    """
    cells = pi.cells
    m = len(cells)
    masks = []
    for cell in cells:
        mask = 0
        for x in cell:
            mask |= 1 << x
        masks.append(mask)
    counts = []
    for i in range(m):
        for j in range(i, m):
            total = sum((g.adj[x] & masks[j]).bit_count() for x in cells[i])
            counts.append(total // 2 if i == j else total)
    return (m, *map(len, cells), *counts)


def _fnv1a(words) -> int:
    h = FNV_OFFSET
    for w in words:
        for b in w.to_bytes(8, "big"):
            h = ((h ^ b) * FNV_PRIME) & _MASK64
    return h


def hash_colored(g: Graph, pi: Coloring) -> int:
    """64-bit label-invariant hash of a colored graph."""
    return _fnv1a(quotient_graph(g, pi))
