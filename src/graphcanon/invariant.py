"""Label-invariant node invariants for the search tree.

The per-node invariant is a hash of the quotient graph of the node's
equitable coloring: cell count, cell sizes, and the number of edges between
every pair of cells (including each cell with itself). Two colored graphs
related by a relabelling produce the same quotient, hence the same hash.

The hash itself is 64-bit FNV-1a over the quotient's word stream, each word
fed as 8 big-endian bytes. Only equitable colorings are hashed, so the edge
counts come from one vertex per cell (see :func:`hash_colored`).

A node's invariant vector collects the hashes of all its prefixes and is
compared lexicographically, with a proper prefix ordering below any of its
extensions.
"""

from __future__ import annotations

from .core import Coloring, Graph
from .refine import cell_mask

FNV_OFFSET = 14695981039346656037
FNV_PRIME = 1099511628211
_MASK64 = (1 << 64) - 1


# _ZERO_RUN[k] is FNV_PRIME**k mod 2**64: hashing k zero bytes is one
# multiplication by it, since XOR with a zero byte changes nothing.
_ZERO_RUN = tuple(pow(FNV_PRIME, k, 1 << 64) for k in range(9))


def _fnv1a(words) -> int:
    """FNV-1a over ``words``, each fed as 8 big-endian bytes.

    Equal to hashing the bytes one by one, but each word's leading zero
    bytes cost a single multiplication. Words outside ``[0, 2**64)`` raise
    :class:`OverflowError`.
    """
    h = FNV_OFFSET
    p7, p = _ZERO_RUN[7], FNV_PRIME
    for w in words:
        if 0 <= w < 256:
            # The high bits h * p7 carries past 64 vanish in the final mask.
            h = ((h * p7 ^ w) * p) & _MASK64
            continue
        tail = w.to_bytes(8, "big").lstrip(b"\0")
        h = (h * _ZERO_RUN[8 - len(tail)]) & _MASK64
        for b in tail:
            h = ((h ^ b) * p) & _MASK64
    return h


def hash_colored(g: Graph, pi: Coloring) -> int:
    """64-bit label-invariant hash of ``g`` under an equitable coloring ``pi``.

    Hashes the words ``(cell_count, *cell_sizes, *edge_counts)``, the edge
    counts taken over cell pairs ``i <= j`` in lexicographic order. Every
    vertex of cell ``i`` has the same number of neighbours in cell ``j``, so
    one representative per cell gives the count for the whole cell:
    ``|cell i| * |adj[rep_i] & cell j|``, halved for ``i == j``.

    Precondition: ``pi`` is equitable for ``g``; otherwise the value is not
    label-invariant. Every caller meets it: the search hashes
    ``make_equitable`` output, the emitter hashes ``ensure_node`` output, and
    the checker hashes only ``REqual`` colorings, which only the
    ``Equitable`` rule derives, after ``is_equitable``.
    """
    cells = pi.cells
    adj = g.adj
    masks = list(map(cell_mask, cells))
    counts = []
    for i, cell in enumerate(cells):
        size, row = len(cell), adj[cell[0]]
        counts.append(size * (row & masks[i]).bit_count() // 2)
        counts += [size * (row & mask).bit_count() for mask in masks[i + 1 :]]
    return _fnv1a((len(cells), *map(len, cells), *counts))
