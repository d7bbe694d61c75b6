"""Label-invariant node invariants for the search tree.

The per-node invariant is a hash of the quotient graph of the node's
equitable coloring: cell count, cell sizes, and the number of edges between
every pair of cells (including each cell with itself). Two colored graphs
related by a relabelling produce the same quotient, hence the same hash.

The hash itself is 64-bit FNV-1a over the quotient's word stream, each word
fed as 8 big-endian bytes. Only equitable colorings are hashed, so the edge
counts come from one vertex per cell, and only the non-zero ones are
counted (see :func:`hash_colored`).

A node's invariant vector collects the hashes of all its prefixes and is
compared lexicographically, with a proper prefix ordering below any of its
extensions.
"""

from __future__ import annotations

from itertools import accumulate, repeat

from .core import Coloring, Graph

FNV_OFFSET = 14695981039346656037
FNV_PRIME = 1099511628211
_MASK64 = (1 << 64) - 1


# _ZERO_RUN[k] is FNV_PRIME**k mod 2**64: hashing k zero bytes is one
# multiplication by it, since XOR with a zero byte changes nothing. It covers
# runs of up to 64 zero words before a word.
_ZERO_RUN = tuple(
    accumulate(repeat(FNV_PRIME, 8 * 65), lambda h, p: h * p & _MASK64, initial=1)
)


def _fnv1a(words, gaps) -> int:
    """FNV-1a over ``words``, each fed as 8 big-endian bytes, with
    ``gaps[k]`` zero words fed before ``words[k]``.

    Equal to hashing the bytes one by one, but each run of zero bytes, the
    gap's and the word's leading ones, costs one multiplication per 64 zero
    words. Words outside ``[0, 2**64)`` raise :class:`OverflowError`.
    """
    h = FNV_OFFSET
    p = FNV_PRIME
    for gap, w in zip(gaps, words):
        while gap > 64:
            h = h * _ZERO_RUN[8 * 64] & _MASK64
            gap -= 64
        if 0 <= w < 256:
            # The high bits the run carries past 64 vanish in the final mask.
            h = ((h * _ZERO_RUN[8 * gap + 7] ^ w) * p) & _MASK64
            continue
        tail = w.to_bytes(8, "big").lstrip(b"\0")
        h = (h * _ZERO_RUN[8 * gap + 8 - len(tail)]) & _MASK64
        for b in tail:
            h = ((h ^ b) * p) & _MASK64
    return h


def hash_colored(g: Graph, pi: Coloring) -> int:
    """64-bit label-invariant hash of ``g`` under an equitable coloring ``pi``.

    Hashes the words ``(cell_count, *cell_sizes, *edge_counts)``, the edge
    counts taken over cell pairs ``i <= j`` in lexicographic order. Every
    vertex of cell ``i`` has the same number of neighbors in cell ``j``, so
    one representative per cell gives the count for the whole cell:
    ``|cell i| * |N(rep_i) & cell j|``, halved for ``i == j``. Tallying the
    colors of the representative's neighbors finds the non-zero counts; the
    zero words between them are hashed in runs, so a hash costs
    ``O(m + sum of deg(rep_i))`` for ``m`` cells.

    Precondition: ``pi`` is equitable for ``g``; otherwise the value is not
    label-invariant. Every caller meets it: the search hashes
    ``make_equitable`` output, the emitter hashes ``ensure_node`` output, and
    the checker hashes only ``REqual`` colorings, which only the
    ``Equitable`` rule derives, after ``splitting_cell`` finds no splitter.
    """
    cells, colors, neighbors = pi.cells, pi.colors, g.neighbors
    m = len(cells)
    words = [m, *map(len, cells)]
    gaps = [0] * len(words)
    done = 0  # edge-count words accounted for, zero or not
    diag = 0  # edge-count index of the word (i, i)
    for i, cell in enumerate(cells):
        tally: dict[int, int] = {}
        for j in map(colors.__getitem__, neighbors[cell[0]]):
            if j >= i:
                tally[j] = tally.get(j, 0) + 1
        size = len(cell)
        for j in sorted(tally):
            k = diag + j - i
            gaps.append(k - done)
            words.append(size * tally[j] >> (j == i))
            done = k + 1
        diag += m - i
    if diag > done:  # the stream ends in zero words
        gaps.append(diag - done - 1)
        words.append(0)
    return _fnv1a(words, gaps)
