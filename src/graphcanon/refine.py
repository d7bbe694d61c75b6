"""Equitable refinement of colored graphs.

A coloring is *equitable* when any two vertices of the same color have the
same number of neighbors in every cell. The search refines each node by
individualizing a vertex and restoring equitability, with a fixed cell-order
convention so the result is unique (not just unique up to cell order):

* the splitting cell is always the first cell of the current coloring that is
  still pending;
* the fragments of a split cell are ordered by neighbor count ascending, and
  the first fragment of maximal size is then moved to the end;
* fragments replace the split cell in place.

Cells and fragments list their vertices ascending, so a cell tuple names its
vertex set.

Two kernels apply that convention. The checker's are ``split``, one round
that partitions every cell against one splitter, and ``splitting_cell``,
which finds the first cell that splits anything, skipping cells the caller
already knows to be uniform; ``pi`` is equitable exactly when it finds none.
Both scan every cell, and they are the refinement the checker trusts. The
solver's ``make_equitable`` keeps cells at fixed positions and runs rounds
off a worklist. Each round tests only the open cells (cells of more than one
vertex) that the splitter's neighbours reach, so a round costs what the
splitter touches, not the number of cells. Its rounds are ``split``'s, which
the tests check round by round.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Callable, Iterable

from .core import Coloring, Graph

# Callback invoked for each effective splitting iteration:
# (coloring before, splitting cell, coloring after).
SplitCallback = Callable[[Coloring, tuple[int, ...], Coloring], None]


def individualize(pi: Coloring, v: int) -> Coloring:
    """Replace the cell ``W`` of ``v`` by ``{v}, W \\ {v}`` in that order.

    A vertex already alone in its cell leaves the coloring unchanged. The
    result's cells are ``pi``'s with ``{v}`` spliced in, so it is built with
    the trusted ``Coloring._valid``, which caches them.
    """
    cells = pi.cells
    c = pi.colors[v]
    cell = cells[c]
    if len(cell) == 1:
        return pi
    rest = tuple(u for u in cell if u != v)
    return Coloring._valid(cells[:c] + ((v,), rest) + cells[c + 1 :])


def cell_mask(cell: Iterable[int]) -> int:
    """The bitmask of a set of vertices."""
    mask = 0
    for x in cell:
        mask |= 1 << x
    return mask


def split(g: Graph, pi: Coloring, i: int) -> Coloring:
    """Partition every cell of ``pi`` w.r.t. its ``i``-th cell.

    Fragments follow the standard convention (count ascending, first maximal
    fragment moved last, in place). Returns ``pi`` itself when nothing splits.
    Every cell of the result lies inside a cell of ``pi``. The fragments of
    ``pi``'s ascending cells are ascending and partition the vertices, so the
    result is built with the trusted ``Coloring._valid``.
    """
    adj = g.adj
    w_mask = cell_mask(pi.cells[i])
    cells: list[tuple[int, ...]] = []
    for cell in pi.cells:
        if len(cell) > 1:
            groups: dict[int, list[int]] = {}
            for x in cell:
                groups.setdefault((adj[x] & w_mask).bit_count(), []).append(x)
            if len(groups) > 1:
                frags = [tuple(groups[k]) for k in sorted(groups)]
                sizes = [len(f) for f in frags]
                frags.append(frags.pop(sizes.index(max(sizes))))
                cells += frags
                continue
        cells.append(cell)
    return Coloring._valid(cells) if len(cells) > pi.m else pi


def splitting_cell(
    g: Graph, pi: Coloring, uniform: frozenset[tuple[int, ...]] = frozenset()
) -> int | None:
    """Index of the first cell of ``pi`` that splits some cell (itself
    included), or None when ``pi`` is equitable. Each test stops at the
    first vertex whose count differs, so no split is built.

    The cells in ``uniform`` are skipped as splitters, untested. Each must
    be a cell of ``pi`` that splits no cell of ``pi`` (the checker's memo
    holds only such cells), so the answer is the same as without them."""
    adj = g.adj
    cells = pi.cells
    open_cells = [cell for cell in cells if len(cell) > 1]
    for i, w in enumerate(cells):
        if w in uniform:
            continue
        w_mask = cell_mask(w)
        for cell in open_cells:
            first = (adj[cell[0]] & w_mask).bit_count()
            for x in cell[1:]:
                if (adj[x] & w_mask).bit_count() != first:
                    return i
    return None


def make_equitable(
    g: Graph,
    pi: Coloring,
    alpha: Iterable[Iterable[int]],
    on_split: SplitCallback | None = None,
) -> Coloring:
    """Refine ``pi`` to the coarsest equitable coloring using the cells of
    ``alpha`` as the initial splitter worklist.

    Every set in ``alpha`` must be a cell of ``pi``, its vertices in any
    order; otherwise :class:`ValueError` names the first one that is not.
    Each worklist round picks the first cell of the current coloring that is
    still pending, removes it, and partitions every cell against it.
    Fragments other than the first maximal one join the worklist; if the
    split cell was itself pending it is replaced by that maximal fragment.
    ``on_split`` is called once per round that changed the coloring, its
    ``before`` the previous round's ``after``. Returns ``pi`` itself when
    nothing splits.

    Cells keep fixed positions: a cell's fragments tile its own positions,
    so the order of start positions is the order of the cells, and the
    worklist is a set of start positions. A round ORs the splitter's
    adjacency rows into one ``reach`` mask and tests only the open cells
    that meet it; any other cell has no neighbour in the splitter.
    """
    n = pi.n
    adj = g.adj
    cells = pi.cells
    starts = [0, *accumulate(map(len, cells))]
    pending = set()
    for c in alpha:
        c = tuple(sorted(c))
        if not c or c[0] >= n or cells[pi.colors[c[0]]] != c:
            raise ValueError(f"alpha set {list(c)} is not a cell of pi")
        pending.add(starts[pi.colors[c[0]]])
    # at[p] is the cell that starts at position p, None inside a cell;
    # masks holds the bitmask of every open cell by its start position.
    at: list[tuple[int, ...] | None] = [None] * n
    masks = {}
    for p, cell in zip(starts, cells):
        at[p] = cell
        if len(cell) > 1:
            masks[p] = cell_mask(cell)
    m = len(cells)
    out = pi
    while masks and pending:
        s = min(pending)
        pending.remove(s)
        w = at[s]
        w_mask = masks.get(s) or 1 << w[0]
        reach = 0
        for x in w:
            reach |= adj[x]
        changed = False
        for t in [t for t, mask in masks.items() if mask & reach]:
            cell = at[t]
            groups: dict[int, list[int]] = {}
            for x in cell:
                groups.setdefault((adj[x] & w_mask).bit_count(), []).append(x)
            if len(groups) == 1:
                continue
            frags = [tuple(groups[k]) for k in sorted(groups)]
            sizes = [len(f) for f in frags]
            frags.append(frags.pop(sizes.index(max(sizes))))
            was_pending = t in pending
            del masks[t]
            p = t
            for f in frags:
                at[p] = f
                if len(f) > 1:
                    masks[p] = cell_mask(f)
                pending.add(p)
                p += len(f)
            if not was_pending:  # the last fragment inherits pending status
                pending.remove(p - len(frags[-1]))
            m += len(frags) - 1
            changed = True
        if changed and on_split is not None:
            after = Coloring._valid(tuple(filter(None, at)))
            on_split(out, w, after)
            out = after
    return Coloring._valid(tuple(filter(None, at))) if out is pi and m > pi.m else out


def target_cell(pi: Coloring) -> tuple[int, ...] | None:
    """The first non-singleton cell of a (refined) coloring, or None."""
    for cell in pi.cells:
        if len(cell) > 1:
            return cell
    return None
