"""Equitable refinement of colored graphs.

A coloring is *equitable* when any two vertices of the same color have the
same number of neighbors in every cell. ``refine`` computes the canonical
refinement used by the search tree: individualize the vertices of a sequence
one by one and restore equitability after each step, with a fixed cell-order
convention so the result is unique (not just unique up to cell order):

* the splitting cell is always the first cell of the current coloring that is
  still pending;
* the fragments of a split cell are ordered by neighbor count ascending, and
  the first fragment of maximal size is then moved to the end;
* fragments replace the split cell in place.

``split`` applies a single splitting cell to *every* cell under the same
fragment convention; it is the checker-side primitive for validating one
refinement step. ``splitting_cell`` finds the first cell that splits
anything, and ``is_equitable`` is its fixpoint test.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from .core import Coloring, Graph

# Callback invoked for each effective splitting iteration:
# (coloring before, splitting cell, coloring after).
SplitCallback = Callable[[Coloring, tuple[int, ...], Coloring], None]


def individualize(pi: Coloring, v: int) -> Coloring:
    """Replace the cell ``W`` of ``v`` by ``{v}, W \\ {v}`` in that order.

    A vertex already alone in its cell leaves the coloring unchanged.
    """
    c = pi.colors[v]
    if len(pi.cells[c]) == 1:
        return pi
    colors = [
        col + 1 if col > c or (col == c and u != v) else col
        for u, col in enumerate(pi.colors)
    ]
    colors[v] = c
    return Coloring(colors)


def _split_one_cell(
    g: Graph, cell: tuple[int, ...], w_mask: int
) -> list[tuple[int, ...]] | None:
    """Fragments of ``cell`` w.r.t. the splitter mask, ordered per the
    convention, or None when the cell does not split."""
    groups: dict[int, list[int]] = {}
    adj = g.adj
    for x in cell:
        groups.setdefault((adj[x] & w_mask).bit_count(), []).append(x)
    if len(groups) == 1:
        return None
    frags = [tuple(groups[k]) for k in sorted(groups)]
    sizes = [len(f) for f in frags]
    j = sizes.index(max(sizes))
    return frags[:j] + frags[j + 1 :] + [frags[j]]


def split(g: Graph, pi: Coloring, i: int) -> Coloring:
    """Partition every cell of ``pi`` w.r.t. its ``i``-th cell.

    Fragments follow the standard convention (count ascending, first maximal
    fragment moved last, in place). Returns ``pi`` itself when nothing splits.
    """
    w_mask = 0
    for x in pi.cells[i]:
        w_mask |= 1 << x
    new_cells: list[tuple[int, ...]] = []
    changed = False
    for cell in pi.cells:
        if len(cell) == 1:
            new_cells.append(cell)
            continue
        frags = _split_one_cell(g, cell, w_mask)
        if frags is None:
            new_cells.append(cell)
        else:
            new_cells.extend(frags)
            changed = True
    return Coloring.from_cells(new_cells) if changed else pi


def splitting_cell(g: Graph, pi: Coloring) -> int | None:
    """Index of the first cell of ``pi`` that splits some cell (itself
    included), or None when ``pi`` is equitable. Each test stops at the
    first vertex whose count differs, so no split is built."""
    adj = g.adj
    cells = pi.cells
    open_cells = [cell for cell in cells if len(cell) > 1]
    for i, w in enumerate(cells):
        w_mask = 0
        for x in w:
            w_mask |= 1 << x
        for cell in open_cells:
            first = (adj[cell[0]] & w_mask).bit_count()
            for x in cell[1:]:
                if (adj[x] & w_mask).bit_count() != first:
                    return i
    return None


def is_equitable(g: Graph, pi: Coloring) -> bool:
    """True iff no cell splits any other (or itself)."""
    return splitting_cell(g, pi) is None


def make_equitable(
    g: Graph,
    pi: Coloring,
    alpha: Iterable[Sequence[int]],
    on_split: SplitCallback | None = None,
) -> Coloring:
    """Refine ``pi`` to the coarsest equitable coloring using the cells of
    ``alpha`` as the initial splitter worklist.

    Each worklist round picks the first cell of the current coloring that is
    still pending, removes it, and partitions every cell against it. Fragments
    other than the first maximal one join the worklist; if the split cell was
    itself pending it is replaced by that maximal fragment. ``on_split`` is
    called once per round that changed the coloring.
    """
    n = pi.n
    cells: list[tuple[int, ...]] = list(pi.cells)
    pending = {frozenset(c) for c in alpha}
    while len(cells) < n and pending:
        w = next(c for c in cells if frozenset(c) in pending)
        pending.remove(frozenset(w))
        w_mask = 0
        for x in w:
            w_mask |= 1 << x
        before = Coloring.from_cells(cells) if on_split is not None else None
        new_cells: list[tuple[int, ...]] = []
        changed = False
        for cell in cells:
            if len(cell) == 1:
                new_cells.append(cell)
                continue
            frags = _split_one_cell(g, cell, w_mask)
            if frags is None:
                new_cells.append(cell)
                continue
            changed = True
            new_cells.extend(frags)
            for frag in frags[:-1]:
                pending.add(frozenset(frag))
            key = frozenset(cell)
            if key in pending:
                pending.remove(key)
                pending.add(frozenset(frags[-1]))
        cells = new_cells
        if changed and on_split is not None:
            assert before is not None
            on_split(before, w, Coloring.from_cells(cells))
    return Coloring.from_cells(cells)


def refine(g: Graph, pi0: Coloring, nu: Sequence[int]) -> Coloring:
    """The refinement of ``(G, pi0)`` that individualizes the sequence ``nu``.

    First makes ``pi0`` equitable (worklist = all its cells), then repeatedly
    individualizes the next vertex of ``nu`` and re-establishes equitability
    with worklist ``{{v}}``.
    """
    pi = make_equitable(g, pi0, pi0.cells)
    for v in nu:
        pi = make_equitable(g, individualize(pi, v), [(v,)])
    return pi


def target_cell(pi: Coloring) -> tuple[int, ...] | None:
    """The first non-singleton cell of a (refined) coloring, or None."""
    for cell in pi.cells:
        if len(cell) > 1:
            return cell
    return None
