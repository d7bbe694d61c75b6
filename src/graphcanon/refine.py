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

Cells and fragments list their vertices ascending, so a cell tuple names its
vertex set: ``make_equitable``'s worklist holds the tuples themselves.

One split round partitions *every* cell against one splitter under that
convention. ``split`` is a single round, the checker-side primitive for
validating one refinement step; ``make_equitable`` runs rounds off its
worklist. ``splitting_cell`` finds the first cell that splits anything,
skipping cells the caller already knows to be uniform, and ``is_equitable``
is its fixpoint test.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

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


def _split_round(
    g: Graph, cells: list[tuple[int, ...]], w: tuple[int, ...]
) -> list[tuple[tuple[int, ...], list[tuple[int, ...]]]]:
    """Partition every cell of ``cells`` w.r.t. the splitter ``w``, splicing
    each cell's fragments in its place per the convention. Returns the
    ``(cell, fragments)`` pair of every cell that split."""
    adj = g.adj
    w_mask = cell_mask(w)
    splits = []
    for i in range(len(cells) - 1, -1, -1):
        cell = cells[i]
        if len(cell) == 1:
            continue
        groups: dict[int, list[int]] = {}
        for x in cell:
            groups.setdefault((adj[x] & w_mask).bit_count(), []).append(x)
        if len(groups) == 1:
            continue
        frags = [tuple(groups[k]) for k in sorted(groups)]
        sizes = [len(f) for f in frags]
        frags.append(frags.pop(sizes.index(max(sizes))))
        cells[i : i + 1] = frags
        splits.append((cell, frags))
    return splits


def split(g: Graph, pi: Coloring, i: int) -> Coloring:
    """Partition every cell of ``pi`` w.r.t. its ``i``-th cell.

    Fragments follow the standard convention (count ascending, first maximal
    fragment moved last, in place). Returns ``pi`` itself when nothing splits.
    Every cell of the result lies inside a cell of ``pi``. The fragments of
    ``pi``'s ascending cells are ascending and partition the vertices, so the
    result is built with the trusted ``Coloring._valid``.
    """
    cells = list(pi.cells)
    return Coloring._valid(cells) if _split_round(g, cells, pi.cells[i]) else pi


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


def is_equitable(g: Graph, pi: Coloring) -> bool:
    """True iff no cell splits any other (or itself)."""
    return splitting_cell(g, pi) is None


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
    """
    n = pi.n
    cells: list[tuple[int, ...]] = list(pi.cells)
    alpha = [tuple(sorted(c)) for c in alpha]
    for c in alpha:
        if not c or c[0] >= n or cells[pi.colors[c[0]]] != c:
            raise ValueError(f"alpha set {list(c)} is not a cell of pi")
    pending = set(alpha)
    out = pi
    while len(cells) < n and pending:
        w = next(c for c in cells if c in pending)
        pending.remove(w)
        splits = _split_round(g, cells, w)
        for cell, frags in splits:
            pending.update(frags[:-1])
            if cell in pending:
                pending.remove(cell)
                pending.add(frags[-1])
        if splits and on_split is not None:
            after = Coloring._valid(cells)
            on_split(out, w, after)
            out = after
    return Coloring._valid(cells) if out is pi and len(cells) > pi.m else out


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
