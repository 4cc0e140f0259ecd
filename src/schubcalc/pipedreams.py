"""Pipe dreams on the staircase board and skew pipe dreams on the shifted
staircase, with ladder moves, bottom diagrams, ladder closures, transposed
mitosis, and the box-removal operators that build the Demazure face index
sets.

Boards are stored as (row, column) pairs, and the board is stated once
(`_row_columns`): the type A board has rows 1..n with row i holding columns
1..n-i+1; the shifted type C board has row i holding columns i..2n-i.  Every
layout is read off it: `ascii_diagram` and one cached table per datum
(`board`) of the box set, word order (used by k'_D), facet order (used by
k_D) and each box's position in both.  The string cone facets and the
GT/SGT pattern coordinates of `polytopes` are read off the same table.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

from .cartan import (
    InvariantError,
    RootDatum,
    WeylElement,
    check_letter,
    inverse,
    longest_element,
    multiply,
    simple_element,
    standard_word,
    compatible_subsets,
)


class MOpError(ValueError):
    """A box-removal operator was applied where its preconditions fail."""


@dataclass(frozen=True)
class Diagram:
    datum: RootDatum
    boxes: frozenset

    def __post_init__(self):
        boxes = board(self.datum).boxes
        if not self.boxes <= boxes:
            raise ValueError("boxes %r leave the board" % (sorted(self.boxes - boxes),))


def box_order(diagrams) -> list:
    """Diagrams sorted by their sorted box lists: the one fixed order of
    face sums and reports."""
    return sorted(diagrams, key=lambda d: sorted(d.boxes))


def _row_columns(datum: RootDatum, i: int) -> range:
    """The columns of board row i, left to right."""
    n = datum.rank
    return range(1, n - i + 2) if datum.family == "A" else range(i, 2 * n - i + 1)


def full_diagram(datum: RootDatum) -> Diagram:
    return Diagram(datum, board(datum).boxes)


def _rows_up(datum: RootDatum, step: int) -> tuple:
    """The board's boxes, rows bottom to top, each row's columns left to
    right (step 1) or right to left (step -1)."""
    return tuple((i, j) for i in range(datum.rank, 0, -1) for j in _row_columns(datum, i)[::step])


class Board(NamedTuple):
    boxes: frozenset
    word_order: tuple   # the boxes in word order (drives k'_D)
    facet_order: tuple  # the boxes in facet order (drives k_D)
    word_pos: dict      # box -> its 1-based position in word order
    facet_pos: dict     # box -> its 1-based position in facet order


@lru_cache(maxsize=None)
def board(datum: RootDatum) -> Board:
    """The board's layouts, read off `_row_columns` once per datum: word
    order runs rows bottom to top, columns right to left, so that position k
    holds letter k of the standard word (`letter_columns`); facet order is
    word order with the type A rows read left to right."""
    word_order = _rows_up(datum, -1)
    facet_order = _rows_up(datum, 1 if datum.family == "A" else -1)
    return Board(
        frozenset(word_order),
        word_order,
        facet_order,
        {box: k for k, box in enumerate(word_order, start=1)},
        {box: k for k, box in enumerate(facet_order, start=1)},
    )


def arrangement_kd(d: Diagram) -> tuple:
    """Positions of the diagram's boxes in facet order, increasing."""
    pos = board(d.datum).facet_pos
    return tuple(sorted(pos[b] for b in d.boxes))


def arrangement_kd_prime(d: Diagram) -> tuple:
    """Positions of the complement's boxes in word order, increasing."""
    layout = board(d.datum)
    return tuple(sorted(layout.word_pos[b] for b in layout.boxes - d.boxes))


def letter_columns(datum: RootDatum, i: int) -> tuple:
    """The board columns of letter i: column i in type A, the mirrored pair
    n - i + 1, n + i - 1 (one column for i = 1) in type C."""
    check_letter(datum, i)
    if datum.family == "A":
        return (i,)
    n = datum.rank
    return (n - i + 1,) if i == 1 else (n - i + 1, n + i - 1)


# ---------------------------------------------------------------------------
# ladder moves


def ladder_move(d: Diagram, i: int, j: int):
    """The ladder move with source box (i, j); None when inapplicable.

    The move walks the later boxes of facet order in column j and its
    mirror 2n - j, skipping rungs with both the box and its right neighbour
    filled.  The first other rung decides: the box moves to its right
    neighbour when both are free and that neighbour is on the board, and the
    move is inapplicable otherwise.  On the staircase board the mirror holds
    no later box (columns beyond n are empty, and column n is the single box
    (1, n)), so the walk stays in column j."""
    boxes = d.boxes
    if (i, j) not in boxes or (i, j + 1) in boxes:
        return None
    layout = board(d.datum)
    cols = {j, 2 * d.datum.rank - j}
    for p, q in layout.facet_order[layout.facet_pos[i, j] :]:
        if q not in cols:
            continue
        here = (p, q) in boxes
        right = (p, q + 1) in boxes
        if here and right:
            continue
        if here or right:
            return None
        if (p, q + 1) not in layout.boxes:
            return None
        return Diagram(d.datum, (boxes - {(i, j)}) | {(p, q + 1)})
    return None


def _source_columns(d: Diagram, cols):
    """Boxes of d whose column is in cols (all boxes when cols is None)."""
    if cols is None:
        return sorted(d.boxes)
    return sorted(b for b in d.boxes if b[1] in cols)


def ladder_closure(d: Diagram, source_cols=None) -> frozenset:
    """Closure under ladder moves, optionally restricted to source columns."""
    seen = {d}
    frontier = [d]
    while frontier:
        new = []
        for cur in frontier:
            for (i, j) in _source_columns(cur, source_cols):
                moved = ladder_move(cur, i, j)
                if moved is not None and moved not in seen:
                    seen.add(moved)
                    new.append(moved)
        frontier = new
    return frozenset(seen)


# ---------------------------------------------------------------------------
# bottom diagrams


def bottom_diagram(datum: RootDatum, w: WeylElement) -> Diagram:
    """The diagram whose complement word-positions form the lexicographically
    minimal extraction of w from the standard word (the full board at the
    identity, whose one extraction is empty)."""
    word = standard_word(datum)
    subsets = compatible_subsets(datum, word, w)
    kprime = min(subsets)
    layout = board(datum)
    complement = {layout.word_order[k - 1] for k in kprime}
    out = Diagram(datum, layout.boxes - complement)
    if datum.family == "A":
        closed = _bottom_closed_form_a(datum, w)
        if out.boxes != closed:
            raise InvariantError("lex-min bottom diagram disagrees with closed form")
    else:
        _check_staircase_shape(out)
    return out


def _bottom_closed_form_a(datum: RootDatum, w: WeylElement):
    n = datum.rank
    u = multiply(inverse(w), longest_element(datum)).oneline
    boxes = set()
    for i in range(1, n + 1):
        m = sum(1 for j in range(i + 1, n + 2) if u[j - 1] < u[i - 1])
        boxes.update((i, jj) for jj in range(1, m + 1))
    return frozenset(boxes)


def _check_staircase_shape(d: Diagram):
    for i in range(1, d.datum.rank + 1):
        row = sorted(j for (r, j) in d.boxes if r == i)
        if row != list(_row_columns(d.datum, i)[: len(row)]):
            raise InvariantError("bottom diagram is not left-justified")


def ladder_set(datum: RootDatum, w: WeylElement) -> frozenset:
    """All diagrams reachable from the bottom diagram by ladder moves."""
    return ladder_closure(bottom_diagram(datum, w))


# ---------------------------------------------------------------------------
# transposed mitosis (type A)


def _start_top(d: Diagram, j: int) -> int:
    n = d.datum.rank
    limit = n - j + 1
    for i in range(1, limit + 1):
        if (i, j) not in d.boxes:
            return i
    return limit + 1


def mitosis_candidates(d: Diagram, j: int) -> tuple:
    start = _start_top(d, j)
    return tuple(i for i in range(1, start) if (i, j + 1) not in d.boxes)


def check_mitosis(datum: RootDatum):
    if datum.family != "A":
        raise ValueError("transposed mitosis is a type A operator")


def mitosis_top(j: int, d: Diagram) -> frozenset:
    """Transposed mitosis: one offspring per candidate row, produced by a
    forced chain of column-j ladder moves after removing the topmost box."""
    check_mitosis(d.datum)
    check_letter(d.datum, j)
    cand = mitosis_candidates(d, j)
    out = set()
    for i in cand:
        rows = [p for p in range(1, i + 1) if (p, j + 1) not in d.boxes]
        if not rows or rows[-1] != i:
            raise InvariantError("mitosis candidate row %d has no free chain" % i)
        cur = Diagram(d.datum, d.boxes - {(rows[0], j)})
        for p in rows[1:]:
            cur = ladder_move(cur, p, j)
            if cur is None:
                raise InvariantError("mitosis ladder chain broke")
        out.add(cur)
    return frozenset(out)


def mitosis_chain(datum: RootDatum, letters) -> frozenset:
    """Fold transposed mitosis over a word, starting from the full board."""
    check_mitosis(datum)
    current = {full_diagram(datum)}
    for j in letters:
        check_letter(datum, j)
        nxt = set()
        for d in current:
            nxt |= mitosis_top(j, d)
        current = nxt
    return frozenset(current)


# ---------------------------------------------------------------------------
# the box-removal operators M_i and the sets M(w)


def m_op(datum: RootDatum, i: int, d: Diagram) -> frozenset:
    """Remove the designated letter-i box and close under letter-i ladder
    moves; hard error when the preconditions fail."""
    if d.datum != datum:
        raise ValueError("a diagram of %r cannot take M_%d in %r" % (d.datum, i, datum))
    order = board(datum).facet_order
    cols = set(letter_columns(datum, i))
    candidates = [
        r
        for r in range(1, len(order) + 1)
        if order[r - 1][1] in cols and (order[r - 1][0], order[r - 1][1] + 1) not in d.boxes
    ]
    if not candidates:
        raise MOpError("no removable box for letter %d in %r" % (i, sorted(d.boxes)))
    r0 = max(candidates)
    # every later letter-i rung has its right neighbour, by the choice of r0
    for p, q in order[r0 - 1 :]:
        if q in cols and (p, q) not in d.boxes:
            raise MOpError("letter %d tail not filled in %r" % (i, sorted(d.boxes)))
    stripped = Diagram(datum, d.boxes - {order[r0 - 1]})
    return ladder_closure(stripped, source_cols=cols)


@lru_cache(maxsize=None)
def mset(datum: RootDatum, w: WeylElement) -> frozenset:
    """The Demazure index set of diagrams: M folded over the letters of the
    standard word at the lexicographically minimal extraction of w (the
    bottom diagram's complement positions), starting from the full board.

    Each set is one step from a cached one.  With i the last fold letter,
    the lex-min extraction of w s_i is that of w without its last position,
    so M(w) is the union of M_i over M(w s_i); a lex-min extraction of w s_i
    that is not that prefix raises `InvariantError`."""
    word = standard_word(datum)
    kprime = min(compatible_subsets(datum, word, w))
    if not kprime:
        return frozenset([full_diagram(datum)])
    i = word[kprime[-1] - 1]
    v = multiply(w, simple_element(datum, i))
    if min(compatible_subsets(datum, word, v)) != kprime[:-1]:
        raise InvariantError("the lex-min extraction of %r does not extend that of %r" % (w, v))
    out = set()
    for d in mset(datum, v):
        out |= m_op(datum, i, d)
    return frozenset(out)


def ascii_diagram(d: Diagram) -> str:
    """Plus marks on the board, dots for empty boxes; each row is indented
    to its first column."""
    lines = []
    for i in range(1, d.datum.rank + 1):
        cols = _row_columns(d.datum, i)
        row = "".join("+" if (i, j) in d.boxes else "." for j in cols)
        lines.append(" " * (cols[0] - 1) + row)
    return "\n".join(lines)
