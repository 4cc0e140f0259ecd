"""Exact rational polytopes: string polytopes, GT and SGT polytopes,
their deformation, lattice points and vertices.

A `Polytope` is its integer inequality rows (coeffs . x <= rhs) and its
sweep order, a permutation of the coordinates that is required and fixes
the dimension; construction refuses a row of another length or an order
that is not a permutation.  There are no equation rows: an equation is a
row and its negation.  `interval_tower` certifies a polytope as a tower of
intervals along its sweep order and lists its integer vertices with no
elimination.  One level-by-level sweep along that order with a slack column
per row (`_sweep`) gives `lattice_count` and `lattice_points`.  The packed
kernel of `slack_masks` (`column_masks`) gives one bitmask per inequality
over the points tight on it: faces and their unions are integer AND and
OR, and a point set is certified to be the lattice points by containment
and count.  A `PointSet` is a read-only set view of such a mask over its
points.  `vertices` (exact Fractions) and `is_simple`, with `incidence`
and `facet_defining`, remain as the general-polytope oracles the tower
certificate is tested against; they and `affine_rank` run on the
fraction-free integer echelon of `linalg`.

Every string, GT and SGT polytope is built by one builder (`_polytope`) from
facet rows (vec, lam_vec, shift), read as vec . x <= lam_vec . lam, plus the
shift on the deformed GT/SGT polytope, and each family's row table is cached
per root datum.  Facet indices are laid out uniformly across the model
polytopes: inequalities 0..N-1 are the "F" family (lambda bounds on the
string side, dual Kogan equations on the GT/SGT side) and N..2N-1 are the
"F-vee" family (string-cone facets, Kogan equations), each in the fixed
arrangement order that the face combinatorics relies on; `model_map` maps
the string polytope onto the GT/SGT one row by row.  The cone facets and
the pattern coordinates (`a_pos`, `b_pos`) are read off the pipe-dream
board of `pipedreams`.
"""

from __future__ import annotations

import array
import sys
from collections.abc import Sequence, Set
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import accumulate, chain, compress, repeat
from math import gcd, lcm
from operator import and_, floordiv, mul, neg, sub

from . import linalg, pipedreams
from .cartan import (
    InvariantError,
    RootDatum,
    cartan_matrix,
    standard_word,
)


class UnboundedRegionError(ValueError):
    pass


class EmptyFaceError(InvariantError):
    """The rows of one facet block share no point of a face table."""


class ModelMapError(InvariantError):
    """No certified unimodular map keeps every row from the string to the GT/SGT side."""


@dataclass(frozen=True)
class Polytope:
    """{x : coeffs . x <= rhs}; sweep_order permutes range(len(coeffs)) for every row."""

    ineqs: tuple        # ((coeffs, rhs), ...) meaning coeffs . x <= rhs
    sweep_order: tuple  # coordinate order of lattice sweeps and tower steps

    def __post_init__(self):
        dim = len(self.sweep_order)
        if sorted(self.sweep_order) != list(range(dim)):
            raise ValueError("sweep order %r is not a permutation of range(%d)"
                             % (self.sweep_order, dim))
        for coeffs, _ in self.ineqs:
            if len(coeffs) != dim:
                raise ValueError("row %r does not have %d coefficients" % (coeffs, dim))

    @property
    def ambient_dim(self) -> int:
        return len(self.sweep_order)


# ---------------------------------------------------------------------------
# lattice point enumeration


def _sweep_rows(p: Polytope):
    """(order, steps, by_step), or None when a row without support fails.
    A row's step is the position along the sweep order of the last coordinate
    in its support; `steps` lists it per inequality (None without support);
    by_step[t] holds the rows of step t as (coefficient of its coordinate, the
    other (coordinate, coefficient) terms, rhs)."""
    dim = p.ambient_dim
    order = p.sweep_order
    pos = {v: t for t, v in enumerate(order)}
    steps = []
    by_step = [[] for _ in range(dim)]
    for coeffs, rhs in p.ineqs:
        support = list(compress(range(dim), coeffs))
        if not support:
            if rhs < 0:
                return None
            steps.append(None)
            continue
        step = max(map(pos.__getitem__, support))
        var = order[step]
        rest = tuple((v, coeffs[v]) for v in support if v != var)
        by_step[step].append((coeffs[var], rest, rhs))
        steps.append(step)
    return order, steps, by_step


def _sweep(p: Polytope, leaves: bool = False):
    """(number of lattice points of p, levels): with `leaves` per coordinate
    its level's values and leaf counts, the points under each value in the
    order of their coordinates read along the sweep order, else none.  Level
    t lists the sweep tree's nodes of depth t.  A row with a term in an
    earlier coordinate keeps a slack column, its rhs minus those terms at
    each node: started by its first coordinate, copied down each level where
    a node has other than one child (once per child), updated by one map at
    each of its coordinates and read at its step, bounding x <= s // a for
    a > 0, x >= -(s // -a) for a < 0.  A level with a node that reaches a
    step with no lower or no upper row raises UnboundedRegionError; an empty
    level ends the sweep first."""
    rows = _sweep_rows(p)
    if rows is None:
        return 0, []
    order, _, by_step = rows
    enters = {v: [] for v in order}  # per coordinate: (row key, coefficient, rhs)
    for t, step in enumerate(by_step):
        for j, (_, rest, rhs) in enumerate(step):
            for v, c in rest:
                enters[v].append(((t, j), c, rhs))
    slacks, levels, size = {}, [], 1
    for t, var in enumerate(order):
        los, his = [], []
        for j, (a, rest, rhs) in enumerate(by_step[t]):
            s = slacks.pop((t, j)) if rest else repeat(rhs, size)
            if a > 0:
                his.append(s if a == 1 else map(floordiv, s, repeat(a)))
            else:
                los.append(map(neg, s if a == -1 else map(floordiv, s, repeat(-a))))
        if not los or not his:
            raise UnboundedRegionError("no %s bound for coordinate %d; region unbounded along sweep"
                                       % ("upper" if los else "lower", var))
        lo = map(max, *los) if len(los) > 1 else los[0]
        hi = map(min, *his) if len(his) > 1 else his[0]
        ranges = list(map(range, lo, map((1).__add__, hi)))
        counts = list(map(len, ranges))
        size = sum(counts)
        if not size or not leaves and t == len(order) - 1:
            break
        vals = list(chain.from_iterable(ranges))
        if leaves:
            levels.append((var, vals, counts))
        if counts.count(1) < len(counts):
            for key, s in slacks.items():
                slacks[key] = list(chain.from_iterable(map(repeat, s, counts)))
        for key, c, rhs in enters[var]:
            s = slacks.get(key) or repeat(rhs)
            slacks[key] = list(map(sub, s, vals if c == 1 else map(mul, vals, repeat(c))))
    if not leaves or not size:
        return size, []
    out, sizes = [None] * len(order), None  # sizes: leaf counts under the level's values
    for var, vals, counts in reversed(levels):
        out[var] = vals, sizes or repeat(1)  # one leaf under each value of the last level
        at = list(accumulate(sizes, initial=0)) if sizes else range(len(vals) + 1)
        at = list(map(at.__getitem__, accumulate(counts, initial=0)))
        sizes = list(map(sub, at[1:], at))
    return size, out


def lattice_points(p: Polytope) -> tuple:
    """All integer points, sorted.  Requires bounds derivable along the sweep
    order (true for every polytope built here and their faces)."""
    count, levels = _sweep(p, True)
    columns = [chain.from_iterable(map(repeat, vals, leaves)) for vals, leaves in levels]
    return tuple(sorted(zip(*columns))) if columns else ((),) * count


def lattice_count(p: Polytope) -> int:
    """The number of integer points: the last level's size in the sweep of
    `lattice_points`, with the same UnboundedRegionError, and no points."""
    return _sweep(p)[0]


# the binary digits "0"/"1" as flag bytes 0/1, and back
_FLAGS = bytes.maketrans(b"01", b"\x00\x01")
_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
# a field's top byte read as the binary digit "1" exactly when it is below
# 0x80, that is when the field's top bit is clear
_ZERO_TOPS = bytes.maketrans(bytes(range(256)), b"1" * 128 + b"0" * 128)


# ---------------------------------------------------------------------------
# packed fields: a vector held as one int, field p at bytes [p * size,
# (p + 1) * size) of its little-endian bytes, in two's complement when signed

_TYPECODES = {(array.array(code).itemsize, code.islower()): code for code in "LlQqIiHhBb"}  # by (bytes, signed)


def field_size(bits: int) -> int:
    """The bytes of the narrowest of 1, 2, 4 and 8 that hold `bits` bits."""
    if bits > 64:
        raise OverflowError("fields of %d bits do not fit 64 bits" % bits)
    return next(size for size in (1, 2, 4, 8) if bits <= 8 * size)


def field_array(size: int, values=()) -> array.array:
    """An array of unsigned fields of `size` bytes holding `values`."""
    return array.array(_TYPECODES[size, False], values)


def _little(items: array.array) -> array.array:
    """The items' bytes swapped, in place, between the host's order and little-endian."""
    if sys.byteorder == "big":
        items.byteswap()
    return items


def unpack_fields(packed: int, count: int, size: int, signed: bool = False) -> array.array:
    """The `count` fields of `size` bytes of `packed`, field p at bytes [p * size, (p + 1) * size)."""
    return _little(array.array(_TYPECODES[size, signed], packed.to_bytes(count * size, "little")))


def strided_columns(packed, count: int, size: int):
    """column(p, step): field p of every int of `packed`, each holding `count`
    unsigned fields of `size` bytes, widened to fields of `step` >= `size`
    bytes, field i from int i, as one int.  The ints' bytes are joined once,
    and each byte lane of the wide fields is one strided slice of them."""
    data, stride = b"".join(map(int.to_bytes, packed, repeat(count * size), repeat("little"))), count * size

    def column(p: int, step: int) -> int:
        fields = bytearray(len(packed) * step)
        for lane in range(size):
            fields[lane::step] = data[p * size + lane :: stride]
        return int.from_bytes(fields, "little")

    return column


def repeated_fields(values, repeats, step: int) -> int:
    """sum_i x_i 2^(8 step i) over the x_i that take value k of `values`
    repeats[k] times in turn: each distinct value encoded once in a signed
    field of `step` bytes, the codes repeated and joined, and, when a value
    is negative, the borrow of each negative field from the next given back."""
    codes = {x: x.to_bytes(step, "little", signed=True) for x in set(values)}
    data = b"".join(map(mul, map(codes.__getitem__, values), repeats))
    fields = int.from_bytes(data, "little")
    if min(codes, default=0) >= 0:
        return fields
    tops = int.from_bytes((bytes(step - 1) + b"\x80") * (len(data) // step), "little")
    return fields - ((fields & tops) << 1)


def slack_masks(rows, points) -> tuple:
    """(tight, outside): per row (coefficients, rhs) the int with bit i set
    when points[i] lies on the row, and the int with bit i set when points[i]
    violates some row.  Points and rows hold integers only.

    Each coordinate column is packed into one int, point i in the W-bit field
    i, W the narrowest field width that holds every row's slack bound plus two
    guard bits: sum_i x_i 2^(W i) (`repeated_fields`).  A row's offset slacks
    rhs + 2^(W-1) - vec . x are then one exact integer combination of the
    columns, each field holding its point's slack, never borrowing from its
    neighbour.  The slack is zero exactly when the low W - 1 bits of its
    field are, so one AND with the low
    bits and one add of them leave the field's top byte below 0x80 exactly on
    the row; the slack is nonnegative exactly when the field's top bit is
    set, so the AND of every row's slacks has it clear exactly at the points
    outside.  `bytes.translate` reads the top bytes as binary digits.  Rows
    and points of more than one length raise ValueError, slacks past 62 bits
    OverflowError."""
    if len({len(vec) for vec, _ in rows} | set(map(len, points))) > 1:
        raise ValueError("slack_masks takes rows and points of one dimension")
    columns = tuple(zip(*points))
    highs = [max(max(column), -min(column)) for column in columns]
    return column_masks(rows, highs, lambda v, step: repeated_fields(columns[v], repeat(1), step), len(points))


def column_masks(rows, highs, column, n) -> tuple:
    """`slack_masks` over n points held by column, for callers that hold
    them so: highs[v] bounds |x_v| over the points, and column(v, step) is
    coordinate v packed as the int sum_i x_i 2^(8 step i), asked for once per
    coordinate that some row reads."""
    if not rows or not n:
        return (0,) * len(rows), 0
    bounds = [abs(rhs) + sum(abs(c) * h for c, h in zip(vec, highs)) for vec, rhs in rows]
    if not all(isinstance(b, int) for b in bounds):
        raise TypeError("slack_masks takes integer rows and points")
    step = max(2, field_size(max(bounds).bit_length() + 2))  # two guard bits, 16-bit floor
    size = step * n
    ones = ((1 << 8 * size) - 1) // ((1 << 8 * step) - 1)  # 1 in each field
    tops = ones << (8 * step - 1)
    low = tops - ones
    packed = {}
    tight = []
    inside = -1
    for vec, rhs in rows:
        slack = rhs * ones + tops
        for v, c in enumerate(vec):
            if c:
                if v not in packed:
                    packed[v] = column(v, step)
                slack -= c * packed[v]
        inside &= slack
        zero = ((slack & low) + low).to_bytes(size, "big")[::step]
        tight.append(int(zero.translate(_ZERO_TOPS), 2))
    outside = int(inside.to_bytes(size, "big")[::step].translate(_ZERO_TOPS), 2)
    return tuple(tight), outside


def mask_points(mask: int, points) -> tuple:
    """The points whose bits are set in `mask`, in point order, each read
    by its index, so that a sequence that decodes on index decodes only
    these: the inverse of the masks of `slack_masks`."""
    return tuple(map(points.__getitem__, compress(range(len(points)), mask_flags(mask, len(points)))))


def mask_flags(mask: int, size: int) -> bytearray:
    """The bits of `mask` as flag bytes, byte i 1 when bit i is set and 0
    when it is clear, read off the binary digits with bit 0 the last one,
    and padded with 0 to `size` bytes."""
    return bytearray(bin(mask)[:1:-1].encode().translate(_FLAGS).ljust(size, b"\x00"))


def flags_mask(flags) -> int:
    """The int with bit i set when flag byte i is 1: the inverse of
    `mask_flags`, the flags read backwards as binary digits, as `slack_masks`
    reads its top bytes."""
    return int(flags[::-1].translate(_DIGITS), 2)


class PointSet(Set):
    """A read-only set view: the points whose bits are set in `mask`, bit i
    for points[i], the points a sequence of distinct tuples (a tuple, or a
    crystal record's packed strings, which decode as they are read).  Its
    size is the bit count, and it decodes its points (`mask_points`) only to
    iterate or to test membership; the first membership test keeps them as
    a frozenset, so that a subset test or a set operation does not decode
    once per member.  Two views over the same points sequence are equal
    exactly when their masks are, which the distinct points make set
    equality; any other comparison is by content.  Set operations return
    frozensets."""

    __slots__ = ("mask", "points", "_members")

    def __init__(self, mask: int, points: Sequence):
        self.mask = mask
        self.points = points
        self._members = None

    def __len__(self):
        return self.mask.bit_count()

    def __iter__(self):
        return iter(mask_points(self.mask, self.points))

    def __contains__(self, point):
        if self._members is None:
            self._members = frozenset(self)
        return point in self._members

    def __eq__(self, other):
        if isinstance(other, PointSet) and other.points is self.points:
            return self.mask == other.mask
        return Set.__eq__(self, other)

    # the hash of the equal frozenset
    __hash__ = Set._hash

    @classmethod
    def _from_iterable(cls, iterable):
        return frozenset(iterable)

    def __repr__(self):
        return "PointSet(%r)" % (sorted(self),)


def check_blocks_meet(masks, size: int):
    """Raise EmptyFaceError unless each block of `size` consecutive row masks
    has a point on all its rows, their AND nonzero.  Every face cut by rows
    of one block then holds that point: its mask is the AND of some of the
    block's masks."""
    for lo in range(0, len(masks), size):
        if not reduce(and_, masks[lo : lo + size]):
            raise EmptyFaceError("the rows of facet block %d share no point" % (lo // size + 1))


def interval_tower(p: Polytope):
    """(step of each inequality, sorted integer vertices) when p is a tower of
    intervals along its sweep order, else None.

    The certificate: each step t has two rows, with
    coefficients +1 and -1 on its coordinate, reading lo_t(y) <= x_t <= hi_t(y)
    for lo_t, hi_t affine in the earlier coordinates y; and walking the sweep
    tree, fixing x_t at lo_t or hi_t, gives lo_t < hi_t at every node.  The
    2^N leaves are the vertices.  Why this is enough: by induction the nodes of
    depth t are the vertices of the projection P_t of p to the first t
    coordinates, and hi_t - lo_t, affine and positive on them, is positive on
    all of P_t.  So every row is a facet, the two rows of a step never meet,
    p is simple, and each vertex cone is triangular with a unit diagonal.  A
    row set is the tight set of a nonempty face exactly when no two of its
    rows share a step, and that face has codimension their number."""
    rows = _sweep_rows(p)
    if rows is None:
        return None
    order, steps, by_step = rows
    if None in steps or any(sorted(a for a, _, _ in step) != [-1, 1] for step in by_step):
        return None
    points = [[0] * p.ambient_dim]
    for var, step in zip(order, by_step):
        (_, lo_rest, lo_rhs), (_, hi_rest, hi_rhs) = sorted(step)  # lower bound first
        grown = []
        for y in points:
            lo = sum(c * y[v] for v, c in lo_rest) - lo_rhs
            hi = hi_rhs - sum(c * y[v] for v, c in hi_rest)
            if lo >= hi:
                return None
            for val in (lo, hi):
                grown.append(y[:var] + [val] + y[var + 1 :])
        points = grown
    return tuple(steps), tuple(sorted(map(tuple, points)))


# ---------------------------------------------------------------------------
# vertices, facets, simplicity


@lru_cache(maxsize=None)
def vertices(p: Polytope) -> tuple:
    """All vertices, exactly, by depth-first search over tight inequality sets
    on one shared incremental echelon."""
    dim = p.ambient_dim
    echelon = linalg.Echelon(dim)
    ineq_rows = [tuple(c) + (r,) for c, r in p.ineqs]
    found = set()

    def dfs(idx):
        if echelon.rank == dim:
            sol = echelon.solve()
            point = linalg.integer_row(sol + (1,))  # numerators, then denominator
            if all(sum(a * x for a, x in zip(c, point)) <= r * point[-1] for c, r in p.ineqs):
                found.add(sol)
            return
        if len(ineq_rows) - idx < dim - echelon.rank:
            return
        if echelon.push(ineq_rows[idx]) == linalg.INDEPENDENT:
            dfs(idx + 1)
            echelon.pop()
        dfs(idx + 1)

    dfs(0)
    return tuple(sorted(found))


def incidence(p: Polytope) -> tuple:
    """Per inequality, the bitmask over `vertices(p)` of the vertices on
    which it is tight, read by `slack_masks` off the vertices and right-hand
    sides scaled by the vertices' common denominator."""
    verts = vertices(p)
    scale = lcm(*(x.denominator for v in verts for x in v))
    points = [[int(x * scale) for x in v] for v in verts]
    return slack_masks([(c, r * scale) for c, r in p.ineqs], points)[0]


def affine_rank(points) -> int:
    """Dimension of the affine span (-1 for empty input): the rank of the
    points in homogeneous coordinates, minus one."""
    return linalg.rank(tuple(q) + (1,) for q in points) - 1


def _normalized_halfspace(coeffs, rhs):
    g = gcd(*coeffs, rhs) or 1
    return tuple(x // g for x in coeffs), rhs // g


def facet_defining(p: Polytope) -> tuple:
    """Indices of inequalities whose tight vertex set has rank dim(P) - 1;
    of several inequalities defining the same halfspace, the first."""
    verts = vertices(p)
    amb_dim = affine_rank(verts)
    out = []
    seen_halfspaces = set()
    for idx, ((c, r), mask) in enumerate(zip(p.ineqs, incidence(p))):
        key = _normalized_halfspace(c, r)
        if key in seen_halfspaces:
            continue
        tight = [v for k, v in enumerate(verts) if mask >> k & 1]
        if affine_rank(tight) == amb_dim - 1:
            seen_halfspaces.add(key)
            out.append(idx)
    return tuple(out)


def is_simple(p: Polytope) -> bool:
    """Every vertex lies on exactly dim(P) facet-defining inequalities."""
    verts = vertices(p)
    amb_dim = affine_rank(verts)
    masks = incidence(p)
    facet_masks = [masks[idx] for idx in facet_defining(p)]
    return all(
        sum(m >> k & 1 for m in facet_masks) == amb_dim for k in range(len(verts))
    )


# ---------------------------------------------------------------------------
# string cone and string polytope


def string_cone_facets(datum: RootDatum) -> tuple:
    """String cone facets v . x <= 0 for the standard word, one per box in
    facet order (`pipedreams.board`): the box's coordinate, taken at its
    word position, is at least its left neighbour's, or at least 0 for the
    first box of its row.  Each entry is the integer vector v."""
    pos = pipedreams.board(datum).word_pos
    out = []
    for i, j in pipedreams.board(datum).facet_order:
        vec = [0] * len(pos)
        vec[pos[i, j] - 1] = -1
        left = pos.get((i, j - 1))
        if left is not None:
            vec[left - 1] = 1
        out.append(tuple(vec))
    return tuple(out)


def string_lambda_facet(datum: RootDatum, word, j: int):
    """Facet j (1-based) of the string polytope for any reduced word of w_0:
    coefficient vector v and weight-coefficient vector u with the inequality
    v . x <= u . lam and facet equality v . x = u . lam.  An index outside
    1..len(word) raises IndexError."""
    c = cartan_matrix(datum)
    big_n = len(word)
    if not 1 <= j <= big_n:
        raise IndexError("facet indices run from 1 to %d" % big_n)
    vec = [0] * big_n
    vec[j - 1] = 1
    ij = word[j - 1]
    for k in range(j + 1, big_n + 1):
        vec[k - 1] = c[ij - 1][word[k - 1] - 1]
    lam_vec = tuple(1 if t == ij else 0 for t in range(1, datum.rank + 1))
    return tuple(vec), lam_vec


@lru_cache(maxsize=None)
def _string_rows(datum: RootDatum) -> tuple:
    """(F rows, Fv rows, sweep order) of the string polytope for the standard
    word: lambda-bound facets, then cone facets."""
    word = standard_word(datum)
    big_n = datum.num_positive_roots
    f_rows = tuple(string_lambda_facet(datum, word, j) + (0,) for j in range(1, big_n + 1))
    zero = (0,) * datum.rank
    fv_rows = tuple((vec, zero, 0) for vec in string_cone_facets(datum))
    return f_rows, fv_rows, tuple(range(big_n - 1, -1, -1))


def check_weight_length(lam, size: int):
    """Raise ValueError unless lam has `size` entries, one per fundamental weight."""
    if len(lam) != size:
        raise ValueError("weight %r does not have one entry per fundamental weight" % (lam,))


def _polytope(f_rows, fv_rows, order, lam, deformed=False) -> Polytope:
    """The polytope of the facet rows F1.. then Fv1..; a row (vec, lam_vec,
    shift) reads vec . x <= lam_vec . lam, plus the shift when deformed; a
    weight with more or fewer entries than lam_vec raises ValueError."""
    rows = f_rows + fv_rows
    check_weight_length(lam, len(rows[0][1]))
    ineqs = tuple(
        (vec, sum(u * l for u, l in zip(lam_vec, lam)) + (shift if deformed else 0))
        for vec, lam_vec, shift in rows
    )
    return Polytope(ineqs, order)


def string_polytope(datum: RootDatum, lam) -> Polytope:
    """String polytope for the standard word: lambda-bound facets F_1..F_N
    first, cone facets Fv_1..Fv_N after."""
    return _polytope(*_string_rows(datum), lam)


# ---------------------------------------------------------------------------
# GT and SGT polytopes and their deformation


def _box_pos(datum: RootDatum, j: int, i: int, column: int) -> int:
    """0-based word position of box (n + 2 - i - j, the given column of letter i)."""
    box = (datum.rank + 2 - i - j, pipedreams.letter_columns(datum, i)[column])
    return pipedreams.board(datum).word_pos[box] - 1


def a_pos(datum: RootDatum, j: int, i: int) -> int:
    """0-based coordinate index of a_j^{(i)}: the word position of box
    (n + 2 - i - j, first column of letter i)."""
    return _box_pos(datum, j, i, 0)


def b_pos(datum: RootDatum, j: int, i: int) -> int:
    """0-based coordinate index of b_j^{(i)} (type C, 2 <= i): the word
    position of box (n + 2 - i - j, second column of letter i)."""
    return _box_pos(datum, j, i, 1)


def _lam_sum(n: int, lo: int, hi: int) -> tuple:
    """Lambda-coefficients of lambda_lo + ... + lambda_hi (0 when hi < lo)."""
    return tuple(int(lo <= t <= hi) for t in range(1, n + 1))


def _row(size: int, hi, lo, shift=0) -> tuple:
    """The facet row hi <= lo + shift between two pattern entries, each
    (terms, lam_vec): (coordinate, coefficient) terms plus the
    lambda-coefficients of a constant part."""
    vec = [0] * size
    for v, c in hi[0]:
        vec[v] += c
    for v, c in lo[0]:
        vec[v] -= c
    return tuple(vec), tuple(b - a for a, b in zip(hi[1], lo[1])), shift


@lru_cache(maxsize=None)
def _gt_facet_specs(datum: RootDatum) -> tuple:
    """(F rows, Fv rows, sweep order) of the GT polytope, type A."""
    n = datum.rank
    big_n = datum.num_positive_roots

    def avar(j, i):
        """a_j^{(i)}: a coordinate, or for i = 0 the constant
        a_j^{(0)} = lambda_j + ... + lambda_n, with a_{n+1}^{(0)} = 0."""
        if i == 0:
            return [], _lam_sum(n, j, n)
        return [(a_pos(datum, j, i), 1)], (0,) * n

    f_rows = []
    fv_rows = []
    for r in range(1, n + 1):
        lvl = n - r + 1
        for m in range(1, r + 1):
            # a_j^{(lvl)} >= a_{j+1}^{(lvl-1)} with j = r - m + 1
            f_rows.append(_row(big_n, avar(r - m + 2, lvl - 1), avar(r - m + 1, lvl)))
            # a_m^{(lvl-1)} + eps_{lvl} >= a_m^{(lvl)}, eps_{lvl} = lvl - 1
            fv_rows.append(_row(big_n, avar(m, lvl), avar(m, lvl - 1), lvl - 1))
    order = tuple(a_pos(datum, j, i) for i in range(1, n + 1) for j in range(1, n - i + 2))
    return tuple(f_rows), tuple(fv_rows), order


@lru_cache(maxsize=None)
def _sgt_facet_specs(datum: RootDatum) -> tuple:
    """(F rows, Fv rows, sweep order) of the SGT polytope, type C."""
    n = datum.rank
    big_n = datum.num_positive_roots
    zero = (0,) * n

    def avar(j, i):
        return [(a_pos(datum, j, i), 1)], zero

    def bvar(j, i):
        """b_j^{(i)}: a coordinate, the constant b_j^{(1)} = lambda_1 + ... +
        lambda_{n-j+1}, or the fixed zero b_{n-i+2}^{(i)}."""
        if i == 1:
            return [], _lam_sum(n, 1, n - j + 1)
        if j == n - i + 2:
            return [], zero
        return [(b_pos(datum, j, i), 1)], zero

    f_rows = []
    fv_rows = []
    for r in range(1, n + 1):
        lvl = n - r + 1
        for k in range(1, r + 1):
            # a_k^{(lvl)} + eps_{lvl+1} >= b_k^{(lvl+1)}, eps_{lvl+1} = 2 lvl - 1;
            # for k = r the right side is the fixed zero and the facet is the
            # plain a_r^{(lvl)} >= 0
            shift = 0 if k == r else 2 * lvl - 1
            f_rows.append(_row(big_n, bvar(k, lvl + 1), avar(k, lvl), shift))
        for k in range(r, 1, -1):
            # a_{k-1}^{(lvl)} >= b_k^{(lvl)}
            f_rows.append(_row(big_n, bvar(k, lvl), avar(k - 1, lvl)))
        for k in range(2, r + 1):
            # b_{k-1}^{(lvl+1)} >= a_k^{(lvl)}
            fv_rows.append(_row(big_n, avar(k, lvl), bvar(k - 1, lvl + 1)))
        for k in range(r, 0, -1):
            # b_k^{(lvl)} + eps'_{lvl} >= a_k^{(lvl)}, eps'_{lvl} = 2 lvl - 2
            fv_rows.append(_row(big_n, avar(k, lvl), bvar(k, lvl), 2 * lvl - 2))
    order = []
    for i in range(1, n + 1):
        order.extend(a_pos(datum, j, i) for j in range(1, n - i + 2))
        order.extend(b_pos(datum, j, i + 1) for j in range(1, n - i + 1))
    return tuple(f_rows), tuple(fv_rows), tuple(order)


def _interlacing_specs(datum: RootDatum) -> tuple:
    return (_gt_facet_specs if datum.family == "A" else _sgt_facet_specs)(datum)


def model_polytope(datum: RootDatum, lam) -> Polytope:
    """The GT polytope in type A, the SGT polytope in type C."""
    return _polytope(*_interlacing_specs(datum), lam)


def _integral_solution(a, b, name: str) -> tuple:
    """The X of a X = b as rows of ints, a and b integer matrices as rows,
    by one `linalg.Echelon` with b's rows as right-hand sides; ModelMapError
    unless X is unique and integral."""
    echelon = linalg.Echelon(len(a[0]))
    for vec, rhs in zip(a, b):
        if echelon.push(vec + rhs) == linalg.INCONSISTENT:
            raise ModelMapError("%s has no solution" % name)
    if echelon.rank < echelon.ncols:
        raise ModelMapError("%s has more than one solution" % name)
    columns = [echelon.solve(k) for k in range(len(b[0]))]
    if any(x.denominator != 1 for column in columns for x in column):
        raise ModelMapError("%s has no integral solution" % name)
    return tuple(tuple(map(int, row)) for row in zip(*columns))


@lru_cache(maxsize=None)
def model_map(datum: RootDatum) -> tuple:
    """(M, T), integer matrices as rows: y = M x + T lam maps the lattice
    points of the string polytope at lam (standard word) one-to-one onto the
    GT/SGT polytope's, for every dominant lam, keeping the slack of row k,
    F rows on lambda rows and Fv rows on cone rows (Littelmann, "Cones,
    crystals, and patterns", 1998).  With A the rows' coefficients and U their
    lambda-coefficients, A_model M = A_string and A_model T = U_model -
    U_string.  M and T must be integral, and so must the M' of A_string M' =
    A_model: A_model has full column rank, the first solve being unique, so
    M M' = 1 and M is unimodular.  Otherwise ModelMapError."""
    string, model = (f_rows + fv_rows for f_rows, fv_rows, _ in (_string_rows(datum), _interlacing_specs(datum)))
    a_string, a_model = [vec for vec, _, _ in string], [vec for vec, _, _ in model]
    offsets = [vec + tuple(map(sub, u, v)) for vec, (_, u, _), (_, v, _) in zip(a_string, model, string)]
    solution = _integral_solution(a_model, offsets, "the map onto the model rows")
    _integral_solution(a_string, a_model, "the reverse map onto the string rows")
    big_n = datum.num_positive_roots
    return tuple(row[:big_n] for row in solution), tuple(row[big_n:] for row in solution)


def deformed_polytope(datum: RootDatum, lam) -> Polytope:
    """GT or SGT polytope with its relaxed inequalities moved by their chain
    positions: type A eps_i = i - 1; type C, along the chain
    eps'_1 <= eps_2 <= eps'_2 <= ... <= eps'_n, eps'_i = 2i - 2 and
    eps_i = 2i - 3."""
    return _polytope(*_interlacing_specs(datum), lam, deformed=True)


def default_regular_lambda(datum: RootDatum) -> tuple:
    """Dominant regular weight coarse enough to keep the deformed polytope in
    the generic normal-fan chamber: N times the largest shift, in every
    coordinate."""
    f_rows, fv_rows, _ = _interlacing_specs(datum)
    c = max(1, datum.num_positive_roots * max(shift for _, _, shift in f_rows + fv_rows))
    return (c,) * datum.rank
