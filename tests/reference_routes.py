"""Slow reference routes that the library's table-driven code is tested
against: the Weyl group and its inverses by one-line arithmetic, reduced
words by the descent walk on the group table and every reduced word by the
descent recursion, the length by the root action, the coroots, the
crystal's depth and the Weyl dimension by the symmetrized Cartan matrix and
root norms over Fractions, Demazure characters and dimensions by isobaric
Demazure operators, the crystal read off
`f_op`/`e_op` state by state, the operator table's states replayed by
`f_op` along its raising indices, the sigma statistic by its definition, string
coordinates by raising one state along the word, the Demazure folds along
whole reduced words and as frozensets of table indices, the extraction sets
by one search per Weyl element, the type A ladder move and box-removal
operator on the staircase board, the Demazure index sets by one whole
box-removal fold per element, Schubert representatives and structure
constants by one whole divided-difference chain per element on polynomials
keyed by exponent tuples, which `pack` and `unpack` convert to and from the
oracle's packed keys, and the
products and pairings of the deformed-polytope ring by rewriting row
multisets one repeated row at a time and its products and divisor powers
one shared step at a time, the duality suite by filtering all pairs of
elements for complementary lengths, the crystal's string table checked
against an enumeration of the string polytope's lattice points, lattice
points and counts by the recursive sweep with one call per node, the row
incidence masks by exact dot products column by column, face volumes by
Ehrhart interpolation over the lattice points of the dilates, and the board
layouts, string cone facets and pattern coordinates by hand-indexed
formulas with one branch per type.  Also the
exact linear solve and the weight and diagram helpers that only tests use."""

import itertools
from collections import Counter
from fractions import Fraction
from math import gcd, lcm
from operator import add, eq, mul

from schubcalc import crystals as cr
from schubcalc import faces as fc
from schubcalc import linalg
from schubcalc import oracles as orc
from schubcalc import pipedreams as pd
from schubcalc import polytopes as pt
from schubcalc import verify
from schubcalc.cartan import (
    InvariantError,
    RootDatum,
    WeylElement,
    _inversions,
    _weyl_table,
    bruhat_leq,
    cartan_matrix,
    check_group,
    check_weight,
    check_word_of_longest,
    all_elements,
    identity_element,
    inverse,
    left_ascents,
    left_descents,
    left_mul,
    length,
    longest_element,
    multiply,
    reduced_word,
    simple_element,
    simple_root_in_fundamental,
    positive_roots,
    standard_word,
    word_to_element,
)


# ---------------------------------------------------------------------------
# the Weyl group by one-line arithmetic


def act_on_root(w, root):
    """Image of a root (simple-root basis) under w, one simple reflection of
    its reduced word at a time."""
    c = cartan_matrix(w.datum)
    n = w.datum.rank
    vec = tuple(root)
    for i in reversed(reduced_word(w)):
        pairing = sum(vec[j] * c[i - 1][j] for j in range(n))
        vec = tuple(vec[j] - (pairing if j == i - 1 else 0) for j in range(n))
    return vec


def oneline_left_mul(i, w):
    """s_i w by composing one-line forms."""
    return multiply(simple_element(w.datum, i), w)


def bfs_elements(datum):
    """Every element: the breadth-first closure of the identity under left
    multiplication, sorted by (inversion count, one-line form)."""
    seen = {identity_element(datum)}
    frontier = [identity_element(datum)]
    while frontier:
        new = []
        for w in frontier:
            for i in range(1, datum.rank + 1):
                x = oneline_left_mul(i, w)
                if x not in seen:
                    seen.add(x)
                    new.append(x)
        frontier = new
    return tuple(sorted(seen, key=lambda w: (_inversions(w), w.oneline)))


def _first_left_descent(w):
    return next(
        i for i in range(1, w.datum.rank + 1) if _inversions(oneline_left_mul(i, w)) < _inversions(w)
    )


def oneline_reduced_word(w):
    """The reduced word that takes the smallest left descent first."""
    word = []
    while _inversions(w):
        i = _first_left_descent(w)
        word.append(i)
        w = oneline_left_mul(i, w)
    return tuple(word)


def oneline_inverse(w):
    """w^{-1} by one-line arithmetic: entry j at x sends x back to j."""
    out = [0] * len(w.oneline)
    for j, x in enumerate(w.oneline, start=1):
        out[abs(x) - 1] = j if x > 0 else -j
    return WeylElement(w.datum, tuple(out))


def table_reduced_word(w):
    """The reduced word that takes the smallest left descent first, by the
    descent walk on the group table's left and length columns."""
    table = _weyl_table(w.datum)
    k = table.index[w.oneline]
    length, left = table.length, table.left
    word = []
    while length[k]:
        i = next(i for i, step in enumerate(left, 1) if length[step[k]] < length[k])
        word.append(i)
        k = left[i - 1][k]
    return tuple(word)


def all_reduced_words(w):
    """Every reduced word of w, sorted: each left descent followed by every
    reduced word of s_i w."""
    if length(w) == 0:
        return ((),)
    return tuple(sorted((i,) + tail for i in left_descents(w) for tail in all_reduced_words(left_mul(i, w))))


def lifting_bruhat_leq(v, w):
    """Bruhat order by the lifting property, recursively on elements."""
    if _inversions(v) == 0:
        return True
    if _inversions(v) > _inversions(w):
        return False
    i = _first_left_descent(w)
    sv = oneline_left_mul(i, v)
    if _inversions(sv) < _inversions(v):
        return lifting_bruhat_leq(sv, oneline_left_mul(i, w))
    return lifting_bruhat_leq(v, oneline_left_mul(i, w))


# ---------------------------------------------------------------------------
# linear solves


def solve(rows, ncols):
    """Unique exact solution of the rows (coefficients, then right-hand
    side) in `ncols` unknowns; None when inconsistent or underdetermined."""
    echelon = linalg.Echelon(ncols)
    for row in rows:
        if echelon.push(row) == linalg.INCONSISTENT:
            return None
    return echelon.solve()


# ---------------------------------------------------------------------------
# weights


def symmetrizer(datum):
    """Integers d_i with d_i c_{i,j} = d_j c_{j,i}, short roots having d = 1:
    propagated along the Dynkin chain in Fractions, then scaled to coprime
    integers, so that (alpha_i, alpha_i) = 2 d_i."""
    c = cartan_matrix(datum)
    n = datum.rank
    d = [Fraction(0)] * n
    d[0] = Fraction(1)
    for i in range(1, n):
        # chain graph: propagate along the edge (i-1, i)
        d[i] = d[i - 1] * c[i - 1][i] / c[i][i - 1]
    scale = lcm(*(x.denominator for x in d))
    ints = [int(x * scale) for x in d]
    g = gcd(*ints)
    return tuple(x // g for x in ints)


def weight_root_pairing(datum, lam, root):
    """W-invariant inner product (lam, root) for lam in fundamental
    coordinates and root in the simple-root basis, as a Fraction."""
    d = symmetrizer(datum)
    return Fraction(sum(root[j] * d[j] * lam[j] for j in range(datum.rank)))


def root_norm(datum, beta):
    """(beta, beta) for a root in the simple-root basis: (alpha_i, alpha_j)
    is d_i c_{i,j}."""
    c, d = cartan_matrix(datum), symmetrizer(datum)
    n = datum.rank
    return sum(beta[i] * d[i] * c[i][j] * beta[j] for i in range(n) for j in range(n))


def coroot(datum, beta):
    """2 beta / (beta, beta) in the simple-coroot basis: alpha_i is d_i
    alpha_i^vee."""
    norm = root_norm(datum, beta)
    return tuple(Fraction(2 * b * di, norm) for b, di in zip(beta, symmetrizer(datum)))


def depth(datum, lam):
    """<lam, 2 rho^vee> as the sum over the positive roots beta of
    2 (lam, beta) / (beta, beta), the norms read off the symmetrized Cartan
    matrix."""
    c, d = cartan_matrix(datum), symmetrizer(datum)
    total = 0
    for beta in positive_roots(datum):
        # (x, beta) = sum_j d_j beta_j <x, h_j>, and <beta, h_j> is row j of c times beta
        weighted = list(map(mul, d, beta))
        norm = sum(w * sum(map(mul, row, beta)) for w, row in zip(weighted, c))
        total += 2 * sum(map(mul, weighted, lam)) // norm
    return total


def weyl_dimension(datum, lam):
    """prod over the positive roots alpha of (lam + rho, alpha) / (rho, alpha)
    over Fractions, rho = (1, ..., 1)."""
    rho = (1,) * datum.rank
    lam_rho = tuple(x + 1 for x in lam)
    num = Fraction(1)
    for alpha in positive_roots(datum):
        num *= weight_root_pairing(datum, lam_rho, alpha) / weight_root_pairing(datum, rho, alpha)
    return num


def weight_inner(datum, lam, mu):
    """W-invariant inner product of two weights in fundamental coordinates."""
    c = cartan_matrix(datum)
    n = datum.rank
    # solve C g = mu, so that mu = sum_j g_j alpha_j
    g = solve([c[i] + (mu[i],) for i in range(n)], n)
    d = symmetrizer(datum)
    return sum(g[j] * d[j] * lam[j] for j in range(n))


def act_on_weight(w, lam):
    """Image of a weight (fundamental coordinates) under w."""
    c = cartan_matrix(w.datum)
    n = w.datum.rank
    vec = tuple(lam)
    for i in reversed(reduced_word(w)):
        coeff = vec[i - 1]
        vec = tuple(vec[j] - coeff * c[j][i - 1] for j in range(n))
    return vec


def is_reduced_word(datum, word):
    return length(word_to_element(datum, word)) == len(word)


# ---------------------------------------------------------------------------
# formal characters and isobaric Demazure operators


def demazure_operator(datum, i, char):
    """pi_i on an integer combination of formal exponentials e^mu: with
    m = <mu, h_i>, e^mu goes to the e^(mu - k alpha_i) for 0 <= k <= m, and
    to minus those for m < k < 0."""
    alpha = simple_root_in_fundamental(datum, i)
    out = {}
    for mu, coeff in char.items():
        if len(mu) != datum.rank:
            raise ValueError("weight %r is not of rank %d" % (mu, datum.rank))
        m = mu[i - 1]
        ks, c = (range(m + 1), coeff) if m >= 0 else (range(-1, m, -1), -coeff)
        for k in ks:
            image = tuple(x - k * a for x, a in zip(mu, alpha))
            out[image] = out.get(image, 0) + c
    return {mu: c for mu, c in out.items() if c}


def demazure_character(datum, w, lam):
    """Character of the Demazure module for w at lam, via any reduced word
    (Kashiwara, Duke Math. J. 71, 1993)."""
    check_group(datum, w)
    check_weight(datum, lam)
    char = {tuple(lam): 1}
    for i in reversed(reduced_word(w)):
        char = demazure_operator(datum, i, char)
    return char


def demazure_dimension(datum, w, lam):
    return sum(demazure_character(datum, w, lam).values())


# ---------------------------------------------------------------------------
# crystals


def sigma(datum, word, coords, k):
    """sigma_k = a_k + sum_{l>k} c_{i_k, i_l} a_l (1-based k)."""
    c = cartan_matrix(datum)
    ik = word[k - 1]
    total = coords[k - 1]
    for l in range(k + 1, len(word) + 1):
        total += c[ik - 1][word[l - 1] - 1] * coords[l - 1]
    return total


def _raise_string(datum, word, lam, state, i):
    """(count, top): raise by letter i until null.  The count must be eps_i,
    or the state is not in the generated crystal."""
    expected = cr.epsilon(datum, word, lam, state, i)
    count = 0
    while True:
        nxt = cr.e_op(datum, word, lam, state, i)
        if nxt is None:
            break
        state = nxt
        count += 1
    if count != expected:
        raise InvariantError("non-normal state: not in the generated crystal")
    return count, state


def string_coords(datum, word, lam, state):
    """String parametrization of one state: raise along the word, recording
    how many raises each letter admits."""
    out = []
    for i in word:
        count, state = _raise_string(datum, word, lam, state, i)
        out.append(count)
    if any(state):
        raise InvariantError("string extraction did not reach the top")
    return tuple(out)


def byte_fields(depth):
    """The bytes of a field that holds the depth: the least of 1, 2, 4 and 8."""
    return next(size for size in (1, 2, 4, 8) if not depth >> 8 * size)


def unpack_bits(key, bits, length):
    """The `length` fields of `bits` bits of an int, field p from bit bits * p."""
    return tuple((key >> (bits * p)) & ((1 << bits) - 1) for p in range(length))


def pack_bits(values, bits):
    """The int with value p from bit bits * p: a sum of shifted values, a
    value past its field carrying into the next."""
    return sum(a << (bits * p) for p, a in enumerate(values))


def table_states(datum, word, lam, table=None):
    """The states of the operator table in table order, replayed by `f_op`:
    state 0 is zero, and each later state is f_i of its parent up[i - 1][k]
    for the least letter i that has one.  The table is the record's unless
    one is given."""
    table = table or cr._crystal(datum, word, lam).table
    states = [(0,) * len(word)]
    for k in range(1, len(table.down[0])):
        i, parent = next((i, up[k]) for i, up in enumerate(table.up, 1) if up[k] >= 0)
        states.append(cr.f_op(datum, word, lam, states[parent], i))
    return tuple(states)


def pack_strings(points, size=1):
    """Tuples of one length as the record holds them (`crystals._Strings`):
    each a sum of shifted coordinates, coordinate p in field p of `size`
    bytes."""
    packed = tuple(pack_bits(point, 8 * size) for point in points)
    return cr._Strings(packed, len(points[0]), size)


def list_statistics_layout(datum, word):
    """(letters, where, deltas) of the flat list statistics: the letter-1
    sigmas at the positions of letter 1 in word order, then the letter-2
    sigmas, and so on, then <wt, h_j> for every letter j.  letters[i - 1]
    is (lo, hi, slot): letter i's sigmas sit at [lo, hi) and its weight
    pairing at slot.  where[s] is the 0-based word position of the sigma at
    s.  Raising a_p by one adds deltas[p]: c_{j, i_p} to each letter-j sigma
    before p, 1 to the sigma at p, nothing after p, and -c_{j, i_p} to
    <wt, h_j>."""
    c = cartan_matrix(datum)
    letters, where = [], []
    for i in range(1, datum.rank + 1):
        lo = len(where)
        where.extend(p for p, letter in enumerate(word) if letter == i)
        letters.append((lo, len(where), len(word) + i - 1))
    deltas = tuple(
        tuple(c[word[q] - 1][word[p] - 1] if q < p else int(q == p) for q in where)
        + tuple(-c[j][word[p] - 1] for j in range(datum.rank))
        for p in range(len(word))
    )
    return tuple(letters), tuple(where), deltas


def list_statistics_table(datum, word, lam, bits=None):
    """(table, states): the operator table by the breadth-first build on
    list statistics, and its states in table order.  Every state carries its
    flat list of sigmas and weight pairings (`list_statistics_layout`), and
    every (state, letter) pair takes the max of the letter's sigmas and its
    first position afresh, as the library did before it decided each letter
    once per distinct group of packed statistics.  The states are keyed by
    coordinate p in field p of `bits` bits, by default the byte fields that
    hold the depth, as the library keyed them before it keyed them by their
    statistics; the depth witness and the checks are the library's."""
    cr._validate(datum, word, lam)
    letters, where, deltas = list_statistics_layout(datum, word)
    depth = cr._depth(datum, lam)
    bits = bits or 8 * byte_fields(depth)
    unit = [1 << (bits * p) for p in range(len(word))]
    keys = [0]
    index = {0: 0}
    down = [[] for _ in letters]
    eps = [[] for _ in letters]
    pending = [[0] * len(where) + list(lam)]
    lowest = []
    for k, key in enumerate(keys):
        stats = pending[k]
        killed = True
        for (lo, hi, slot), down_i, eps_i in zip(letters, down, eps):
            top = max(stats[lo:hi])
            best = top if top > 0 else 0
            wt_i = stats[slot]
            if best + wt_i < 0:
                raise cr.CorruptElementError("negative phi: element outside the cut crystal")
            eps_i.append(best if best > -wt_i else -wt_i)
            if best + wt_i == 0:
                down_i.append(-1)
                continue
            if top < 0:
                raise cr.CorruptElementError("lowering argmin beyond stored coordinates")
            killed = False
            p = where[stats.index(top, lo, hi)]
            nxt = key + unit[p]
            j = index.get(nxt)
            if j is None:
                j = index[nxt] = len(keys)
                keys.append(nxt)
                pending.append(list(map(add, stats, deltas[p])))
            down_i.append(j)
        if killed:
            lowest.append(k)
    if len(lowest) != 1:
        raise InvariantError("lowest element not unique")
    table = cr._OperatorTable(
        depth,
        tuple(tuple(row) for row in down),
        tuple(tuple(cr._invert(row, range(len(row)))) for row in down),
        tuple(tuple(row) for row in eps),
        lowest[0],
    )
    states = tuple(unpack_bits(key, bits, len(word)) for key in keys)
    if sum(states[table.lowest]) != table.depth:
        raise InvariantError("the lowest state's coordinates do not sum to the depth %d" % depth)
    return table, states


def parent_key_bits(depth):
    """The bits of a key field when keys were bit fields: those of the
    depth, and at least 1."""
    return depth.bit_length() or 1


def statistics_bits(datum, lam):
    """The bits of a statistic field when the crystal module chose them: the
    narrowest of 8, 16, 32 and 64 past the bit length of the bound
    max |c_ij| * depth + max lam."""
    bound = max(abs(c) for row in cartan_matrix(datum) for c in row) * depth(datum, lam) + max(lam)
    return max(8, 1 << bound.bit_length().bit_length())


def list_statistics(datum, word, lam, state):
    """One state's flat list statistics (`list_statistics_layout`): the
    highest state's, zero sigmas and lam, plus a_p times the move of p."""
    letters, where, deltas = list_statistics_layout(datum, word)
    stats = [0] * len(where) + list(lam)
    for a, delta in zip(state, deltas):
        stats = [x + a * d for x, d in zip(stats, delta)]
    return stats


def bfs_states(datum, word, lam):
    """The cut crystal as the breadth-first closure of the zero vector under
    `f_op`, sorted."""
    zero = (0,) * len(word)
    seen = {zero}
    frontier = [zero]
    while frontier:
        new = []
        for state in frontier:
            for i in range(1, datum.rank + 1):
                nxt = cr.f_op(datum, word, lam, state, i)
                if nxt is not None and nxt not in seen:
                    seen.add(nxt)
                    new.append(nxt)
        frontier = new
    return tuple(sorted(seen))


def lowest(datum, word, lam, states=None):
    """The state that every `f_op` kills, among `states` when given, else
    among `bfs_states`."""
    (low,) = [
        s
        for s in (bfs_states(datum, word, lam) if states is None else states)
        if all(cr.f_op(datum, word, lam, s, i) is None for i in range(1, datum.rank + 1))
    ]
    return low


def _closure(op, datum, word, lam, i, states):
    out = set(states)
    for s in states:
        cur = s
        while True:
            cur = op(datum, word, lam, cur, i)
            if cur is None:
                break
            out.add(cur)
    return frozenset(out)


def fold_demazure(datum, word, lam, rw):
    """B_w(lam): lowering closures folded along the reduced word rw of w,
    right to left."""
    states = frozenset([(0,) * len(word)])
    for i in reversed(rw):
        states = _closure(cr.f_op, datum, word, lam, i, states)
    return states


def fold_opposite(datum, word, lam, w):
    """B^w(lam): raising closures along a length-decreasing chain from the
    longest element down to w."""
    states = frozenset([lowest(datum, word, lam)])
    for i in reduced_word(multiply(longest_element(datum), inverse(w))):
        states = _closure(cr.e_op, datum, word, lam, i, states)
    return states


def _index_closure(step, members):
    out = set(members)
    for k in members:
        j = step[k]
        while j >= 0 and j not in out:
            out.add(j)
            j = step[j]
    return frozenset(out)


def index_folds(datum, word, lam):
    """({w: B_w(lam)}, {w: B^w(lam)}) over all w, as frozensets of states:
    the folds' recursion (smallest left descent, smallest left ascent) run
    on frozensets of table indices, as the library ran it before its folds
    became masks."""
    table = cr._crystal(datum, word, lam).table
    elements = sorted(all_elements(datum), key=length)
    low, high = {}, {}
    for w in elements:
        descents = left_descents(w)
        low[w] = (_index_closure(table.down[descents[0] - 1], low[left_mul(descents[0], w)])
                  if descents else frozenset([0]))
    for w in reversed(elements):
        ascents = left_ascents(w)
        high[w] = (_index_closure(table.up[ascents[0] - 1], high[left_mul(ascents[0], w)])
                   if ascents else frozenset([table.lowest]))

    decoded = table_states(datum, word, lam)

    def states(folds):
        return {w: frozenset(decoded[k] for k in s) for w, s in folds.items()}

    return states(low), states(high)


def i_strings(datum, word, lam, i):
    """The i-strings, top to bottom, by raising and lowering state by state."""
    seen = set()
    out = []
    for s in bfs_states(datum, word, lam):
        if s in seen:
            continue
        top = s
        while (up := cr.e_op(datum, word, lam, top, i)) is not None:
            top = up
        chain = [top]
        while (down := cr.f_op(datum, word, lam, chain[-1], i)) is not None:
            chain.append(down)
        seen.update(chain)
        out.append(tuple(chain))
    return tuple(out)


def compatible_subsets(datum, word, w):
    """The extraction sets of one w by a depth-first search over increasing
    positions, pruned by the Bruhat order below w."""
    check_word_of_longest(datum, word)
    target_len = length(w)
    results = []

    def extend(pos, current, chosen):
        if len(chosen) == target_len:
            if current == w:
                results.append(tuple(chosen))
            return
        if len(word) - pos < target_len - len(chosen):
            return
        for k in range(pos, len(word)):
            nxt = multiply(current, simple_element(datum, word[k]))
            if length(nxt) == len(chosen) + 1 and bruhat_leq(nxt, w):
                chosen.append(k + 1)
                extend(k + 1, nxt, chosen)
                chosen.pop()

    extend(0, identity_element(datum), [])
    return tuple(sorted(results))


def other_word(datum):
    """The lexicographically last reduced word of the longest element, a
    non-standard one."""
    word = all_reduced_words(longest_element(datum))[-1]
    if word == standard_word(datum):
        raise ValueError("the standard word is the last one for %r" % (datum,))
    return word


# ---------------------------------------------------------------------------
# the crystal's strings against the string polytope, by enumeration


# (family, rank, lambda) of the certified tables checked against the
# enumeration: A2-A4 and C2-C3 at every lambda in {0, 1}^n, and three
# larger weights
INCIDENCE_CASES = tuple(
    (family, rank, lam)
    for family, top in (("A", 4), ("C", 3))
    for rank in range(2, top + 1)
    for lam in itertools.product((0, 1), repeat=rank)
) + (("A", 3, (3, 3, 3)), ("C", 3, (2, 2, 2)), ("C", 2, (2, 3)))


# (family, rank, lambda) of the packed column routes checked against the
# list route of `slack_masks`: A2 and C2 at lambda <= 3, A3 at lambda <= 2,
# C3 at lambda <= 1, C3 (2, 2, 2), and A1 (300,), whose strings take fields
# of two bytes
LIST_ROUTE_CASES = tuple(
    (family, rank, lam)
    for family, rank, top in (("A", 2, 3), ("A", 3, 2), ("C", 2, 3), ("C", 3, 1))
    for lam in itertools.product(range(top + 1), repeat=rank)
) + (("C", 3, (2, 2, 2)), ("A", 1, (300,)))


def enumerated_string_incidence(datum, word, lam):
    """(points, masks) of one (datum, word, lambda) by enumerating the
    polytope.  On the standard word: the string polytope's lattice points in
    sweep order and its row masks over them (`lattice_incidence`), after
    checking that they are the crystal's strings as a set.  On any other
    word: the crystal's strings, sorted, and the masks of the lambda-bound
    rows by exact dot products."""
    strings = frozenset(cr._string_table(cr._operator_table(datum, word, lam), word))
    if word == standard_word(datum):
        poly = pt.string_polytope(datum, lam)
        count, masks = pt.lattice_incidence(poly)
        points = in_sweep_order(poly, pt.lattice_points(poly))
        if count != len(points) or frozenset(points) != strings:
            raise cr.CrystalPolytopeMismatchError(
                "crystal generation has %d points, string polytope %d" % (len(strings), count)
            )
        return points, masks
    points = tuple(sorted(strings))
    rows = []
    for j in range(1, len(word) + 1):
        vec, lam_vec = pt.string_lambda_facet(datum, word, j)
        rows.append((vec, sum(a * b for a, b in zip(lam_vec, lam))))
    return points, column_tight_bits(rows, points)


def tight_rows_by_point(points, masks):
    """point -> the frozenset of the rows whose masks hold it."""
    return {
        point: frozenset(k for k, mask in enumerate(masks) if mask >> i & 1)
        for i, point in enumerate(points)
    }


# ---------------------------------------------------------------------------
# lattice points by the recursive sweep


def _ceil_div(p, q):
    # q > 0
    return -((-p) // q)


def _interval(step_rows, point, var):
    """(lo, hi) of coordinate var at one sweep step, given the earlier
    coordinates in point; UnboundedRegionError when a side has no row."""
    lo = hi = None
    for a, rest, rhs in step_rows:
        s = rhs - sum(c * point[v] for v, c in rest)
        if a > 0:
            b = s // a
            hi = b if hi is None else min(hi, b)
        else:
            b = _ceil_div(-s, -a)
            lo = b if lo is None else max(lo, b)
    if lo is None or hi is None:
        raise pt.UnboundedRegionError(
            "no %s bound for coordinate %d; region unbounded along sweep"
            % ("lower" if lo is None else "upper", var)
        )
    return lo, hi


def recursive_lattice_points(p):
    """All integer points, sorted, by one Python call per node of the sweep
    tree, each interval read off the rows of its step at the node's point."""
    rows = pt._sweep_rows(p)
    if rows is None:
        return ()
    order, _, by_step = rows
    dim = p.ambient_dim
    point = [0] * dim
    out = []

    def sweep(t):
        if t == dim:
            out.append(tuple(point))
            return
        var = order[t]
        lo, hi = _interval(by_step[t], point, var)
        for val in range(lo, hi + 1):
            point[var] = val
            sweep(t + 1)
        point[var] = 0

    sweep(0)
    return tuple(sorted(out))


def recursive_lattice_count(p):
    """The number of integer points by the recursive sweep, adding up the
    range of the last coordinate instead of walking it."""
    rows = pt._sweep_rows(p)
    if rows is None:
        return 0
    order, _, by_step = rows
    last = p.ambient_dim - 1
    point = [0] * p.ambient_dim

    def sweep(t):
        var = order[t]
        lo, hi = _interval(by_step[t], point, var)
        if t == last:
            return max(0, hi - lo + 1)
        total = 0
        for val in range(lo, hi + 1):
            point[var] = val
            total += sweep(t + 1)
        return total

    return sweep(0) if last >= 0 else 1


def in_sweep_order(p, points):
    """The points sorted by their coordinates read along p's sweep order: the
    order of `lattice_incidence`'s masks."""
    return tuple(sorted(points, key=lambda x: [x[v] for v in p.sweep_order]))


# ---------------------------------------------------------------------------
# row incidence

_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def column_tight_bits(rows, points):
    """Per row (coefficients, rhs), the int with bit i set when points[i]
    lies on the row, read in base 2 off one flag string per row.  The dot
    products run column by column over the row's support, exactly, so the
    points may hold Fractions."""
    columns = tuple(zip(*points[::-1]))  # the last point is the last digit, bit 0
    out = []
    for vec, rhs in rows:
        dots = [0] * len(points)
        for column, c in zip(columns, vec):
            if c:
                dots = map(add, dots, map(mul, itertools.repeat(c), column))
        out.append(int(bytes(map(eq, dots, itertools.repeat(rhs))).translate(_DIGITS) or b"0", 2))
    return tuple(out)


# ---------------------------------------------------------------------------
# face volumes by Ehrhart interpolation


def face_polytope(p, tight):
    """The face of p on which the inequalities indexed by `tight` (0-based)
    are equalities: p's rows, then the negation of each tight row."""
    for t in tight:
        if not 0 <= t < len(p.ineqs):
            raise IndexError("tight index %d out of range" % t)
    negated = tuple((tuple(-x for x in c), -r) for c, r in (p.ineqs[t] for t in sorted(set(tight))))
    return pt.Polytope(p.ineqs + negated, p.sweep_order)


def dilate(p, k):
    return pt.Polytope(tuple((c, r * k) for c, r in p.ineqs), p.sweep_order)


def ehrhart_polynomial(p):
    """Coefficients (a_0, ..., a_d) of the lattice-point count of kP as a polynomial in k,
    with d = dim(P).  Interpolated from exact counts at k = 0..d."""
    pts = pt.lattice_points(p)
    if not pts:
        raise ValueError("Ehrhart polynomial of an empty polytope")
    d = pt.affine_rank(pts)
    counts = [1] + [len(pt.lattice_points(dilate(p, k))) for k in range(1, d + 1)]
    # the Vandermonde system sum_e a_e k^e = count(k), k = 0..d, has one solution
    rows = [[k ** e for e in range(d + 1)] + [c] for k, c in enumerate(counts)]
    return solve(rows, d + 1)


def normalized_volume(p):
    """Lattice-normalized volume in the polytope's own dimension: the leading
    Ehrhart coefficient.  A point has volume 1."""
    return ehrhart_polynomial(p)[-1]


def volume_at_dim(p, d):
    """Coefficient of k^d in the Ehrhart polynomial; 0 when dim(P) < d."""
    pts = pt.lattice_points(p)
    if not pts:
        return Fraction(0)
    actual = pt.affine_rank(pts)
    if actual > d:
        raise ValueError("polytope has dimension %d > requested %d" % (actual, d))
    if actual < d:
        return Fraction(0)
    return normalized_volume(p)


def side_volume(datum, side, w, lam):
    """The side's face volumes summed on the string polytope, by Ehrhart
    interpolation: the dual Kogan faces of w (the first facet family) at
    dimension N - l(w), or its Kogan faces (the second) at l(w)."""
    big_n = datum.num_positive_roots
    poly = pt.string_polytope(datum, lam)
    if side == "opposite":
        family, d, offset = "dual-kogan", big_n - length(w), 0
    else:
        family, d, offset = "kogan", length(w), big_n
    total = Fraction(0)
    for tight in fc.schubert_class(datum, w, family):
        total += volume_at_dim(face_polytope(poly, [offset + k - 1 for k in tight]), d)
    return total


# ---------------------------------------------------------------------------
# the board layouts by hand-indexed formulas, one branch per type


def per_type_board_boxes(datum):
    n = datum.rank
    if datum.family == "A":
        return frozenset((i, j) for i in range(1, n + 1) for j in range(1, n - i + 2))
    return frozenset((i, j) for i in range(1, n + 1) for j in range(i, 2 * n - i + 1))


def per_type_facet_ordering(datum):
    """Type A: rows bottom to top, columns left to right.  Type C: rows
    bottom to top, columns right to left."""
    n = datum.rank
    out = []
    if datum.family == "A":
        for i in range(n, 0, -1):
            for j in range(1, n - i + 2):
                out.append((i, j))
    else:
        for i in range(n, 0, -1):
            for j in range(2 * n - i, i - 1, -1):
                out.append((i, j))
    return tuple(out)


def per_type_word_ordering(datum):
    """Type A: block r of the standard word in row n - r + 1, the column of
    each position its letter.  Type C: the facet ordering."""
    n = datum.rank
    if datum.family == "C":
        return per_type_facet_ordering(datum)
    out = []
    for r in range(1, n + 1):
        for j in range(r, 0, -1):
            out.append((n - r + 1, j))
    return tuple(out)


def per_type_ascii_diagram(d):
    n = d.datum.rank
    lines = []
    if d.datum.family == "A":
        for i in range(1, n + 1):
            row = ["+" if (i, j) in d.boxes else "." for j in range(1, n - i + 2)]
            lines.append("".join(row))
    else:
        for i in range(1, n + 1):
            pad = " " * (i - 1)
            row = ["+" if (i, j) in d.boxes else "." for j in range(i, 2 * n - i + 1)]
            lines.append(pad + "".join(row))
    return "\n".join(lines)


def _tri(k):
    return k * (k + 1) // 2


def block_a_pos(datum, j, i):
    """0-based coordinate index of a_j^{(i)} by its block of the standard
    word: block r = i + j - 1 starts at _tri(r - 1) in type A, (r - 1)^2 in
    type C."""
    r = i + j - 1
    if datum.family == "A":
        return _tri(r - 1) + j - 1
    return (r - 1) * (r - 1) + 2 * r - j - 1


def block_b_pos(datum, j, i):
    """0-based coordinate index of b_j^{(i)} (type C, 2 <= i)."""
    r = i + j - 1
    return (r - 1) * (r - 1) + j - 1


def block_string_cone_facets(datum):
    """The string cone facets for the standard word, block by block: each
    chain entry is at most the one before it, and the last is at least 0."""
    n = datum.rank
    big_n = datum.num_positive_roots
    out = []
    if datum.family == "A":
        for r in range(1, n + 1):
            base = _tri(r - 1)
            for m in range(1, r + 1):
                vec = [0] * big_n
                if m == 1:
                    vec[base + r - 1] = -1          # a_r^{(1)} >= 0
                else:
                    vec[base + r - m + 1] = 1       # a_{r-m+2}^{(m-1)}
                    vec[base + r - m] = -1          # <= a_{r-m+1}^{(m)}
                out.append(tuple(vec))
    else:
        for r in range(1, n + 1):
            base = (r - 1) * (r - 1)
            size = 2 * r - 1
            for m in range(1, size + 1):
                vec = [0] * big_n
                if m == size:
                    vec[base + size - 1] = -1       # last chain entry >= 0
                else:
                    vec[base + m] = 1               # next chain entry
                    vec[base + m - 1] = -1          # <= previous
                out.append(tuple(vec))
    return tuple(out)


# ---------------------------------------------------------------------------
# pipe dreams


def word_of_diagram(d):
    """Letters of the standard word at the k_D positions."""
    word = standard_word(d.datum)
    return tuple(word[k - 1] for k in pd.arrangement_kd(d))


def is_reduced(d):
    letters = word_of_diagram(d)
    return length(word_to_element(d.datum, letters)) == len(letters)


def ladder_move_a(d, i, j):
    """The type A ladder move with source box (i, j), row by row up
    column j; None when inapplicable."""
    boxes = d.boxes
    if (i, j) not in boxes or (i, j + 1) in boxes:
        return None
    m = 1
    while m < i:
        above, above_r = (i - m, j), (i - m, j + 1)
        both_in = above in boxes and above_r in boxes
        if not both_in:
            if above in boxes or above_r in boxes:
                return None
            new = (i - m, j + 1)
            return pd.Diagram(d.datum, (boxes - {(i, j)}) | {new})
        m += 1
    return None


def m_op_a(datum, i, d):
    """The type A box-removal operator: strip the first mitosis candidate of
    column i and close under type A ladder moves out of column i."""
    cand = pd.mitosis_candidates(d, i)
    if not cand:
        raise pd.MOpError("no removable box in column %d of %r" % (i, sorted(d.boxes)))
    seen = {pd.Diagram(datum, d.boxes - {(cand[0], i)})}
    frontier = list(seen)
    while frontier:
        new = []
        for cur in frontier:
            for (p, q) in sorted(b for b in cur.boxes if b[1] == i):
                moved = ladder_move_a(cur, p, q)
                if moved is not None and moved not in seen:
                    seen.add(moved)
                    new.append(moved)
        frontier = new
    return frozenset(seen)


def fold_mset(datum, w):
    """M(w) folded from the full board over every letter of the lex-min
    extraction of w, one whole chain per element."""
    word = standard_word(datum)
    kprime = pd.arrangement_kd_prime(pd.bottom_diagram(datum, w))
    current = frozenset([pd.full_diagram(datum)])
    for k in kprime:
        i = word[k - 1]
        nxt = set()
        for d in current:
            nxt |= pd.m_op(datum, i, d)
        current = frozenset(nxt)
    return current


# ---------------------------------------------------------------------------
# the oracle's polynomials keyed by exponent tuples, and divided-difference
# chains along whole reduced words


def pack(datum, poly):
    """{exponent tuple: c} keyed as the oracle keys it, exponent j in field j
    of `oracles._fields`.  Raises ValueError for a tuple of another length
    than the coordinates or an exponent outside 0..N."""
    fields, top = orc._fields(datum), datum.num_positive_roots
    for mono in poly:
        if len(mono) != len(fields) or not all(0 <= e <= top for e in mono):
            raise ValueError("monomial %r is not %d exponents in 0..%d" % (mono, len(fields), top))
    return {pack_bits(mono, fields.step): c for mono, c in poly.items()}


def unpack(datum, poly):
    """{key: c} keyed by exponent tuples, the inverse of `pack`."""
    fields = orc._fields(datum)
    return {unpack_bits(key, fields.step, len(fields)): c for key, c in poly.items()}


def poly_mul(f, g):
    """f * g for polynomials {exponent tuple: c}."""
    out = {}
    for m1, c1 in f.items():
        for m2, c2 in g.items():
            m = tuple(a + b for a, b in zip(m1, m2))
            out[m] = out.get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def divided_difference(datum, i, f):
    """(f - s_i f) / alpha_i on {exponent tuple: c}, one monomial at a time."""
    if datum.family == "C" and i == 1:
        # (x^p - (-x)^p) / 2x is x^(p-1) for odd p and 0 for even p
        return {(m[0] - 1,) + m[1:]: c for m, c in f.items() if m[0] % 2}
    a, b = (i - 1, i) if datum.family == "A" else (i - 1, i - 2)
    out = {}
    for mono, c in f.items():
        p, q = mono[a], mono[b]
        if p == q:
            continue
        # (x_a^p x_b^q - x_a^q x_b^p) / (x_a - x_b)
        #   = sign * sum of x_a^e x_b^(p+q-1-e) over min(p,q) <= e < max(p,q)
        if p < q:
            c = -c
            lo, hi = p, q
        else:
            lo, hi = q, p
        term = list(mono)
        for e in range(lo, hi):
            term[a] = e
            term[b] = p + q - 1 - e
            key = tuple(term)
            out[key] = out.get(key, 0) + c
    return {m: c for m, c in out.items() if c}


def top_class_polynomial(datum):
    """The product of the positive roots in orthogonal coordinates."""
    size = datum.num_coordinates
    f = {(0,) * size: 1}
    for alpha in positive_roots(datum):
        vec = orc.orthogonal_root(datum, alpha)
        f = poly_mul(f, {tuple(int(t == j) for t in range(size)): c for j, c in enumerate(vec) if c})
    return f


def apply_divided_differences(datum, word, f):
    """d_{j_1} ... d_{j_m} f for word (j_1, ..., j_m), last letter first."""
    for i in reversed(word):
        f = divided_difference(datum, i, f)
        if not f:
            return {}
    return f


def chain_representative(datum, w):
    """|W| times the Schubert polynomial of w, keyed by exponent tuples: the
    whole chain along reduced_word(w^{-1} w_0) applied to the top class."""
    word = reduced_word(multiply(inverse(w), longest_element(datum)))
    f = apply_divided_differences(datum, word, top_class_polynomial(datum))
    return tuple(sorted(f.items()))


def chain_structure_constants(datum, u, v):
    """The expansion of the product of the classes of u and v: one whole
    chain along reduced_word(t) per target t of degree l(u) + l(v)."""
    deg = length(u) + length(v)
    if deg > datum.num_positive_roots:
        return ()
    product = poly_mul(dict(chain_representative(datum, u)), dict(chain_representative(datum, v)))
    zero = (0,) * datum.num_coordinates
    scale = orc.group_order(datum) ** 2
    out = []
    for t in all_elements(datum):
        if length(t) == deg:
            val, rem = divmod(apply_divided_differences(datum, reduced_word(t), product).get(zero, 0), scale)
            if rem:
                raise InvariantError("structure constant is not an integer")
            if val:
                out.append((t, val))
    return tuple(out)


# ---------------------------------------------------------------------------
# the deformed-polytope ring over row multisets


def relation(ctx):
    """Per row i of the context's polytope, the (row j, coefficient) pairs of
    x_i^2 = x_i * sum_j c_j x_j: the relation of the coordinate of i's step,
    solved for x_i, over the rows j of later steps whose support holds it."""
    coeffs = [vec for vec, _ in ctx.polytope.ineqs]
    out = []
    for i, a in enumerate(coeffs):
        var = ctx.polytope.sweep_order[ctx.step[i]]
        out.append(tuple(
            (j, -a[var] * b[var])
            for j, b in enumerate(coeffs)
            if ctx.step[j] > ctx.step[i] and b[var]
        ))
    return tuple(out)


def row_degree(ctx, rel, rows, memo):
    """Degree of the monomial of `rows`, a sorted multiset of N rows: 0 when
    two distinct rows share a step, 1 when the N rows lie on N steps, and
    otherwise one copy of a repeated row rewritten by its relation."""
    got = memo.get(rows)
    if got is None:
        distinct = set(rows)
        if len({ctx.step[k] for k in distinct}) < len(distinct):
            got = 0
        elif len(distinct) == len(rows):
            got = 1
        else:
            at = next(i for i in range(1, len(rows)) if rows[i] == rows[i - 1])
            rest = rows[:at] + rows[at + 1 :]
            got = sum(c * row_degree(ctx, rel, tuple(sorted(rest + (j,))), memo) for j, c in rel[rows[at]])
        memo[rows] = got
    return got


def _monomial(offset, *tights):
    """The product of the faces' classes as its sorted row multiset: each
    tight set 1-based into the facet block whose first row is `offset`."""
    return tuple(sorted(offset + k - 1 for tight in tights for k in tight))


def _pairing(ctx, rel, product, kogan, memo):
    """deg(product * the Kogan face sum `kogan`), by row-multiset rewriting."""
    duals = [_monomial(ctx.big_n, tight) for tight in kogan]
    return sum(
        n * row_degree(ctx, rel, tuple(sorted(m + d)), memo) for m, n in product.items() for d in duals
    )


def degree_pairing(datum, u, v, ctx):
    """deg(F_u * Fv_v) by row-multiset rewriting."""
    product = Counter(_monomial(0, tight) for tight in fc.schubert_class(datum, u, "dual-kogan"))
    kogan = fc.schubert_class(datum, multiply(longest_element(datum), v), "kogan")
    return _pairing(ctx, relation(ctx), product, kogan, {})


def all_pairs_duality_report(family, rank):
    """The duality suite's report by filtering all |W|^2 pairs for
    complementary lengths, the route `verify.duality_suite` replaced."""
    datum = RootDatum(family, rank)
    w0 = longest_element(datum)

    def cells():
        for u, v in itertools.product(all_elements(datum), repeat=2):
            if length(u) + length(v) != datum.num_positive_roots:
                continue
            cell = {"theorem": "duality", "type": family, "rank": rank,
                    "u": list(reduced_word(u)), "v": list(reduced_word(v))}
            expected = 1 if v == multiply(w0, u) else 0
            got = cell["pairing"] = fc.degree_pairing(datum, u, v)
            yield verify._verdict(cell, [] if got == expected else [{"expected": expected, "got": got}])

    return verify._collect({"theorem": "duality", "type": family, "rank": rank}, cells(), 0.0, None)


def product_expansion(datum, v, w, ctx):
    """{t: deg(F_v * F_w * Fv_{w0 t})} over the nonzero coefficients, by
    row-multiset rewriting; {} above the top degree."""
    degree = length(v) + length(w)
    if degree > datum.num_positive_roots:
        return {}
    rel = relation(ctx)
    product = Counter(
        _monomial(0, fa, fb)
        for fa in fc.schubert_class(datum, v, "dual-kogan")
        for fb in fc.schubert_class(datum, w, "dual-kogan")
    )
    memo = {}
    expansion = {}
    for t in all_elements(datum):
        if length(t) == degree:
            c = _pairing(ctx, rel, product, fc.schubert_class(datum, t, "kogan"), memo)
            if c:
                expansion[t] = c
    return expansion


def times(ctx, mask, t, memo):
    """Normal form of f^mask * f_t: square-free as it stands, else rewritten
    by f_t^2 = f_t * L_t onto later steps.  `memo`, keyed by (mask, t), is
    the caller's."""
    got = memo.get((mask, t))
    if got is None:
        if not mask >> t & 1:
            got = {mask | 1 << t: 1}
        else:
            got = Counter()
            for s, c in ctx.square[t]:
                for m, n in times(ctx, mask, s, memo).items():
                    got[m] += c * n
        memo[mask, t] = got
    return got


def product_form(ctx, form, other):
    """form * other, both normal forms, pair by pair: f^a * f^b is f^(a|b)
    times the steps of a & b, one shared step at a time, top step first."""
    memo = {}
    out = Counter()

    def add(mask, shared, n):
        if not shared:
            out[mask] += n
            return
        t = shared.bit_length() - 1
        for m, c in times(ctx, mask, t, memo).items():
            add(m, shared ^ 1 << t, n * c)

    for a, m in form.items():
        for b, n in other.items():
            add(a | b, a & b, m * n)
    return out


def divisor_times(ctx, form, divisor):
    """form * D for D a normal form {1 << t: h}, one mask of form at a time,
    each with its own memo."""
    power = Counter()
    for mask, n in form.items():
        memo = {}
        for step, h in divisor.items():
            for m, c in times(ctx, mask, step.bit_length() - 1, memo).items():
                power[m] += n * h * c
    return power
