"""Slow reference routes that the library's table-driven code is tested
against: the crystal read off `f_op`/`e_op` state by state, the Demazure
folds along whole reduced words, and the extraction sets by one search per
Weyl element."""

from schubcalc import crystals as cr
from schubcalc.cartan import (
    all_reduced_words,
    bruhat_leq,
    check_word_of_longest,
    identity_element,
    inverse,
    length,
    longest_element,
    multiply,
    reduced_word,
    simple_element,
    standard_word,
)


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


def lowest(datum, word, lam):
    """The state that every `f_op` kills."""
    (low,) = [
        s
        for s in bfs_states(datum, word, lam)
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
