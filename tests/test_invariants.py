"""Load-bearing invariants raise `InvariantError`, which `python -O` keeps,
and no library module falls back on strippable `assert` statements."""

import ast
import os
import pathlib
import re
import subprocess
import sys

import schubcalc

PACKAGE = pathlib.Path(schubcalc.__file__).parent

NON_NORMAL_STATE = """
from schubcalc.cartan import InvariantError, RootDatum, standard_word
from schubcalc.crystals import string_coords

A2 = RootDatum("A", 2)
try:
    print(string_coords(A2, standard_word(A2), (1, 0), (5, 5, 5)))
except InvariantError as err:
    print("InvariantError:", err)
"""

# the suffix table meets a state planted in the operator table: an index
# that no operator reaches, whose eps are those of a state outside the crystal
NON_NORMAL_TABLE_ENTRY = """
from array import array

from schubcalc import crystals
from schubcalc.cartan import InvariantError, RootDatum, standard_word

A2 = RootDatum("A", 2)
word, lam, state = standard_word(A2), (1, 0), (5, 5, 5)
table = crystals._operator_table(A2, word, lam)
planted = table._replace(
    down=tuple(row + (-1,) for row in table.down),
    up=tuple(row + (-1,) for row in table.up),
    eps=tuple(row + array("B", [crystals.epsilon(A2, word, lam, state, i)]) for i, row in enumerate(table.eps, 1)),
)
crystals._operator_table = lambda datum, word, lam: planted
try:
    print(sorted(crystals.generate_b_lambda(A2, word, lam)))
except InvariantError as err:
    print("InvariantError:", err)
"""

# the string table goes wrong at A2 (1, 0), whose strings are (0, 0, 0),
# (1, 0, 0) and (0, 1, 1): its last string moved outside the string
# polytope, past the bound a_3 <= 1, or dropped
PLANTED_STRINGS = """
from schubcalc import crystals
from schubcalc.cartan import InvariantError, RootDatum, standard_word

A2 = RootDatum("A", 2)
word = standard_word(A2)
strings = tuple(crystals._string_table(crystals._operator_table(A2, word, (1, 0)), word))
# packed as the record packs them, coordinate p in byte p
planted = crystals._Strings(tuple(int.from_bytes(bytes(s), "little") for s in %s), 3, 1)
crystals._string_table = lambda table, word: planted
try:
    print(sorted(crystals.generate_b_lambda(A2, word, (1, 0))))
except InvariantError as err:
    print(type(err).__name__ + ":", err)
"""

# on the word (2, 1, 2) the strings of A2 at (1, 0) are (0, 0, 0), (0, 1, 0)
# and (1, 1, 0), and the lambda rows alone bound them: the last string moved
# past the row a_2 - a_3 <= 1, or dropped, which leaves no string on all
# three rows (the first is off a_2 - a_3 <= 1, the second off
# a_1 - a_2 + 2 a_3 <= 0)
PLANTED_OTHER_WORD_STRINGS = """
from schubcalc import crystals
from schubcalc.cartan import InvariantError, RootDatum

A2 = RootDatum("A", 2)
word = (2, 1, 2)
strings = tuple(crystals._string_table(crystals._operator_table(A2, word, (1, 0)), word))
# packed as the record packs them, coordinate p in byte p
planted = crystals._Strings(tuple(int.from_bytes(bytes(s), "little") for s in %s), 3, 1)
crystals._string_table = lambda table, word: planted
try:
    print(sorted(crystals.generate_b_lambda(A2, word, (1, 0))))
except InvariantError as err:
    print(type(err).__name__ + ":", err)
"""

# the carried statistics go wrong: lowering at word position 1 moves
# <wt, h_1> one too far (field 2), or leaves <wt, h_2> unchanged (field 4),
# in the table build of A2 at (1, 1), whose fields on the word (1, 2, 1) are
# the letter-1 sigmas, <wt, h_1>, the letter-2 sigma and <wt, h_2>
PLANTED_STATISTIC = """
from schubcalc import crystals
from schubcalc.cartan import InvariantError, RootDatum, standard_word

A2 = RootDatum("A", 2)
word = standard_word(A2)
true = crystals._statistics_layout


def planted(datum, word, bits):
    letters, moves = true(datum, word, bits)
    return letters, (moves[0] - (1 << bits * %d),) + moves[1:]


crystals._statistics_layout = planted
try:
    print(len(crystals._operator_table(A2, word, (1, 1)).down[0]))
except InvariantError as err:
    print(type(err).__name__ + ":", err)
"""

# A2 at (1, 1) has depth <rho, 2 rho^vee> = 4, the coordinate sum of its
# lowest state (1, 2, 1): the table build is given a depth one off, which
# keeps every coordinate in its field, or builds its table with the lowest
# index moved one state up the breadth-first order, whose sum is 3
PLANTED_DEPTH = """
from schubcalc import crystals
from schubcalc.cartan import InvariantError, RootDatum, standard_word

A2 = RootDatum("A", 2)
true, Table = crystals._depth, crystals._OperatorTable
crystals._depth = lambda datum, lam: true(datum, lam) + %d
crystals._OperatorTable = lambda *fields: Table(*fields[:-1], fields[-1] - %d)
try:
    print(len(crystals._operator_table(A2, standard_word(A2), (1, 1)).down[0]))
except InvariantError as err:
    print("InvariantError:", err)
"""

# every packed field at a planted size of one byte: A2 at (126, 0) asks for
# 16-bit statistic fields, its bound being 2 * 252 + 126, but every statistic
# of its crystal fits 8 bits, so the table is the true one, of 8,128 states;
# at (130, 0) a statistic passes 127 and wraps, which a lowering decision
# refuses.  The eps fields hold every eps of both, none past 130
PLANTED_WIDTH = """
from schubcalc import crystals
from schubcalc.cartan import InvariantError, RootDatum, standard_word

A2 = RootDatum("A", 2)
crystals.polytopes.field_size = lambda bits: 1
try:
    print(len(crystals._operator_table(A2, standard_word(A2), %s).down[0]))
except InvariantError as err:
    print(type(err).__name__ + ":", err)
"""

# lowering at the one position of A1 moves its sigma by 2 and <wt, h_1> by
# -3: every phi, so every lowering decision, stays the true one, and only
# the width witness sees that the lowest state's statistics are not those of
# its coordinates
PLANTED_MOVE = """
from schubcalc import crystals
from schubcalc.cartan import InvariantError, RootDatum, standard_word

A1 = RootDatum("A", 1)
true = crystals._statistics_layout


def planted(datum, word, bits):
    letters, (move,) = true(datum, word, bits)
    return letters, (move + 1 - (1 << bits),)


crystals._statistics_layout = planted
try:
    print(len(crystals._operator_table(A1, standard_word(A1), (3,)).down[0]))
except InvariantError as err:
    print("InvariantError:", err)
"""

# a tower with two rows of one facet family on one step: the deformed
# context must refuse it rather than build a ring on it
REPEATED_STEP = """
from schubcalc import faces, polytopes
from schubcalc.cartan import InvariantError, RootDatum

tower = polytopes.interval_tower


def planted(p):
    step, verts = tower(p)
    return %s, verts


polytopes.interval_tower = planted
try:
    print(faces.DeformedContext(RootDatum("C", 2)).square)
except InvariantError as err:
    print("InvariantError:", err)
"""

# the top class of C2 planted with the wrong sign: its d_{w_0}, the identity
# representative, is -1, and the structure constants must refuse to run
# rather than give every coefficient negated
WRONG_SIGNED_TOP_CLASS = """
from schubcalc import oracles
from schubcalc.cartan import InvariantError, RootDatum, simple_element

C2 = RootDatum("C", 2)
true = oracles.top_class_polynomial
oracles.top_class_polynomial = lambda datum: tuple((m, -c) for m, c in true(datum))
try:
    print(oracles.bgg_structure_constants(C2, simple_element(C2, 1), simple_element(C2, 2)))
except InvariantError as err:
    print("InvariantError:", err)
"""

# the coroot h_1 + h_2 of A2 planted as h_1 + 2 h_2: at (1, 0) the Weyl
# product is (1 * 2 * 4) / (1 * 1 * 3), which the dimension must refuse
# rather than round
PLANTED_COROOT = """
from schubcalc import oracles
from schubcalc.cartan import InvariantError, RootDatum

oracles.positive_coroots = lambda datum: ((0, 1), (1, 0), (1, 2))
try:
    print(oracles.weyl_dimension(RootDatum("A", 2), (1, 0)))
except InvariantError as err:
    print("InvariantError:", err)
"""

# the extractions of s_1 of A2 from the word (1, 2, 1) are (1,) and (3,);
# planted to (3,) alone, the lex-min extraction (1, 2) of s_1 s_2 no longer
# extends that of s_1, and M(s_1 s_2) must refuse to fold on from M(s_1)
PREFIX_MISMATCH = """
from schubcalc import pipedreams
from schubcalc.cartan import InvariantError, RootDatum, word_to_element

A2 = RootDatum("A", 2)
s1 = word_to_element(A2, (1,))
true = pipedreams.compatible_subsets
pipedreams.compatible_subsets = lambda datum, word, w: ((3,),) if w == s1 else true(datum, word, w)
try:
    print(sorted(sorted(d.boxes) for d in pipedreams.mset(A2, word_to_element(A2, (1, 2)))))
except InvariantError as err:
    print("InvariantError:", err)
"""

# no tower certificate: the deformed context must refuse to build
NON_TOWER = """
from schubcalc import faces, polytopes
from schubcalc.cartan import InvariantError, RootDatum

polytopes.interval_tower = lambda p: None
try:
    print(faces.DeformedContext(RootDatum("C", 2)).square)
except InvariantError as err:
    print("InvariantError:", err)
"""

# the inversion count gives s_1 of A2 length 2: the group table must refuse
# the edge from the identity rather than index elements by it
WRONG_LENGTH = """
from schubcalc import cartan
from schubcalc.cartan import InvariantError, RootDatum, simple_element

A2 = RootDatum("A", 2)
s1 = simple_element(A2, 1)
true = cartan._inversions
cartan._inversions = lambda w: true(w) + (w == s1)
try:
    print(cartan.all_elements(A2))
except InvariantError as err:
    print("InvariantError:", err)
"""


# the one-line inverse planted on the group table's build: s_1 inverting to
# the identity breaks the involution, and the identity and s_1 trading
# inverses keeps it but moves the length, which l(w^{-1}) = l(w) refuses
PLANTED_INVERSE = """
from schubcalc import cartan
from schubcalc.cartan import InvariantError, RootDatum

A2 = RootDatum("A", 2)
e, s1 = (1, 2, 3), (2, 1, 3)
planted = %s
true = cartan._invert
cartan._invert = lambda line: planted.get(line) or true(line)
try:
    print(len(cartan.all_elements(A2)))
except InvariantError as err:
    print("InvariantError:", err)
"""


# x_1^4 * x_1^4 in C2, whose fields are 3 bits since N = 4: the product has
# degree 8 > N, and x_1^8 would carry into x_2, so it must be refused; x_1^4
# is key 4, exponent 4 in the lowest field
FIELD_OVERFLOW = """
from schubcalc import oracles
from schubcalc.cartan import InvariantError, RootDatum

C2 = RootDatum("C", 2)
f = {4: 1}
try:
    print(oracles.poly_mul(C2, oracles._fields(C2), f, f))
except InvariantError as err:
    print("InvariantError:", err)
"""


# one GT/SGT row coefficient changed at A2: no map sends the string rows
# onto the model rows
PLANTED_MODEL_ROW = """
from schubcalc import polytopes
from schubcalc.cartan import RootDatum

true = polytopes._interlacing_specs


def planted(datum):
    f_rows, fv_rows, order = true(datum)
    vec, lam_vec, shift = f_rows[1]
    return f_rows[:1] + ((vec[:1] + (vec[1] + 1,) + vec[2:], lam_vec, shift),) + f_rows[2:], fv_rows, order


polytopes._interlacing_specs = planted
try:
    print(polytopes.model_map(RootDatum("A", 2)))
except polytopes.ModelMapError as err:
    print("ModelMapError:", err)
"""


# the block word of A2 planted: (1, 2, 2) walks to s_1 s_2 s_2 = s_1, and
# (1, 2) stops short of w_0, so the standard word must refuse to certify
PLANTED_STANDARD_WORD = """
from schubcalc import cartan
from schubcalc.cartan import InvariantError, RootDatum

cartan._block_word = lambda datum: %s
try:
    print(cartan.standard_word(RootDatum("A", 2)))
except InvariantError as err:
    print("InvariantError:", err)
"""


def _run_optimized(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_invariant_survives_optimize_flag():
    out = _run_optimized(NON_NORMAL_STATE)
    assert out.startswith("InvariantError: non-normal state"), out


def test_table_invariant_survives_optimize_flag():
    out = _run_optimized(NON_NORMAL_TABLE_ENTRY)
    assert out.startswith("InvariantError: non-normal state"), out


def test_string_outside_the_polytope_survives_optimize_flag():
    out = _run_optimized(PLANTED_STRINGS % "strings[:2] + ((0, 1, 2),)")
    expected = "CrystalPolytopeMismatchError: string (0, 1, 2) lies outside the string polytope"
    assert out.startswith(expected), out


def test_dropped_string_survives_optimize_flag():
    out = _run_optimized(PLANTED_STRINGS % "strings[:2]")
    expected = "CrystalPolytopeMismatchError: crystal generation has 2 points, string polytope 3"
    assert out.startswith(expected), out


def test_corrupt_statistic_survives_optimize_flag():
    out = _run_optimized(PLANTED_STATISTIC % 2)
    assert out.startswith("CorruptElementError: negative phi"), out


def test_lowest_uniqueness_survives_optimize_flag():
    out = _run_optimized(PLANTED_STATISTIC % 4)
    assert out.startswith("InvariantError: lowest element not unique"), out


def test_depth_witness_survives_optimize_flag():
    assert _run_optimized(PLANTED_DEPTH % (0, 0)).startswith("8\n")
    for bump, expected in ((1, 5), (-1, 3), (0, 4)):
        out = _run_optimized(PLANTED_DEPTH % (bump, int(bump == 0)))
        assert out.startswith(
            "InvariantError: the lowest state's coordinates do not sum to the depth %d" % expected
        ), out


def test_width_witness_survives_optimize_flag():
    assert _run_optimized(PLANTED_WIDTH % "(126, 0)") == "8128\n"
    out = _run_optimized(PLANTED_WIDTH % "(130, 0)")
    assert out.startswith("CorruptElementError: negative phi"), out
    out = _run_optimized(PLANTED_MOVE)
    assert out.startswith(
        "InvariantError: the lowest state's statistics in 8-bit fields do not match its coordinates"
    ), out


def test_context_invariant_survives_optimize_flag():
    # the F rows of the first two steps on one step
    out = _run_optimized(REPEATED_STEP % "(step[1],) + step[1:]")
    assert out.startswith("InvariantError: a tower step does not hold one row of each"), out


def test_context_refuses_two_fv_rows_on_one_step_under_optimize_flag():
    # the F steps stay a permutation; the Fv rows of the first two steps of
    # C2 (rows 4 and 5) on one step
    out = _run_optimized(REPEATED_STEP % "step[:4] + (step[5],) + step[5:]")
    assert out.startswith("InvariantError: a tower step does not hold one row of each"), out


def test_string_outside_the_rows_of_another_word_survives_optimize_flag():
    out = _run_optimized(PLANTED_OTHER_WORD_STRINGS % "strings[:2] + ((1, 2, 0),)")
    expected = "CrystalPolytopeMismatchError: string (1, 2, 0) lies outside the string polytope"
    assert out.startswith(expected), out


def test_facet_block_without_a_common_string_survives_optimize_flag():
    out = _run_optimized(PLANTED_OTHER_WORD_STRINGS % "strings[:2]")
    assert out.startswith("EmptyFaceError: the rows of facet block 1 share no point"), out


def test_model_map_refusal_survives_optimize_flag():
    out = _run_optimized(PLANTED_MODEL_ROW)
    assert out.startswith("ModelMapError: the map onto the model rows has no solution"), out


def test_normalization_gate_survives_optimize_flag():
    out = _run_optimized(WRONG_SIGNED_TOP_CLASS)
    assert out.startswith("InvariantError: top-class normalization failed; convention error"), out
    # the true sign: s_1 s_2 + s_2 s_1
    assert _run_optimized(WRONG_SIGNED_TOP_CLASS.replace("-c)", "c)")) == "((WC2[-2, 1], 1), (WC2[2, -1], 1))\n"


def test_non_integral_weyl_dimension_survives_optimize_flag():
    out = _run_optimized(PLANTED_COROOT)
    assert out.startswith("InvariantError: Weyl dimension is not an integer"), out
    assert _run_optimized(PLANTED_COROOT.replace("(1, 2))", "(1, 1))")) == "3\n"


def test_prefix_mismatch_survives_optimize_flag():
    out = _run_optimized(PREFIX_MISMATCH)
    expected = "InvariantError: the lex-min extraction of WA2[2, 3, 1] does not extend that of WA2[2, 1, 3]"
    assert out.startswith(expected), out


def test_standard_word_certificate_survives_optimize_flag():
    assert _run_optimized(PLANTED_STANDARD_WORD % "(1, 2, 1)") == "(1, 2, 1)\n"
    for planted in ("(1, 2, 2)", "(1, 2)"):
        out = _run_optimized(PLANTED_STANDARD_WORD % planted)
        expected = "InvariantError: the standard word %s does not walk to w_0 in 3 steps" % planted
        assert out.startswith(expected), out


def test_tower_certificate_survives_optimize_flag():
    out = _run_optimized(NON_TOWER)
    assert out.startswith("InvariantError: the deformed polytope is not a tower of intervals"), out


def test_weyl_table_invariant_survives_optimize_flag():
    out = _run_optimized(WRONG_LENGTH)
    expected = "InvariantError: the left product of WA2[1, 2, 3] by s_1 changes the length by 2"
    assert out.startswith(expected), out


def test_inverse_witness_survives_optimize_flag():
    assert _run_optimized(PLANTED_INVERSE % "{}") == "6\n"
    out = _run_optimized(PLANTED_INVERSE % "{s1: e}")
    expected = "InvariantError: the inverse of WA2[2, 1, 3] is WA2[1, 2, 3], whose inverse is WA2[1, 2, 3]"
    assert out.startswith(expected), out
    out = _run_optimized(PLANTED_INVERSE % "{e: s1, s1: e}")
    expected = (
        "InvariantError: the inverse of WA2[1, 2, 3] is WA2[2, 1, 3], whose inverse is WA2[1, 2, 3] "
        "and length 1, not 0"
    )
    assert out.startswith(expected), out


def test_field_width_witness_survives_optimize_flag():
    out = _run_optimized(FIELD_OVERFLOW)
    assert out.startswith("InvariantError: degrees 4 + 4 overflow the exponent fields"), out


def test_library_has_no_assert_statements():
    found = [
        "%s:%d" % (path.relative_to(PACKAGE), node.lineno)
        for path in sorted(PACKAGE.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, found


# the packed-field codec of `polytopes`: its typecode table, width rule,
# byte swap and little-endian layout
CODEC = {"_TYPECODES", "field_size", "field_array", "_little", "unpack_fields", "strided_columns"}
WIDTH_TUPLES = {(1, 2, 4, 8), (8, 16, 32, 64), (16, 32, 64)}


def _layout_words(node):
    """What `node` names of a packed-field layout, if anything: the host's
    byte order, a byte swap, an array or a string of array typecodes, the
    little-endian layout, or a tuple of field widths."""
    if isinstance(node, ast.Attribute) and node.attr in ("byteorder", "byteswap", "typecode"):
        return node.attr
    if isinstance(node, (ast.Import, ast.ImportFrom)) and "array" in (
        [node.module] if isinstance(node, ast.ImportFrom) else [alias.name for alias in node.names]
    ):
        return "import array"
    if isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) == "array":
        return "array"
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        if node.value == "little":
            return "little"
        if len(node.value) > 1 and set(node.value) <= set("bBhHiIlLqQ"):
            return "typecodes"
    if isinstance(node, ast.Tuple) and all(isinstance(e, ast.Constant) for e in node.elts):
        if tuple(e.value for e in node.elts) in WIDTH_TUPLES:
            return "width tuple"
    return None


def test_the_field_codec_owns_byte_order_widths_and_typecodes():
    # sys.byteorder, byteswap, the array typecodes and the field widths occur
    # in the library only inside the codec, the byte order, the typecode
    # table and the width rule each once
    inside, outside = [], []
    for path in sorted(PACKAGE.rglob("*.py")):
        for top in ast.parse(path.read_text(), str(path)).body:
            names = [getattr(top, "name", None)] + [t.id for t in getattr(top, "targets", ()) if isinstance(t, ast.Name)]
            owned = path.stem == "polytopes" and (set(names) & CODEC or isinstance(top, (ast.Import, ast.ImportFrom)))
            for node in ast.walk(top):
                word = _layout_words(node)
                if word:
                    (inside if owned else outside).append((word, "%s:%d" % (path.name, node.lineno)))
    assert not outside, outside
    words = [word for word, _ in inside]
    assert words.count("byteorder") == words.count("byteswap") == 1, inside
    assert words.count("typecodes") == words.count("width tuple") == 1, inside


def test_library_holds_15_lru_caches():
    # every cache is one more thing to clear, size and keep in step: a new
    # one moves this count on purpose
    count = sum(
        line.lstrip().startswith("@lru_cache")
        for path in sorted(PACKAGE.glob("*.py"))
        for line in path.read_text().splitlines()
    )
    assert count == 15


def test_oracles_import_no_validated_module():
    # the oracles cross-check the polytope, crystal and pipe-dream code, so
    # they must not be built from it
    forbidden = {"faces", "polytopes", "pipedreams", "crystals"}
    imported = set()
    for node in ast.walk(ast.parse((PACKAGE / "oracles.py").read_text())):
        if isinstance(node, ast.Import):
            imported |= {alias.name.split(".")[-1] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            if node.module:
                imported.add(node.module.split(".")[-1])
            if node.module in (None, "schubcalc"):
                imported |= {alias.name for alias in node.names}
    assert "cartan" in imported
    assert not imported & forbidden, imported & forbidden


def test_faces_reads_only_the_cross_check_from_oracles():
    # the product route checks itself against the oracle, so it must take
    # nothing else from it
    taken = set()
    for node in ast.walk(ast.parse((PACKAGE / "faces.py").read_text())):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "oracles":
            taken.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "oracles":
            taken |= {alias.name for alias in node.names}
    assert taken == {"bgg_structure_constants"}, taken


# What the library keeps only because the benchmark names it: the entry
# points that `perfbench/spans.py` wraps and what only they reach.  The
# trim waits on ROADMAP item 1 (the benchmark names these symbols) and is
# the open half of item 11; a name leaves this set when it leaves `src/`.
# `incidence`, `facet_defining` and `_normalized_halfspace` are reached only
# through `is_simple`.
HELD_FOR_THE_BENCHMARK = {
    "crystals.crystal_states", "crystals.string_coords",
    "polytopes.lattice_points", "polytopes.vertices", "polytopes.is_simple", "polytopes.incidence",
    "polytopes.facet_defining", "polytopes.affine_rank", "polytopes._normalized_halfspace",
}


def _library_imports(tree):
    """{local name: (module, name) for a schubcalc name, or module for a
    schubcalc module} over every import of the tree, relative or absolute."""
    bound = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level:
            module = node.module
        elif (node.module or "").split(".")[0] == "schubcalc":
            module = node.module.partition(".")[2] or None
        else:
            continue
        for alias in node.names:
            bound[alias.asname or alias.name] = (module, alias.name) if module else alias.name
    return bound


def _references(tree, module, defined, bound):
    """The (module, name) pairs that the tree names: a name of its own
    module, a name imported from a library module, or an attribute of an
    imported library module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            if (module, node.id) in defined:
                yield module, node.id
            elif isinstance(bound.get(node.id), tuple):
                yield bound[node.id]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if isinstance(bound.get(node.value.id), str):
                yield bound[node.value.id], node.attr


def _library_graph():
    """{(module, name): its top-level statement} over src/schubcalc, dunder
    metadata aside, and {module: its imports}."""
    defined, imports = {}, {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        imports[path.stem] = _library_imports(tree)
        for top in tree.body:
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                defined[path.stem, top.name] = top
            elif isinstance(top, ast.Assign):
                for target in top.targets:
                    if not target.id.startswith("__"):
                        defined[path.stem, target.id] = top
    return defined, imports


def _reached(roots, defined, imports):
    """Every library name that the roots reach through the references of
    each reached name's statement; a name imported into a module is read
    where it is defined, and a reached class reaches its methods."""
    seen, todo = set(), list(roots)
    while todo:
        key = todo.pop()
        module, name = key
        if key not in defined and isinstance(imports.get(module, {}).get(name), tuple):
            key = imports[module][name]
        if key in seen or key not in defined:
            continue
        seen.add(key)
        todo.extend(_references(defined[key], key[0], defined, imports[key[0]]))
    return seen


def _benchmark_names(path):
    """The `lib.<module>.<name>` attributes of a benchmark file, read as text."""
    return {
        (node.value.attr, node.attr)
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Attribute)
        and isinstance(node.value.value, ast.Name)
        and node.value.value.id == "lib"
    }


def test_every_library_name_is_reached_by_what_the_system_runs():
    # the CLI, `python -m schubcalc`, the scripts and the benchmark
    # workloads; a name that only tests call belongs in the test references
    root = PACKAGE.parent.parent
    defined, imports = _library_graph()
    roots = {("cli", "main")}
    for path in [PACKAGE / "__main__.py", *sorted((root / "scripts").glob("*.py"))]:
        tree = ast.parse(path.read_text(), str(path))
        roots |= set(_references(tree, None, defined, _library_imports(tree)))
    for name in ("run.py", "workloads.py"):
        roots |= _benchmark_names(root / "perfbench" / name)
    reached = _reached(roots, defined, imports)
    assert {"%s.%s" % key for key in set(defined) - reached} == HELD_FOR_THE_BENCHMARK
    # and each held name is one that the benchmark's span tracer wraps, or
    # one that only those reach
    wrapped = {
        tuple(text.split("."))
        for text in re.findall(r'"(\w+\.\w+)"', (root / "perfbench" / "spans.py").read_text())
    }
    held = _reached(wrapped & set(defined), defined, imports) - reached
    assert {"%s.%s" % key for key in held} == HELD_FOR_THE_BENCHMARK


def test_library_imports_only_the_standard_library_and_itself():
    # the test references under tests/ are no library dependency, and the
    # library has no third-party one
    outside = {
        "%s:%d" % (path.name, node.lineno)
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, (ast.Import, ast.ImportFrom)) and not getattr(node, "level", 0)
        for name in ([node.module] if isinstance(node, ast.ImportFrom) else [a.name for a in node.names])
        if name.split(".")[0] not in sys.stdlib_module_names | {"schubcalc"}
    }
    assert not outside, outside
