#!/usr/bin/env python3
"""Plant one-line faults in a copy of the library, one at a time, and check
that the test named for each fault fails (mutation analysis; DeMillo, Lipton
and Sayward, "Hints on test data selection", IEEE Computer 1978).

Each row of PLANTS is (module, anchor, planted, test).  The anchor is one
line of src/schubcalc/<module>.py, compared without its indentation, and it
occurs exactly once in src/; the planted line replaces it at the same
indentation; the test is a pytest node id under tests/, of a test or of
one parametrized case of it.  For each row the script copies src/ into a
temporary directory, plants the fault there and runs that one test against
the copy in a subprocess, one row after another.
The plant is killed when the test fails and survives when it passes; any
other pytest outcome (no such test, a collection error) is an error.

    python scripts/run_fault_plants.py

It prints one line per plant, then the killed, survived and error counts,
and exits 1 unless every plant is killed.  Each row costs one pytest start
and one test run (the 89 rows took about two minutes on a 2-core
host), so the script is not part of the test suite, which checks only that
every anchor occurs once.
"""

import os
import pathlib
import shutil
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

PLANTS = (
    # the guards of verify statements and cells, products, the string table and the tower
    (
        "faces",
        "if union != crystal:",
        "if union.bit_count() != crystal.bit_count():",
        "tests/test_faces.py::test_face_union_refuses_a_crystal_side_with_one_wrong_string",
    ),
    (
        "verify",
        "if family not in table[kind]:",
        "if False:",
        "tests/test_verify.py::test_suites_refuse_a_family_the_statement_is_not_stated_for",
    ),
    (
        "verify",
        "if budget is not None and not budget >= 0:",
        "if budget is not None and budget < 0:",
        "tests/test_verify.py::test_suites_refuse_a_nan_budget",
    ),
    # the CLI refuses bad input through the library's checks
    (
        "cli",
        "raise BadInput(str(err)) from err",
        "raise",
        "tests/test_cli.py::test_validation_exits_two",
    ),
    (
        "verify",
        "if model_count != len(dec.union):",
        "if model_count > len(dec.union):",
        "tests/test_verify.py::test_cell_flags_a_model_count_off_by_one",
    ),
    (
        "faces",
        "if expansion != oracle:",
        "if set(expansion) != set(oracle):",
        "tests/test_faces.py::test_product_refuses_an_oracle_coefficient_off_by_one",
    ),
    (
        "crystals",
        "if outside:",
        "if outside and certified:",
        "tests/test_invariants.py::test_string_outside_the_rows_of_another_word_survives_optimize_flag",
    ),
    (
        "faces",
        "if sorted(self.step[:big_n]) != steps or sorted(self.step[big_n:]) != steps:",
        "if sorted(self.step[:big_n]) != steps:",
        "tests/test_invariants.py::test_context_refuses_two_fv_rows_on_one_step_under_optimize_flag",
    ),
    (
        "oracles",
        "if schubert_representative(datum, all_elements(datum)[0]) != ((0, 1),):",
        "if False:",
        "tests/test_invariants.py::test_normalization_gate_survives_optimize_flag",
    ),
    # the signed staircase top class: one exponent, and the sign
    (
        "oracles",
        "exponents, sign = range(2 * n - 1, 0, -2), (-1) ** (n // 2)",
        "exponents, sign = range(2 * n - 1, 2, -2), (-1) ** (n // 2)",
        "tests/test_oracles.py::test_longest_divided_difference_of_the_staircase_is_one[C3]",
    ),
    (
        "oracles",
        "exponents, sign = range(2 * n - 1, 0, -2), (-1) ** (n // 2)",
        "exponents, sign = range(2 * n - 1, 0, -2), 1",
        "tests/test_oracles.py::test_normalization_gate",
    ),
    (
        "oracles",
        "if num % den:",
        "if False:",
        "tests/test_invariants.py::test_non_integral_weyl_dimension_survives_optimize_flag",
    ),
    (
        "cartan",
        "return _reflection_closure(tuple(zip(*cartan_matrix(datum))), datum.num_positive_roots)",
        "return _reflection_closure(cartan_matrix(datum), datum.num_positive_roots)",
        "tests/test_cartan.py::test_positive_coroots_of_c2",
    ),
    (
        "polytopes",
        "if not reduce(and_, masks[lo : lo + size]):",
        "if False:",
        "tests/test_invariants.py::test_facet_block_without_a_common_string_survives_optimize_flag",
    ),
    (
        "cartan",
        "if any(w.datum != datum for w in elements):",
        "if False:",
        "tests/test_oracles.py::test_structure_constants_refuse_an_element_of_another_group",
    ),
    # every Schubert number is one degree in the deformed ring
    (
        "faces",
        "complements = self._complements[w] = tuple(full ^ self.g_mask(tight) for tight in kogan)",
        "complements = self._complements[w] = tuple(self.g_mask(tight) for tight in kogan)",
        "tests/test_faces.py::test_degree_against_a_schubert_variety_is_poincare_duality",
    ),
    (
        "faces",
        "key, lower = (mask, rest | bit), weight - s + t",
        "key, lower = (mask, rest), weight - s + t",
        "tests/test_faces.py::test_product_table_against_oracle",
    ),
    (
        "faces",
        'low, high = (w, w0) if side == "opposite" else (e, w)',
        'high, low = (w, w0) if side == "opposite" else (e, w)',
        "tests/test_faces.py::test_side_volume_at_w0_is_the_leading_weyl_dimension_coefficient",
    ),
    # the GT/SGT side read off the string side's record once one map is
    # certified per root datum: one echelon carrying several right-hand
    # sides, a forward solve that is consistent, unique and integral, a
    # reverse solve that makes it unimodular, and a refusal read per cell
    (
        "linalg",
        "return INCONSISTENT if any(row[self.ncols :]) else DEPENDENT",
        "return INCONSISTENT if row[self.ncols] else DEPENDENT",
        "tests/test_linalg.py::test_a_row_is_inconsistent_on_its_last_right_hand_side",
    ),
    (
        "linalg",
        "s = row[n + rhs] * den - sum(map(mul, row, num))",
        "s = row[n] * den - sum(map(mul, row, num))",
        "tests/test_linalg.py::test_several_right_hand_sides_solve_as_one_system_each",
    ),
    (
        "polytopes",
        "if echelon.push(vec + rhs) == linalg.INCONSISTENT:",
        "if False:",
        "tests/test_polytopes.py::test_model_map_refuses_a_model_row_with_one_coefficient_changed",
    ),
    (
        "polytopes",
        "if echelon.rank < echelon.ncols:",
        "if False:",
        "tests/test_polytopes.py::test_model_map_refuses_a_map_that_is_not_unique",
    ),
    (
        "polytopes",
        "if any(x.denominator != 1 for column in columns for x in column):",
        "if False:",
        "tests/test_polytopes.py::test_model_map_refuses_a_model_polytope_on_an_index_2_sublattice",
    ),
    (
        "polytopes",
        '_integral_solution(a_string, a_model, "the reverse map onto the string rows")',
        "pass",
        "tests/test_polytopes.py::test_model_map_refuses_a_string_polytope_on_an_index_2_sublattice",
    ),
    (
        "faces",
        "polytopes.model_map(datum)",
        "pass",
        "tests/test_verify.py::test_a_model_row_off_its_certificate_makes_every_theorem_cell_a_violation",
    ),
    (
        "verify",
        'mismatches.append({"kind": "model-map", "error": str(err)})',
        "pass",
        "tests/test_verify.py::test_a_model_row_off_its_certificate_makes_every_theorem_cell_a_violation",
    ),
    # the packed-field codec, the packed slack kernel and the crystal table
    (
        "polytopes",
        'return _little(array.array(_TYPECODES[size, signed], packed.to_bytes(count * size, "little")))',
        'return _little(array.array(_TYPECODES[size, signed], packed.to_bytes(count * size, "big")))',
        "tests/test_polytopes.py::test_packed_fields_round_trip_against_the_int_reference",
    ),
    (
        "polytopes",
        "step = max(2, field_size(max(bounds).bit_length() + 2))  # two guard bits, 16-bit floor",
        "step = max(2, field_size(max(bounds).bit_length()))",
        "tests/test_polytopes.py::test_tight_bits_at_the_field_limits",
    ),
    (
        "polytopes",
        "return fields - ((fields & tops) << 1)",
        "return fields",
        "tests/test_polytopes.py::test_tight_bits_at_the_field_limits",
    ),
    # the columns packed at their source: the strings' bytes widened lane by
    # lane, and the sweep's level values repeated by their leaf counts (the
    # test reference `lattice_incidence`, through `repeated_fields`)
    (
        "polytopes",
        "fields[lane::step] = data[p * size + lane :: stride]",
        "fields[lane::step] = data[p * size :: stride]",
        "tests/test_crystals.py::test_record_masks_are_the_list_route_masks",
    ),
    (
        "polytopes",
        "data = b\"\".join(map(mul, map(codes.__getitem__, values), repeats))",
        "data = b\"\".join(map(codes.__getitem__, values))",
        "tests/test_polytopes.py::test_model_incidence_is_the_list_route_incidence",
    ),
    (
        "crystals",
        "row.append(-pull)",
        "row.append(pull)",
        "tests/test_crystals.py::test_operator_table_matches_operators",
    ),
    (
        "crystals",
        "if outside:",
        "if False:",
        "tests/test_invariants.py::test_string_outside_the_polytope_survives_optimize_flag",
    ),
    (
        "crystals",
        "if count != len(strings):",
        "if False:",
        "tests/test_invariants.py::test_dropped_string_survives_optimize_flag",
    ),
    # each index set is one step from its cached neighbour
    (
        "pipedreams",
        "if min(compatible_subsets(datum, word, v)) != kprime[:-1]:",
        "if False:",
        "tests/test_invariants.py::test_prefix_mismatch_survives_optimize_flag",
    ),
    # one path to each verdict: a status read off the mismatches, and the
    # exported strings read off the certified table
    (
        "verify",
        'cell["status"] = "violation" if mismatches else "pass"',
        'cell["status"] = "pass"',
        "tests/test_verify.py::test_theorem1_suite_reports_a_crystal_side_with_one_wrong_string",
    ),
    (
        "verify",
        'elif any(c["status"] == "violation" for c in listed):',
        "elif False:",
        "tests/test_verify.py::test_duality_suite_reports_a_pairing_off_by_one",
    ),
    (
        "cli",
        'return EXIT_OK if report["status"] == "pass" else EXIT_VIOLATION',
        "return EXIT_OK",
        "tests/test_verify.py::test_verify_command_exits_one_and_prints_the_violation_report",
    ),
    (
        "crystals",
        "return polytopes.PointSet(mask, rec.strings)",
        "return polytopes.PointSet(mask, _string_table(rec.table, word))",
        "tests/test_crystals.py::test_b_lambda_size_decodes_no_string",
    ),
    # point sets are masks over the certified string table
    (
        "crystals",
        "fresh = list(filterfalse(flags.__getitem__, map(step.__getitem__, fresh)))",
        "fresh = []",
        "tests/test_crystals.py::test_fold_masks_match_the_frozenset_route",
    ),
    # one record per cut crystal: its folds filed under their own side, and
    # the strings it hands out the ones its certificate read
    (
        "crystals",
        "filed[w] = mask",
        "record.folds[not opposite][w] = mask",
        "tests/test_crystals.py::test_folds_are_filed_in_the_record_and_built_again_after_a_clear",
    ),
    (
        "crystals",
        "return _Crystal(table, strings, masks, ({}, {}), datum)",
        "return _Crystal(table, _string_table(table, word), masks, ({}, {}), datum)",
        "tests/test_crystals.py::test_the_record_holds_the_strings_it_certified",
    ),
    (
        "polytopes",
        "return self.mask == other.mask",
        "return self.mask.bit_count() == other.mask.bit_count()",
        "tests/test_polytopes.py::test_point_sets_over_one_table_compare_their_masks",
    ),
    # crystal states keyed by their statistics: the step of each lowering,
    # and the witness that replays a path to the lowest state by the sweep
    (
        "crystals",
        "if not coords or k != table.lowest or sum(coords) != depth:",
        "if False:",
        "tests/test_invariants.py::test_depth_witness_survives_optimize_flag",
    ),
    (
        "crystals",
        "return moves[p], eps",
        "return moves[p - 1], eps",
        "tests/test_crystals.py::test_packed_table_matches_tuple_bfs",
    ),
    (
        "crystals",
        "nxt = s + d[0]",
        "nxt = s + moves[0]",
        "tests/test_crystals.py::test_packed_table_matches_tuple_bfs",
    ),
    (
        "crystals",
        "coords, k = _lower(datum, word, lam, coords, i), table.down[i - 1][k]",
        "coords, k = _lower(datum, word, lam, coords, i % datum.rank + 1), table.down[i - 1][k]",
        "tests/test_crystals.py::test_the_witness_refuses_lowering_columns_under_the_wrong_letters",
    ),
    # packed statistics: one letter's group of fields, its first largest
    # sigma, the inverse of its lowering and the width witness
    (
        "crystals",
        "mask = (1 << bits * (len(where) + 1)) - 1",
        "mask = (1 << bits * len(where)) - 1",
        "tests/test_crystals.py::test_packed_statistics_table_matches_the_list_statistics_reference",
    ),
    (
        "crystals",
        "p = where[values.index(top)]",
        "p = where[len(values) - 1 - values[::-1].index(top)]",
        "tests/test_crystals.py::test_packed_statistics_table_matches_the_list_statistics_reference",
    ),
    (
        "crystals",
        "if out[j] >= 0:",
        "if False:",
        "tests/test_crystals.py::test_invert_rejects_non_injective_lowering",
    ),
    (
        "crystals",
        "if (best, hits[0], hits[-1], wt) != _sigma_profile(datum, word, lam, coords, i):",
        "if False:",
        "tests/test_invariants.py::test_width_witness_survives_optimize_flag",
    ),
    # the layouts read off the pipe-dream board
    (
        "pipedreams",
        'facet_order = _rows_up(datum, 1 if datum.family == "A" else -1)',
        "facet_order = _rows_up(datum, -1)",
        "tests/test_pipedreams.py::test_arrangements_type_a",
    ),
    (
        "polytopes",
        "left = pos.get((i, j - 1))",
        "left = pos.get((i, j + 1))",
        "tests/test_polytopes.py::test_string_cone_facet_labels",
    ),
    (
        "pipedreams",
        "{box: k for k, box in enumerate(word_order, start=1)},",
        "{box: k for k, box in enumerate(word_order)},",
        "tests/test_pipedreams.py::test_arrangements_type_a",
    ),
    # a reduced word of w_0 is a word of its length that walks to the
    # group table's last element
    (
        "cartan",
        "if len(word) != datum.num_positive_roots or w is not _weyl_table(datum).elements[-1]:",
        "if len(word) != datum.num_positive_roots:",
        "tests/test_cartan.py::test_compatible_subsets_rejects_bad_input",
    ),
    (
        "cartan",
        "if len(word) != datum.num_positive_roots or w is not _weyl_table(datum).elements[-1]:",
        "if w is not _weyl_table(datum).elements[-1]:",
        "tests/test_cartan.py::test_compatible_subsets_rejects_bad_input",
    ),
    # the one-state operators and M_i refuse input outside their domain
    (
        "crystals",
        "if any(a < 0 for a in coords):",
        "if False:",
        "tests/test_crystals.py::test_operators_refuse_input_outside_their_domain",
    ),
    (
        "crystals",
        "if lam is not INFINITY:",
        "if False:",
        "tests/test_crystals.py::test_operators_refuse_input_outside_their_domain",
    ),
    (
        "pipedreams",
        "if d.datum != datum:",
        "if False:",
        "tests/test_pipedreams.py::test_m_op_refuses_a_diagram_of_another_datum",
    ),
    (
        "crystals",
        "if not coords[last - 1]:",
        "if False:",
        "tests/test_crystals.py::test_raise_onto_a_zero_coordinate_is_detected",
    ),
    # the integer-keyed product path: packed oracle polynomials, one
    # composition of one-line forms, one oracle call per unordered pair
    (
        "oracles",
        "return {m - 1: c for m, c in f.items() if m & 1}",
        "return {m - 1: c for m, c in f.items()}",
        "tests/test_oracles.py::test_divided_difference_closed_forms",
    ),
    (
        "oracles",
        "if sum(degrees) > datum.num_positive_roots:",
        "if False:",
        "tests/test_invariants.py::test_field_width_witness_survives_optimize_flag",
    ),
    (
        "cartan",
        "return tuple([u[x - 1] if x > 0 else -u[-x - 1] for x in v])",
        "return tuple([u[x - 1] if x > 0 else u[-x - 1] for x in v])",
        "tests/test_cartan.py::test_multiply_is_the_signed_matrix_product",
    ),
    (
        "oracles",
        "if (lv, v.oneline) < (lu, u.oneline):",
        "if False:",
        "tests/test_verify.py::test_products_suite_computes_each_unordered_pair_once",
    ),
    # one checked door to each record, a string table read in raising
    # order, and the weight and state checks of the readers beside it
    (
        "crystals",
        "check_weight(datum, lam)  # before the cache: no 1.0 finds the record of 1",
        "pass",
        "tests/test_crystals.py::test_record_checks_the_weight_before_its_cache",
    ),
    (
        "crystals",
        "count, top = eps[parent] + 1, step[parent]",
        "count, top = eps[parent], step[parent]",
        "tests/test_crystals.py::test_string_table_matches_per_state_route",
    ),
    (
        "faces",
        "check_weight(self.datum, lam)",
        "pass",
        "tests/test_faces.py::test_divisor_refuses_a_weight_that_is_not_dominant_with_int_entries",
    ),
    (
        "faces",
        'check_integers("tight index", indices)',
        "pass",
        "tests/test_faces.py::test_model_face_union_count_refuses_a_tight_index_that_is_not_an_int",
    ),
    (
        "crystals",
        "_check_state(word, state)",
        "pass",
        "tests/test_crystals.py::test_string_coords_refuses_a_state_that_packs_onto_another",
    ),
    # the compact record: the first level of the string table read in table
    # order, the packed strings distinct, and fields that hold the depth
    (
        "crystals",
        "if eps[b] != (eps[parent] + 1 if parent >= 0 else 0):",
        "if False:",
        "tests/test_crystals.py::test_string_table_refuses_a_first_level_state_off_its_parent_string",
    ),
    (
        "crystals",
        "if len(set(packed)) != len(packed):",
        "if False:",
        "tests/test_crystals.py::test_string_table_refuses_two_states_with_one_string",
    ),
    (
        "crystals",
        "if table.depth >> shift:",
        "if False:",
        "tests/test_crystals.py::test_string_table_refuses_fields_narrower_than_the_depth",
    ),
    (
        "crystals",
        "if parent in step:",
        "if False:",
        "tests/test_crystals.py::test_string_table_reads_each_raise_about_once",
    ),
    # the group table's inverse and word columns, the left products read off
    # the inverses, and the oracle's degree read field by field
    (
        "cartan",
        "if inverse[j] != k or length[j] != length[k]:",
        "if False:",
        "tests/test_invariants.py::test_inverse_witness_survives_optimize_flag",
    ),
    (
        "cartan",
        "if inverse[j] != k or length[j] != length[k]:",
        "if inverse[j] != k:",
        "tests/test_cartan.py::test_planted_table_fault_is_caught",
    ),
    (
        "cartan",
        "words.append((i,) + words[left[i - 1][k]])",
        "words.append((i + 1,) + words[left[i - 1][k]])",
        "tests/test_cartan.py::test_word_column_matches_the_descent_walk",
    ),
    (
        "cartan",
        "left = tuple(tuple(inverse[step[j]] for j in inverse) for step in right)",
        "left = right",
        "tests/test_cartan.py::test_left_column_matches_the_composition",
    ),
    (
        "oracles",
        "total += key >> at & field",
        "total += key & field",
        "tests/test_oracles.py::test_field_sum_degree_matches_the_unpacked_degree",
    ),
    # the length slices of the table and the refusals of a non-int count
    (
        "cartan",
        "return table.elements[bisect_left(table.length, d) : bisect_right(table.length, d)]",
        "return table.elements[bisect_left(table.length, d) : bisect_left(table.length, d)]",
        "tests/test_cartan.py::test_elements_of_length_are_the_length_filter",
    ),
    (
        "verify",
        "for v in elements_of_length(datum, big_n - length(u)):",
        "for v in elements_of_length(datum, big_n - length(u) - 1):",
        "tests/test_verify.py::test_duality_suite_matches_the_all_pairs_filter",
    ),
    (
        "cartan",
        "if type(self.rank) is not int:",
        "if False:",
        "tests/test_cartan.py::test_a_rank_that_is_not_an_int_is_refused_cold_and_warm",
    ),
    (
        "verify",
        "if count is not None and type(count) is not int:",
        "if False:",
        "tests/test_verify.py::test_theorem_suite_refuses_a_lambda_max_that_is_not_an_int",
    ),
    # int entries of one-line forms, letters and words before their caches,
    # and the group of a cached representative
    (
        "cartan",
        'check_integers("one-line form", line)  # so that no 2.0 equals 2 in a cache key',
        "pass",
        "tests/test_cartan.py::test_a_one_line_entry_that_is_not_an_int_is_refused_cold_and_warm",
    ),
    (
        "cartan",
        "if type(i) is not int or not 1 <= i <= datum.rank:",
        "if not 1 <= i <= datum.rank:",
        "tests/test_cartan.py::test_a_letter_that_is_not_an_int_is_refused",
    ),
    (
        "cartan",
        'check_integers("word", word)  # before the cache: no 1.0 finds the table of 1',
        "pass",
        "tests/test_crystals.py::test_a_word_with_a_letter_that_is_not_an_int_is_refused_cold_and_warm",
    ),
    (
        "crystals",
        'check_integers("word", word)  # likewise, no letter 1.0 finds the record of 1',
        "pass",
        "tests/test_crystals.py::test_a_word_with_a_letter_that_is_not_an_int_is_refused_cold_and_warm",
    ),
    # a bool equals its int and shares its hash, so each int door refuses it
    (
        "cartan",
        "if not {int}.issuperset(map(type, values)):",
        "if not all(map(isinstance, values, repeat(int))):",
        "tests/test_cartan.py::test_a_bool_entry_is_refused_by_every_integer_check",
    ),
    (
        "cartan",
        "if type(self.rank) is not int:",
        "if not isinstance(self.rank, int):",
        "tests/test_cartan.py::test_a_rank_that_is_not_an_int_is_refused_cold_and_warm[bool]",
    ),
    (
        "cartan",
        "if type(i) is not int or not 1 <= i <= datum.rank:",
        "if not isinstance(i, int) or not 1 <= i <= datum.rank:",
        "tests/test_cartan.py::test_a_letter_that_is_not_an_int_is_refused[bool]",
    ),
    (
        "verify",
        "if count is not None and type(count) is not int:",
        "if count is not None and not isinstance(count, int):",
        "tests/test_verify.py::test_suites_refuse_bool_counts",
    ),
    (
        "oracles",
        "check_group(datum, w)  # this public cache holds no element of another group",
        "pass",
        "tests/test_oracles.py::test_schubert_representative_refuses_an_element_of_another_group",
    ),
)


def anchor_counts(src=SRC) -> dict:
    """{anchor: the number of lines under src that equal it, indentation
    aside} over the anchors of PLANTS."""
    counts = dict.fromkeys((row[1] for row in PLANTS), 0)
    for path in sorted(src.rglob("*.py")):
        for line in path.read_text().splitlines():
            if line.strip() in counts:
                counts[line.strip()] += 1
    return counts


def plant(src, module, anchor, planted):
    """Replace the one anchor line of module under src by the planted line."""
    path = src / "schubcalc" / (module + ".py")
    lines = path.read_text().splitlines(keepends=True)
    hits = [k for k, line in enumerate(lines) if line.strip() == anchor]
    if len(hits) != 1:
        raise ValueError("anchor %r occurs %d times in %s" % (anchor, len(hits), path))
    line = lines[hits[0]]
    lines[hits[0]] = line[: len(line) - len(line.lstrip())] + planted + "\n"
    path.write_text("".join(lines))


def run_plant(module, anchor, planted, test) -> str:
    """"killed", "survived" or "error": the named test run against a copy
    of src/ holding the planted line."""
    with tempfile.TemporaryDirectory(prefix="fault-plant-") as tmp:
        copy = pathlib.Path(tmp) / "src"
        shutil.copytree(SRC, copy, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        plant(copy, module, anchor, planted)
        env = dict(os.environ, PYTHONPATH=str(copy), PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", test],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
        )
    # pytest exits 1 when a test failed and 0 when every test passed
    return {0: "survived", 1: "killed"}.get(proc.returncode, "error")


def main() -> int:
    tally = dict.fromkeys(("killed", "survived", "error"), 0)
    for module, anchor, planted, test in PLANTS:
        outcome = run_plant(module, anchor, planted, test)
        tally[outcome] += 1
        print("%-8s %s: %s  [%s]" % (outcome, module, planted, test), flush=True)
    print("killed %(killed)d, survived %(survived)d, error %(error)d" % tally)
    return 0 if tally["killed"] == len(PLANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
