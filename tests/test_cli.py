import hashlib
import json
import subprocess
import sys

import pytest

from schubcalc import cli, crystals, faces, pipedreams, verify
from schubcalc.cartan import (
    InvariantError,
    RootDatum,
    all_elements,
    reduced_word,
    standard_word,
    word_to_element,
)


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "schubcalc", *args],
        capture_output=True,
        text=True,
    )
    return proc


def test_crystal_rows_rank_two():
    proc = run_cli("crystal", "--type", "A", "--rank", "2", "--lambda", "1,1", "--kind", "opposite")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["count"] == 8
    assert payload["rows"] == sorted(payload["rows"])


def test_crystal_zero_weight_single_row():
    proc = run_cli("crystal", "--type", "A", "--rank", "2", "--lambda", "0,0")
    payload = json.loads(proc.stdout)
    assert payload["count"] == 1


@pytest.mark.parametrize("word, experimental", [("", False), ("2,1,2", True)], ids=["standard", "custom"])
def test_custom_word_is_flagged_experimental(word, experimental):
    proc = run_cli("crystal", "--type", "A", "--rank", "2", "--lambda", "1,1", "--word", word)
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["experimental"] is experimental
    assert payload["count"] == 8


def test_bad_letter_exits_two():
    proc = run_cli("crystal", "--type", "A", "--rank", "2", "--lambda", "1,1", "--w", "7")
    assert proc.returncode == 2


def test_bad_lambda_exits_two():
    proc = run_cli("crystal", "--type", "A", "--rank", "2", "--lambda", "1")
    assert proc.returncode == 2


def test_faces_example_custom_word():
    proc = run_cli(
        "faces",
        "--type",
        "A",
        "--rank",
        "3",
        "--word",
        "2,1,2,3,2,1",
        "--lambda",
        "1,1,1",
        "--w",
        "1,2,1",
        "--side",
        "opposite",
    )
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert sorted(payload["faces"]) == [[1, 2, 3], [1, 2, 5], [2, 3, 6], [2, 5, 6]]


def test_pipedreams_mset_c2():
    proc = run_cli("pipedreams", "--type", "C", "--rank", "2", "--w", "2,1,2", "--op", "mset")
    payload = json.loads(proc.stdout)
    assert payload["count"] == 3


def test_product_command():
    proc = run_cli("product", "--type", "C", "--rank", "2", "--v", "1", "--w", "2")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["expansion"] == {"1,2": 1, "2,1": 1}
    assert "certified" not in payload and "corollary_faces" not in payload
    assert sorted(payload["faces"]) == [[1, 2], [1, 4], [2, 3], [3, 4]]


def test_product_outputs_over_all_c2_pairs_are_pinned(capsys):
    # sha256 of the concatenated stdout of `product` over every pair of
    # C2 elements, both in all_elements order
    words = [",".join(map(str, reduced_word(u))) for u in all_elements(RootDatum("C", 2))]
    out = []
    for v in words:
        for w in words:
            assert cli.main(["product", "--type", "C", "--rank", "2", "--v", v, "--w", w]) == 0
            out.append(capsys.readouterr().out)
    assert hashlib.sha256("".join(out).encode()).hexdigest() == (
        "97b053a57a32e73ed714a313cf30e3bad816133c053cd52861d9091a931812cc"
    )


@pytest.mark.parametrize("v, w", [("1", "2"), ("1,2", "2,1,2"), ("", "")], ids=["s1-s2", "above-top", "e-e"])
def test_product_payload_is_the_four_documented_keys(capsys, v, w):
    # no identification method and no empty "fv" halves: they read one value
    assert cli.main(["product", "--type", "C", "--rank", "2", "--v", v, "--w", w]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"v", "w", "faces", "expansion"}
    assert all(isinstance(t, list) and all(isinstance(k, int) for k in t) for t in payload["faces"])


FACES_KEYS = {"type", "rank", "word", "lambda", "w", "side", "faces", "n_lattice_points", "volume"}


@pytest.mark.parametrize("pretty", [False, True], ids=["plain", "pretty"])
@pytest.mark.parametrize("side, extra", [("opposite", {"equations"}), ("schubert", {"diagrams"})])
def test_faces_payload_is_the_documented_key_set(capsys, side, extra, pretty):
    # no "empty_faces": the block certificate puts a point on every face
    args = ["faces", "--type", "C", "--rank", "2", "--lambda", "1,1", "--w", "2,1", "--side", side]
    assert cli.main(args + ["--pretty"] * pretty) == 0
    payload = json.loads(capsys.readouterr().out)
    ascii_key = {"ascii"} if pretty and side == "schubert" else set()
    assert set(payload) == FACES_KEYS | extra | ascii_key


def test_verify_axioms_zero_samples():
    # a suite of no cells checks nothing, so it is bad input, not a pass
    proc = run_cli("verify", "axioms", "--type", "A", "--rank", "2", "--samples", "0")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: samples must be at least 1, got 0\n"


@pytest.mark.parametrize(
    "args, message",
    [
        (("theorem1", "--lambda-max", "-1"), "lambda_max must be at least 0, got -1"),
        (("axioms", "--samples", "-5"), "samples must be at least 1, got -5"),
    ],
    ids=["lambda-max", "samples"],
)
def test_verify_rejects_counts_that_check_nothing(args, message):
    proc = run_cli("verify", args[0], "--type", "A", "--rank", "2", *args[1:])
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == "error: %s\n" % message


@pytest.mark.parametrize(
    "args",
    [
        ("duality", "--type", "C", "--rank", "2", "--samples", "0"),
        ("theorem1", "--type", "A", "--rank", "2", "--seed", "3"),
        ("axioms", "--type", "A", "--rank", "2", "--lambda-max", "1"),
        # the theorem matrices run in one process; no flag asks for workers
        ("theorem1", "--type", "A", "--rank", "2", "--lambda-max", "0", "--jobs", "2"),
    ],
    ids=["duality-samples", "theorem1-seed", "axioms-lambda-max", "theorem1-jobs"],
)
def test_verify_statement_refuses_a_flag_its_suite_does_not_read(args):
    proc = run_cli("verify", *args)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "unrecognized arguments: %s %s" % args[-2:] in proc.stderr


@pytest.mark.parametrize(
    "args, value",
    [
        (("crystal", "--type", "B", "--rank", "2"), "B"),
        (("crystal", "--type", "A", "--rank", "2", "--kind", "x"), "x"),
        (("pipedreams", "--type", "A", "--rank", "2", "--op", "x"), "x"),
    ],
    ids=["type", "kind", "op"],
)
def test_value_outside_the_choices_exits_two(capsys, args, value):
    # argparse refuses it before any command runs
    with pytest.raises(SystemExit) as stop:
        cli.main(list(args))
    out, err = capsys.readouterr()
    assert stop.value.code == cli.EXIT_BAD_INPUT
    assert out == ""
    assert "invalid choice: %r" % value in err


def test_verify_theorem1_small():
    proc = run_cli(
        "verify", "theorem1", "--type", "A", "--rank", "2", "--lambda-max", "1"
    )
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["status"] == "pass"
    assert len(payload["cells"]) == 4 * 6


def test_determinism():
    args = ("crystal", "--type", "C", "--rank", "2", "--lambda", "1,1", "--kind", "b")
    first = run_cli(*args).stdout
    second = run_cli(*args).stdout
    assert first == second


def test_unread_flag_is_rejected():
    # a flag another subcommand reads is unknown here
    proc = run_cli("crystal", "--type", "A", "--rank", "2", "--lambda", "1,1", "--op", "mset")
    assert proc.returncode == 2
    # the deformation is fixed: no subcommand takes a profile
    proc = run_cli("crystal", "--type", "A", "--rank", "2", "--lambda", "1,1", "--epsilon", "1,2")
    assert proc.returncode == 2


def test_csv_output():
    proc = run_cli(
        "crystal", "--type", "A", "--rank", "2", "--lambda", "1,0", "--format", "csv"
    )
    assert proc.returncode == 0
    rows = [line for line in proc.stdout.strip().splitlines() if line]
    assert len(rows) == 3


def test_faces_schubert_side_with_volume():
    proc = run_cli(
        "faces", "--type", "C", "--rank", "2", "--lambda", "1,1", "--w", "2,1", "--side", "schubert"
    )
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert len(payload["faces"]) == 2
    assert "volume" in payload


def test_volume_command():
    proc = run_cli("volume", "--type", "C", "--rank", "2", "--lambda", "1,1", "--w", "2,1")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["schubert_dimension"] > 0
    assert payload["opposite_dimension"] > 0


def test_volume_command_reaches_c3_w0():
    # the Demazure side has d = 9 here: beyond any lattice enumeration of 9P
    proc = run_cli("volume", "--type", "C", "--rank", "3", "--w", "1,2,1,2,3,2,1,2,3")
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["lambda"] == [1, 1, 1]
    assert payload["schubert_volume"] == "1"
    assert payload["opposite_volume"] == "1"


def test_product_epsilon_is_an_unknown_flag():
    args = ("product", "--type", "C", "--rank", "2", "--v", "1", "--w", "2")
    proc = run_cli(*args)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["expansion"] == {"1,2": 1, "2,1": 1}
    proc = run_cli(*args, "--epsilon", "2,0,4")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "unrecognized arguments: --epsilon" in proc.stderr


def test_context_without_tower_exits_one(monkeypatch, capsys):
    # no input reaches a context the tower certificate refuses: a refusal is
    # an internal fault
    monkeypatch.setattr(faces.polytopes, "interval_tower", lambda p: None)
    monkeypatch.setattr(faces, "default_context", faces.DeformedContext)
    code = cli.main(["product", "--type", "C", "--rank", "2", "--v", "1", "--w", "2"])
    out, err = capsys.readouterr()
    assert code == cli.EXIT_VIOLATION
    assert out == ""
    assert json.loads(err) == {
        "error": "internal invariant violated",
        "type": "InvariantError",
        "message": "the deformed polytope is not a tower of intervals",
    }


def test_library_value_error_exits_one(monkeypatch, capsys):
    # validated input never reaches a library precondition, so a ValueError
    # escaping a command is a fault of the program, not "bad input"
    def broken(datum, w):
        raise pipedreams.MOpError("planted fault")

    monkeypatch.setattr(cli.pipedreams, "mset", broken)
    code = cli.main(["pipedreams", "--type", "C", "--rank", "2", "--w", "2,1", "--op", "mset"])
    out, err = capsys.readouterr()
    assert code == cli.EXIT_VIOLATION
    assert out == ""
    assert err.count("\n") == 1
    assert json.loads(err) == {
        "error": "internal invariant violated", "type": "MOpError", "message": "planted fault"
    }


@pytest.mark.parametrize(
    "args",
    [
        ("crystal", "--type", "A", "--rank", "2", "--lambda", "1,1", "--kind", "richardson",
         "--v", "7", "--w", "1"),
        ("product", "--type", "C", "--rank", "2", "--v", "9", "--w", "1"),
        ("crystal", "--type", "A", "--rank", "2", "--lambda", "1,1", "--kind", "richardson",
         "--v", "1,2", "--w", "1"),
        ("verify", "theorem2", "--type", "C", "--rank", "2", "--lambda-max", "0"),
        ("verify", "theorem3", "--type", "A", "--rank", "2", "--lambda-max", "0"),
        ("verify", "products", "--type", "A", "--rank", "2"),
    ],
    ids=["crystal-v-letter", "product-v-letter", "richardson-not-below", "theorem2-C", "theorem3-A",
         "products-A"],
)
def test_validation_exits_two(capsys, args):
    # each case is refused by the validation step, before the library runs
    code = cli.main(list(args))
    out, err = capsys.readouterr()
    assert code == cli.EXIT_BAD_INPUT
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "budget, shown", [("nan", "nan"), ("-1", "-1.0"), ("-0.5", "-0.5")], ids=["nan", "-1", "-0.5"]
)
def test_verify_refuses_a_budget_that_is_not_a_nonnegative_number(capsys, budget, shown):
    # a NaN budget never runs out: the whole suite would run unbudgeted
    code = cli.main(
        ["verify", "theorem1", "--type", "A", "--rank", "2", "--lambda-max", "0", "--budget", budget]
    )
    out, err = capsys.readouterr()
    assert code == cli.EXIT_BAD_INPUT
    assert out == ""
    assert err == "error: budget must be a nonnegative number of seconds, got %s\n" % shown


A2, C2 = RootDatum("A", 2), RootDatum("C", 2)

# one bad input per rule the library states, with the library call that
# refuses the same input; the CLI refuses it through that check
LIBRARY_REFUSALS = {
    "letter": (
        ("crystal", "--type", "A", "--rank", "2", "--lambda", "1,1", "--w", "7"),
        lambda: word_to_element(A2, (7,)),
    ),
    "weight": (
        ("crystal", "--type", "A", "--rank", "2", "--lambda", "1"),
        lambda: crystals.generate_b_lambda(A2, standard_word(A2), (1,)),
    ),
    "richardson": (
        ("crystal", "--type", "A", "--rank", "2", "--lambda", "1,1", "--kind", "richardson",
         "--v", "1,2", "--w", "1"),
        lambda: crystals.richardson_lattice_points(
            A2, standard_word(A2), word_to_element(A2, (1, 2)), word_to_element(A2, (1,)), (1, 1)
        ),
    ),
    "mitosis": (
        ("pipedreams", "--type", "C", "--rank", "2", "--w", "1", "--op", "mitosis"),
        lambda: pipedreams.mitosis_chain(C2, (1,)),
    ),
    "product": (
        ("product", "--type", "A", "--rank", "2", "--v", "1", "--w", "2"),
        lambda: faces.product_c(A2, word_to_element(A2, (1,)), word_to_element(A2, (2,))),
    ),
    "statement": (
        ("verify", "theorem3", "--type", "A", "--rank", "2"),
        lambda: verify.theorem_suite("theorem3", "A", 2, 2),
    ),
    "lambda-max": (
        ("verify", "theorem1", "--type", "A", "--rank", "2", "--lambda-max", "-1"),
        lambda: verify.theorem_suite("theorem1", "A", 2, -1),
    ),
    "samples": (
        ("verify", "axioms", "--type", "C", "--rank", "2", "--samples", "0"),
        lambda: verify.axioms_suite("C", 2, 0),
    ),
    "budget": (
        ("verify", "duality", "--type", "C", "--rank", "2", "--budget", "nan"),
        lambda: verify.duality_suite("C", 2, budget=float("nan")),
    ),
}


@pytest.mark.parametrize("case", sorted(LIBRARY_REFUSALS))
def test_refusals_carry_the_library_message(capsys, case):
    args, library_call = LIBRARY_REFUSALS[case]
    with pytest.raises(ValueError) as refused:
        library_call()
    code = cli.main(list(args))
    out, err = capsys.readouterr()
    assert code == cli.EXIT_BAD_INPUT
    assert out == ""
    assert err == "error: " + str(refused.value) + "\n"


def test_verify_budget_exit_code():
    proc = run_cli(
        "verify", "theorem1", "--type", "A", "--rank", "3", "--lambda-max", "2",
        "--budget", "0.0",
    )
    assert proc.returncode == 3
    payload = json.loads(proc.stdout)
    assert payload["status"] == "partial"


def test_schubert_side_rejects_custom_word():
    proc = run_cli(
        "faces", "--type", "A", "--rank", "2", "--word", "2,1,2",
        "--lambda", "1,1", "--w", "1", "--side", "schubert",
    )
    assert proc.returncode == 2


def test_verify_rank_bounds():
    proc = run_cli("verify", "theorem1", "--type", "C", "--rank", "5", "--lambda-max", "1")
    assert proc.returncode == 2


@pytest.mark.parametrize(
    "error", [crystals.CorruptElementError, crystals.CrystalPolytopeMismatchError, InvariantError]
)
def test_internal_invariant_exits_one(monkeypatch, capsys, error):
    def broken(args):
        raise error("planted fault")

    monkeypatch.setattr(cli, "cmd_crystal", broken)
    code = cli.main(["crystal", "--type", "A", "--rank", "2", "--lambda", "1,1"])
    err = capsys.readouterr().err
    assert code == cli.EXIT_VIOLATION
    assert json.loads(err) == {
        "error": "internal invariant violated", "type": error.__name__, "message": "planted fault"
    }
    assert "Traceback" not in err


def test_oracle_convention_slip_exits_one(wrong_signed_root, capsys):
    code = cli.main(["product", "--type", "C", "--rank", "2", "--v", "1", "--w", "2"])
    err = capsys.readouterr().err
    assert code == cli.EXIT_VIOLATION
    assert json.loads(err) == {
        "error": "internal invariant violated",
        "type": "InvariantError",
        "message": "top-class normalization failed; convention error",
    }
    assert "Traceback" not in err


def test_invariant_fault_is_one_json_line(monkeypatch, capsys):
    def broken(args):
        print("partial output")
        raise InvariantError("planted fault")

    monkeypatch.setattr(cli, "cmd_volume", broken)
    code = cli.main(["volume", "--type", "A", "--rank", "2"])
    out, err = capsys.readouterr()
    assert code == cli.EXIT_VIOLATION
    assert out == "partial output\n"
    assert err.count("\n") == 1
    assert err == json.dumps(
        {"error": "internal invariant violated", "message": "planted fault", "type": "InvariantError"},
        sort_keys=True,
    ) + "\n"


def test_theorem_violation_payload_is_one_json_line(monkeypatch, capsys):
    payload = {"theorem": "product", "v": [1], "w": [2], "expansion": {"s1": 2}, "oracle": {}}

    def broken(args):
        raise faces.TheoremViolationError(payload)

    monkeypatch.setattr(cli, "cmd_product", broken)
    code = cli.main(["product", "--type", "C", "--rank", "2", "--v", "1", "--w", "2"])
    out, err = capsys.readouterr()
    assert code == cli.EXIT_VIOLATION
    assert out == ""
    assert err.count("\n") == 1
    assert json.loads(err) == {"error": "theorem violation", "payload": payload}
    assert err == json.dumps(json.loads(err), sort_keys=True) + "\n"
