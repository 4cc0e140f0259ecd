"""The scripts under `scripts/` run against the library as it stands: a
script that names a symbol the library no longer has fails here."""

import hashlib
import importlib.util
import os
import pathlib
import subprocess
import sys

import schubcalc

PACKAGE = pathlib.Path(schubcalc.__file__).parent
SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def _run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )


def test_product_table_script_prints_rank_two_table():
    proc = _run_script("run_product_table.py", "--rank", "2")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 64  # |W(C2)|^2 products
    assert all(line.startswith("[X^") for line in lines)
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == (
        "d64fefdac16f294d8e37d02e53f441fb21bcea38792323d65c99311ec7d2ed7a"
    )


def test_product_table_script_prints_rank_three_table():
    proc = _run_script("run_product_table.py", "--rank", "3")
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout.splitlines()) == 48 * 48  # |W(C3)|^2 products
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == (
        "63cc60199fd5886ec2f854b9c3644ff46524001437a9057ca2d1dce4b5ef5878"
    )


def test_verification_matrix_script_passes(tmp_path):
    output = tmp_path / "matrix.json"
    proc = _run_script("run_verification_matrix.py", "--output", str(output))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1].startswith("total: pass")
    assert output.exists()


def test_verification_matrix_script_has_no_jobs_flag(tmp_path):
    output = tmp_path / "matrix.json"
    proc = _run_script("run_verification_matrix.py", "--jobs", "2", "--output", str(output))
    assert proc.returncode == 2
    assert "unrecognized arguments: --jobs 2" in proc.stderr
    assert not output.exists()


def test_fault_plant_anchors_occur_once_in_the_library():
    # the table of run_fault_plants.py cannot rot: every anchor is one line
    # of src/ and every test it names is defined in its file
    spec = importlib.util.spec_from_file_location("run_fault_plants", SCRIPTS / "run_fault_plants.py")
    plants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(plants)
    assert plants.anchor_counts(PACKAGE.parent) == dict.fromkeys((row[1] for row in plants.PLANTS), 1)
    for module, anchor, _, test in plants.PLANTS:
        assert anchor in (PACKAGE / (module + ".py")).read_text()
        path, name = test.split("::")
        assert "\ndef %s(" % name in (SCRIPTS.parent / path).read_text()
