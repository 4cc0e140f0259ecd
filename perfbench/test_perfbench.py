"""Tiny-mode self-check of the benchmark harness.

Runs every workload at rank two for a single pass, untraced and traced, and
checks known structural counts, that both runs of one seed count the same, and
that every metric named in BENCHMARK.json is emitted with its unit.  Also
checks the host clock's scaling and that it leaves no timer or handler behind.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import importlib.util
import json
import shutil
import signal
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def load(name):
    """One of the benchmark's own modules, imported from this directory."""
    loader = importlib.util.spec_from_file_location("perfbench_" + name, HERE / (name + ".py"))
    module = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(module)
    return module


# Known counts of one tiny pass.  face-matrix: a half, rounded up, of each
# length class of the rank-two Weyl groups (sizes 1,2,2,1 in A2 and 1,2,2,2,1
# in C2) over the four lambda <= 1, for two theorems each: 2*4*4 + 2*4*5 = 72
# cells.  big-weight: the Weyl dimensions 81 of B(2,2) in C2 and 64 of B(3,3) in
# A2, one element of each length 1..N-1 in C2 (3) and all of them in A2 (4).
# c3-products: the deformed C2 polytope is a 4-cube, and one product per degree
# 1..4.
KNOWN = {
    "face-matrix": {"cells_per_pass": 72},
    "big-weight": {"b_lambda C2 (2, 2)": 81, "b_lambda A2 (3, 3)": 64, "cells_per_pass": 2 + 3 + 4},
    "c3-products": {"vertices": 16, "cells_per_pass": 4},
}


def bench(workload, trace, cwd=ROOT, tiny=True):
    cmd = [sys.executable, str(cwd / HERE.name / "run.py"), "--workload", workload, "--seed", "5",
           "--seconds", "0", "--trace", str(trace)]
    return subprocess.run(cmd + (["--tiny"] if tiny else []), cwd=cwd, capture_output=True,
                          text=True, timeout=120)


def parse(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    summary = next(line for line in lines if line.startswith("summary "))
    return json.loads(summary[len("summary "):]), json.loads(lines[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run(workload):
    runs = {}
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        summary, result = parse(bench(workload, trace))
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] >= 1
        assert summary["fail_frac"] == 0 and summary["counts_consistent"]
        expected = {m["name"]: m["unit"] for m in SPEC[group]}
        assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
        counts = dict(summary["structural_counts"], cells_per_pass=summary["cells_per_pass"])
        for key, value in KNOWN[workload].items():
            assert counts[key] == value, key
        runs[trace] = counts
    assert runs[0] == runs[1]


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("face-matrix", 0, cwd=tmp_path, tiny=False)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_wrong_output_fails_the_run(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    oracles = tmp_path / "src" / "schubcalc" / "oracles.py"
    oracles.write_text(oracles.read_text() + (
        "\n\n_weyl_dimension = weyl_dimension\n\n\n"
        "def weyl_dimension(datum, lam):\n    return _weyl_dimension(datum, lam) + 1\n"))
    proc = bench("big-weight", 0, cwd=tmp_path)
    assert proc.returncode == 1
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == 2 and result["attempted"] == KNOWN["big-weight"]["cells_per_pass"]


def test_reference_scan_sees_containers_and_classes():
    spans = load("spans")

    def entry():
        pass

    module = types.ModuleType("schubcalc.example")
    module.table = {"f": entry}
    module.Holder = type("Holder", (), {"__module__": "schubcalc.example", "fn": entry})
    module.direct = entry
    found = {where for where, value in spans._references(module) if value is entry}
    assert found == {"table['f']", "Holder.fn", "direct"}


def test_host_clock_scales_by_probe_speed():
    clock = load("hostclock").HostClock()
    clock.times, clock.speeds = [0.0, 1.0, 2.0, 3.0], [1.0, 0.5, 0.5, 1.0]
    # 2 s with 0.2 s of probes, over the two half-speed probes
    assert clock.scaled((0.5, 0.0), (2.5, 0.2)) == pytest.approx(1.8 * 0.5)
    # no probe inside: the probes on either side
    assert clock.scaled((0.2, 0.0), (0.3, 0.0)) == pytest.approx(0.1 * 0.75)


def test_host_clock_samples_and_restores_the_signal():
    before = signal.getsignal(signal.SIGALRM)
    with load("hostclock").HostClock() as clock:
        begin = clock.mark()
        while clock.raw(begin, clock.mark()) < 0.2:
            pass
        end = clock.mark()
    assert len(clock.speeds) >= 5
    assert end[1] > begin[1] and clock.scaled(begin, end) > 0
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is before
