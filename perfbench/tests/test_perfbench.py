"""Smoke tests of the benchmark itself, at the tiny input size.

    python3 -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload, seed=1, trace=0, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def parse(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    work = json.loads(next(ln[5:] for ln in lines if ln.startswith("work ")))
    return json.loads(lines[-1]), lines, work


@pytest.fixture(scope="module")
def runs():
    cache = {}

    def get(workload, seed=1, trace=0, repeat=0):
        key = (workload, seed, trace, repeat)
        if key not in cache:
            cache[key] = parse(bench(workload, seed, trace))
        return cache[key]

    return get


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_printed_with_its_unit(runs, workload, trace, section):
    result, lines, _ = runs(workload, trace=trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in SPEC[section]}
    got = result["metrics"]
    assert set(got) == set(wanted)
    for name, unit in wanted.items():
        assert got[name]["unit"] == unit
        assert isinstance(got[name]["value"], (int, float))
        assert any(ln.startswith(f"metric {name} ") and ln.endswith(f" {unit}")
                   for ln in lines), name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_are_never_zero(runs, workload):
    result, _, _ = runs(workload)
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_one_seed_gives_identical_work_counts(runs, workload):
    _, _, first = runs(workload, seed=3)
    _, _, second = runs(workload, seed=3, trace=1)
    _, _, other = runs(workload, seed=4)
    first.pop("rounds")
    second.pop("rounds")
    assert first == second
    assert other["inputs_sha256"] != first["inputs_sha256"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_one_seed_gives_identical_layer_counts(runs, workload):
    counts = []
    for repeat in (0, 1):
        result, _, _ = runs(workload, seed=3, trace=1, repeat=repeat)
        counts.append({name: m["value"] for name, m in result["metrics"].items()
                       if m["unit"] == "count"})
    assert counts[0] == counts[1]


def test_traced_layers_cover_the_traced_wall_time(runs):
    for workload in WORKLOADS:
        result, _, _ = runs(workload, trace=1)
        assert result["metrics"]["trace.layer_share"]["value"] > 0.5


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(WORKLOADS[0], cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


@pytest.fixture(scope="module")
def program():
    """(freshly imported rlcm namespace, the workloads module)."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import run
    import workloads
    return run.load_program(), workloads


def test_checker_refuses_a_wrong_foundation_verdict(program):
    rl, wl = program
    S = rl.catalog.get_semigroup("ftheta:2,2")
    req = wl.Request("foundation_noncoprime", ("foundation",),
                     ("ftheta:2,2", (S.parse("x0."),)))
    fail = "RESULT FAIL foundation checked=1 failed=1 NotFoundation(x1.)\n"
    passed = "RESULT PASS foundation checked=1 failed=0\n"
    assert wl._judge(rl, req, 1, fail)[0] == wl.CERTIFIED
    assert wl._judge(rl, req, 0, passed)[0] == wl.FAILED


@pytest.mark.parametrize("sel", ["free:2", "nxn", "bs:1,2", "zs:bs:1,2"])
def test_checker_refuses_a_false_disjoint(program, monkeypatch, sel):
    # The closed form is made to agree with the false reply, so only a
    # check that does not use it can catch the reply.
    rl, wl = program
    make = rl.catalog.get_semigroup
    monkeypatch.setattr(rl.catalog, "get_semigroup", lambda name: replace(
        make(name), right_lcm=lambda p, q: rl.core.DISJOINT))
    S = make(sel)
    p = S.generators[0]
    req = wl.Request("lcm", ("lcm",), (sel, p, p))
    assert wl._judge(rl, req, 0, "disjoint\n")[0] == wl.FAILED


def test_checker_accepts_a_true_disjoint(program):
    rl, wl = program
    S = rl.catalog.get_semigroup("free:2")
    req = wl.Request("lcm", ("lcm",), ("free:2", *S.generators))
    assert wl._judge(rl, req, 0, "disjoint\n")[0] == wl.CERTIFIED


def test_spec_describes_every_workload_and_metric():
    spec = json.loads((ROOT / "perfbench" / "spec.json").read_text())
    assert set(spec["workloads"]) == set(WORKLOADS)
    names = {m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    assert set(spec["metrics"]) == names
