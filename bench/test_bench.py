"""Tests of the benchmark itself: inputs, independent checks, tracing.

    python3 -m pytest bench/test_bench.py -q
"""

import copy
import json
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import checks
import passes
import run
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
SEEDED = ("wandering", "survey", "divisors")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_a_seed_gives_the_same_inputs(workload):
    assert workloads.generate(workload, 7) == workloads.generate(workload, 7)


@pytest.mark.parametrize("workload", SEEDED)
def test_different_seeds_give_different_inputs(workload):
    assert workloads.generate(workload, 7) != workloads.generate(workload, 8)


def test_input_generation_never_imports_the_package():
    # Without the package in the process, generation cannot call decide or
    # verify, so a change to the engine cannot shift a workload's inputs.
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import workloads\n"
        "for w in workloads.WORKLOADS: workloads.generate(w, 3)\n"
        "print(sorted(m for m in sys.modules if m.startswith('orbitsieve')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(BENCH)], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_divisor_grid_is_complete_for_every_seed():
    for seed in (1, 2):
        runs = workloads.generate("divisors", seed)
        grid = {(r.map_text, r.gamma, abs(r.beta)) for r in runs}
        assert len(runs) == len(grid) == len(workloads.DIVISOR_PAIRS) * len(workloads.DIVISORS_BETAS)


def test_wandering_problems_wander():
    for inp in workloads.generate("wandering", 5)[3:]:
        assert workloads.wanders(inp)
        assert inp.map_text.startswith("(") and inp.g[1:] != (0,) * (len(inp.g) - 1)


# ---------------------------------------------------------------------------
# independent checks


def _decision_doc(inp):
    kind, text = passes.solve_decision(inp)
    return json.loads(text)


@pytest.fixture(scope="module")
def golden_docs():
    return [(inp, _decision_doc(inp)) for inp in workloads.golden_problems()]


def test_checks_accept_the_golden_certificates(golden_docs):
    kinds = []
    for inp, doc in golden_docs:
        checks.check_decision(inp, doc)
        kinds.append((doc["kind"], "finite_orbit" in doc))
    assert kinds == [("empty", False), ("witness", False), ("empty", True)]


@pytest.mark.parametrize("field", ["sequence", "residues"])
def test_family_check_rejects_edited_residues(golden_docs, field):
    inp, doc = golden_docs[0]
    bad = copy.deepcopy(doc)
    ev = bad["moduli"][0]
    if field == "sequence":
        c1, c2 = ev["orbit"]["sequence"][0]
        ev["orbit"]["sequence"][0] = [str(int(c1) + 1), c2]
    else:
        cycle = int(ev["hit_set"]["cycle_length"])
        present = {int(r) for r in ev["hit_set"]["residues"]}
        extra = next(r for r in range(cycle) if r not in present)
        ev["hit_set"]["residues"] = [str(r) for r in sorted(present | {extra})]
    with pytest.raises(checks.CheckError):
        checks.check_decision(inp, bad)


@pytest.mark.parametrize("shift", [-1, 1])
def test_witness_check_rejects_a_shifted_index(golden_docs, shift):
    inp, doc = golden_docs[1]
    bad = dict(doc, witness_index=str(int(doc["witness_index"]) + shift))
    with pytest.raises(checks.CheckError):
        checks.check_decision(inp, bad)


def test_closed_orbit_check_rejects_an_edited_tail(golden_docs):
    inp, doc = golden_docs[2]
    bad = copy.deepcopy(doc)
    bad["finite_orbit"]["tail"] = str(int(bad["finite_orbit"]["tail"]) + 1)
    with pytest.raises(checks.CheckError):
        checks.check_decision(inp, bad)


def test_degree_one_check_rejects_any_witness():
    inp = workloads.degree_one_problem()
    doc = {"kind": "witness", "witness_index": "0",
           "problem": {"start": ["1", "1"], "targets": [["0", "1"], ["1", "0"]]}}
    with pytest.raises(checks.CheckError, match="never meets"):
        checks.check_decision(inp, doc)


@pytest.fixture(scope="module")
def fermat():
    inp = workloads.DivisorInput("z^2", (0, 0, 1), (1, 0, 0), 2, 1, 5)
    phi, run_ = passes.solve_divisors(inp)
    return inp, passes.report_doc(run_)


def test_divisor_check_accepts_the_fermat_primes(fermat):
    inp, reports = fermat
    checks.check_divisors(inp, reports)
    assert [r["primitive"] for r in reports] == [[3], [5], [17], [257], [65537]]


@pytest.mark.parametrize("wrong", [3, 13])
def test_divisor_check_rejects_a_wrong_primitive_prime(fermat, wrong):
    # 3 divides an earlier term; 13 divides no term at all.
    inp, reports = fermat
    bad = copy.deepcopy(reports)
    bad[2]["primitive"] = [wrong]
    with pytest.raises(checks.CheckError):
        checks.check_divisors(inp, bad)


def test_divisor_check_rejects_a_support_that_does_not_multiply_back(fermat):
    inp, reports = fermat
    bad = copy.deepcopy(reports)
    bad[1]["valuations"] = [[5, 2]]
    with pytest.raises(checks.CheckError):
        checks.check_divisors(inp, bad)


# ---------------------------------------------------------------------------
# tracing


def test_traced_pass_restores_every_wrapped_name():
    before = tracing.originals()
    p = passes.Pass("wandering", 1)
    p.inputs = workloads.golden_problems()
    rec = tracing.Recorder()
    rec.install()
    try:
        assert all(now[2] is not then[2] for now, then in zip(tracing.originals(), before))
        p.solve(rec)
        assert all(p.verify_once(rec))
    finally:
        rec.uninstall()
    assert all(now[2] is then[2] for now, then in zip(tracing.originals(), before))
    names = {s[0] for s in rec.spans}
    assert {"localglobal.decide", "ratmap.evaluate", "orbit.orbit_mod", "localglobal.verify"} <= names
    assert {s[4] for s in rec.spans} == {0, 1, 2}


def test_self_time_subtracts_direct_children_only():
    spans = [
        ["a", 0.0, 10.0, -1, 0],
        ["b", 1.0, 5.0, 0, 0],
        ["c", 2.0, 3.0, 1, 0],
        ["c", 6.0, 8.0, 0, 0],
    ]
    t = tracing.layer_times(spans)
    assert t["a"] == {"calls": 1, "s": 10.0, "self_s": 4.0}
    assert t["b"] == {"calls": 1, "s": 4.0, "self_s": 3.0}
    assert t["c"]["calls"] == 2 and t["c"]["s"] == 3.0
    assert tracing.count_under(spans, "c", "b") == 1


def test_tail_percentile_leaves_ten_ops_beyond():
    assert run.tail_percentile(6000) == 99
    assert run.tail_percentile(403) == 95
    assert run.tail_percentile(42) == 75
    assert run.tail_percentile(1) == 50


def test_speed_meter_leaves_its_samples_out_of_the_clock():
    before = signal.getsignal(signal.SIGALRM)
    with passes.SpeedMeter() as meter:
        a, t0 = meter.clock(), time.perf_counter()
        while time.perf_counter() - t0 < 0.35:
            pass
        b, t1 = meter.clock(), time.perf_counter()
    assert signal.getsignal(signal.SIGALRM) is before
    inside = [s for t, s in meter.samples if a <= t <= b]
    assert len(inside) >= 2 and len(meter.samples) >= passes.SPEED_MIN_SAMPLES
    assert (t1 - t0) - (b - a) == pytest.approx(sum(inside), abs=1e-3)
    assert meter.factor(a, b) > 0
