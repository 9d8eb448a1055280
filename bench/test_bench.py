"""Self-tests of the benchmark's own code (not part of the tier-1 suite):

  python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import focklab as fl  # noqa: E402
import workloads as W  # noqa: E402
from layertrace import Tracer  # noqa: E402


def cheap_groups(name, seed):
    """The workload's groups minus its two slowest, which keep their
    parameters but would take most of a minute."""
    wl = W.WORKLOADS[name]
    state = wl.setup(fl, W.make_inputs(name, seed))
    skip = {"fock-basics", "virasoro[grade=11]", "lift[2,-2]"}
    groups = [g for g in wl.groups(fl, state) if g[0] not in skip]
    results = []
    for gid, expected, thunk in groups:
        results.append((gid, expected, thunk(), None))
    return W.account_pass(fl, wl, state, results)


def test_inputs_are_a_function_of_the_seed():
    for name in W.WORKLOADS:
        assert W.make_inputs(name, 7) == W.make_inputs(name, 7)
    assert any(W.make_inputs(n, 1) != W.make_inputs(n, 2) for n in W.WORKLOADS)
    seen = {W.make_inputs("loop-oscillator", s)["lambda"] for s in range(40)}
    assert seen == set(W.LAMBDAS)


@pytest.mark.parametrize("name", list(W.WORKLOADS))
def test_two_seeds_same_evidence_and_all_pass(name):
    a_units, a_evidence, _ = cheap_groups(name, 1)
    b_units, b_evidence, _ = cheap_groups(name, 2)
    assert a_evidence == b_evidence > 0
    assert [u[0] for u in a_units] == [u[0] for u in b_units]
    assert all(u[1] == "pass" for u in a_units + b_units)


def test_same_seed_same_exact_results():
    assert cheap_groups("curves-and-families", 3)[2] == cheap_groups("curves-and-families", 3)[2]


def test_output_checks_pass_at_reference():
    wl = W.WORKLOADS["curves-and-families"]
    state = wl.setup(fl, W.make_inputs("curves-and-families", 5))
    assert wl.check(fl, state, {}, W.load_references()) == []


def test_failures_are_recorded_by_class_and_the_pass_continues():
    from focklab import hodge, subalgebra

    class Broken:
        def groups(self, fl, state):
            def raise_(exc):
                raise exc
            return [
                ("curvature", 2, lambda: raise_(hodge.IdentityFailed("not scalar"))),
                ("lift", 1, lambda: raise_(subalgebra.NoIsotropicLift("2 classes"))),
                ("divide", 1, lambda: 1 // 0),
                ("fine", 1, lambda: fl.run_suite("fock-type", {})),
            ]

    results = W.run_pass(fl, Broken(), None)
    assert [r[3] is not None for r in results] == [True, True, True, False]
    assert results[0][3] == "IdentityFailed: not scalar"
    assert results[1][3].startswith("NoIsotropicLift")

    class Account(Broken):
        def account(self, fl, state, gid, value):
            return [(gid, "pass", None)], 1, ""

    units, _, _ = W.account_pass(fl, Account(), None, results)
    assert [u[1] for u in units] == ["raised", "raised", "raised", "raised", "pass"]
    assert units[0][2] == "IdentityFailed: not scalar"


def test_known_defect_probe_names_its_verdicts():
    verdicts = W.defect_probe(fl)
    assert set(verdicts) == {
        "hyperelliptic[y^2=x^3+x+1,g=1,N=52]", "hyperelliptic[y^2=x^5-x+1,g=2,N=60]"
    }
    assert all(v for v in verdicts.values())


def test_self_time_is_exact_on_a_synthetic_span_tree():
    now = [0.0]
    tracer = Tracer(clock=lambda: now[0])

    def work(dt):
        now[0] += dt

    # bench -> hodge(1) -> fock(2) -> scalars(3); fock -> scalars(4); hodge(5)
    # -> hodge nested call (not a new span) -> linalg(6), which raises.
    scalar = tracer.wrap(lambda dt: work(dt), "scalars", "s")

    def fock_body():
        work(2)
        scalar(3)
        scalar(4)

    fock = tracer.wrap(fock_body, "fock", "f")

    def failing():
        work(6)
        raise ArithmeticError("singular")

    linalg = tracer.wrap(failing, "linalg", "l")

    def hodge_inner():
        work(5)
        try:
            linalg()
        except ArithmeticError:
            pass

    inner = tracer.wrap(hodge_inner, "hodge", "h-inner")

    def hodge_body():
        work(1)
        fock()
        inner()

    hodge = tracer.wrap(hodge_body, "hodge", "h")
    tracer.start()
    work(0.5)
    hodge()
    wall = tracer.stop()
    totals = tracer.layer_totals()
    assert wall == 21.5
    assert totals["hodge"] == {"calls": 1, "self_s": 6.0, "errors": 0}
    assert totals["fock"] == {"calls": 1, "self_s": 2.0, "errors": 0}
    assert totals["scalars"] == {"calls": 2, "self_s": 7.0, "errors": 0}
    assert totals["linalg"] == {"calls": 1, "self_s": 6.0, "errors": 1}
    metrics = tracer.metrics(wall)
    assert metrics["bench.self_s"][0] == 0.5
    assert sum(t["self_s"] for t in totals.values()) + 0.5 == wall


def test_tracer_counts_waste_on_the_real_package():
    tracer = Tracer()
    tracer.install(fl)
    try:
        tracer.start()
        a = fl.ExactMatrix([[1, 0], [0, 0]])
        a * a
        f = fl.LaurentSeries.from_terms({-1: 1, 0: 1, 2: 3}, 6)
        g = fl.LaurentSeries.from_terms({-2: 1, 1: 1}, 6)
        fl.residue_form(f, g)  # df has exponents -2 and 1: two pairs meet at -1
        fl.GaussianRational(0) * fl.GaussianRational(1, 2)
        tracer.stop()
    finally:
        tracer.uninstall()
    assert not hasattr(fl.residue_form, "__wrapped__")
    assert not hasattr(fl.GaussianRational.__mul__, "__wrapped__")
    c = tracer.counters
    assert (c["linalg.useful"], c["linalg.products"]) == (1, 8)
    assert c["laurent.residue_calls"] == 1
    assert c["laurent.residue_useful"] == 2 < c["laurent.residue_products"]
    assert c["scalars.mul"] >= 1 and c["scalars.mul_zero"] >= 1


def test_reported_metrics_are_the_ones_benchmark_json_declares():
    import json

    import run

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    tracer = Tracer(clock=lambda: 1.0)
    tracer.start()
    traced = {"verify_s": 2.0, "layers": tracer.metrics(tracer.stop())}
    per_layer = run.per_layer_metrics({"verify_s": 1.0}, traced, 0.0)
    assert set(per_layer) == {m["name"] for m in declared["per_layer"]}
    passes = [{"verify_s": 1.0, "peak_rss_mb": 20.0, "speed_sample_s": 0.004}]
    end_to_end = run.end_to_end_metrics([0.1], passes)
    assert set(end_to_end) == {m["name"] for m in declared["end_to_end"]}
    assert end_to_end["verify_s"]["value"] == run.REFERENCE_SAMPLE_S / 0.004
    for m in declared["end_to_end"] + declared["per_layer"]:
        got = (per_layer.get(m["name"]) or end_to_end[m["name"]])["unit"]
        assert got == m["unit"], m["name"]


def test_speed_sampler_samples_while_running_and_stops():
    import time

    from child import SpeedSampler

    sampler = SpeedSampler()
    sampler.start()
    time.sleep(5 * SpeedSampler.SAMPLE_EVERY_S)
    mean = sampler.finish()
    assert not sampler.is_alive()
    assert len(sampler.samples) >= 2 and mean > 0
