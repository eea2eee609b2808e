"""Workload inputs, output checks, tracing and the BENCHMARK.json contract."""

import json
from dataclasses import replace

import pytest

from halfpoint.curves import Curve, Point
from halfpoint.halving_fp import FpHalvingField
from perfbench import run, tracing, worker
from perfbench.workloads import WORKLOADS, FpCold

from conftest import ROOT


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_one_round_passes_its_checks(name):
    wl = WORKLOADS[name]
    state = wl.setup(7)
    phase = worker.Phase()
    worker._run_round(wl, state, wl.round(state, 0), phase)
    assert phase.attempted > 0
    assert phase.failures == []


def _corruptions(name, out):
    # outputs that differ from a right one in a single way
    if name == "fp-warm":
        return [out[:-1], out + out[:1]]
    if name == "fp-cold":
        degree, halves = out
        return [(degree, halves[:-1]), (degree % 3 + 1, halves)]
    if name == "codec-decrypt":
        return [Point(out.x, -out.y)]
    halves, halvable, residual = out
    return [(halves[:-1], halvable, residual), (halves, False, residual), (halves, halvable, 1.0)]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_checks_catch_a_wrong_output(name):
    wl = WORKLOADS[name]
    state = wl.setup(7)
    ops = wl.round(state, 1)
    if name == "q-height":  # k = 1 also runs the numeric check
        op = replace(ops[0], label="k1", data=(ops[0].data[0], 1))
    else:  # on F_p, a halvable point: one with a known half
        op = next(op for op in ops if op.data[-1] is not None)
    out = wl.run(state, op)
    assert wl.check(state, op, out) is None
    for wrong in _corruptions(name, out):
        assert wl.check(state, op, wrong) is not None


def test_cold_curves_are_distinct_and_of_the_intended_degree():
    wl = FpCold()
    state = wl.setup(11)
    curves = [op.data[0] for r in range(3) for op in wl.round(state, r)]
    assert len({c.key for c in curves}) == len(curves) == 72
    for c in curves:
        assert FpHalvingField(c.p, Curve(c.a2, c.a4, c.a6)).extension_degree == c.degree


def test_rounds_depend_only_on_the_seed():
    wl = WORKLOADS["codec-decrypt"]
    a, b = wl.setup(5), wl.setup(5)
    assert [op.data[:2] for op in wl.round(a, 3)] == [op.data[:2] for op in wl.round(b, 3)]
    assert [op.data[:2] for op in wl.round(a, 3)] != [op.data[:2] for op in wl.round(wl.setup(6), 3)]


def test_tracer_counts_spans_and_restores_the_modules():
    from halfpoint import halving_fp

    original = halving_fp.ext_sqrt
    wl = WORKLOADS["codec-decrypt"]
    state = wl.setup(1)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert halving_fp.ext_sqrt is not original
        tracer.begin_phase("ops")
        phase = worker.Phase()
        worker._run_round(wl, state, wl.round(state, 0)[:2], phase, tracer)
    finally:
        tracer.uninstall()
    assert halving_fp.ext_sqrt is original
    values = tracing.layer_metrics(tracer, phase.attempted)
    assert values["extfield.mul_us.14.d3"] > 0
    assert values["codec.decrypt.ms_per_bit"] > 0
    assert values["extfield.sqrt_in_tower.calls_per_op"] == 0
    assert values["halving_q.rational_halves.ms.k7"] is None
    roots = [rec for rec in tracer.spans if rec[0] == "op"]
    assert [rec[4] for rec in roots] == [0, 1]
    assert all(rec[3] == -1 for rec in roots)


def test_nearest_rank():
    values = list(range(1, 101))
    assert worker.nearest_rank(values, 90) == (90, 10)
    assert worker.nearest_rank(values[::-1], 50) == (50, 50)


def test_benchmark_json_matches_the_metrics_printed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS) == set(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)
    assert {m["name"] for m in spec["end_to_end"]} == {
        "ops_per_s", "op_ms_p50", "op_ms_tail", "setup_s", "peak_rss_mb"
    }
