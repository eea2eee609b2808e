"""One workload run in a fresh process: set up, measure, check, report.

Started by ``run.py`` (``python3 -m perfbench.worker ...`` from the root of
the checkout); prints one JSON record as its last stdout line.

Untraced (``--trace 0``): the setup runs ``SETUP_REPS`` times and its
median counts towards ``setup_s``; then whole rounds of ops run until
``--seconds`` of op time have passed.  Inputs for the next round are made
and the finished round's outputs are checked between rounds, off the
clock.

Traced (``--trace 1``): half the time runs untraced, then the wrappers go
in, the setup runs again traced and the other half runs traced; the
ratio of the two throughputs is the tracing overhead.  Layers the
workload never reaches are then timed by a probe: the setup and one
round of the workload that does reach them.

Host-speed calibration: a shared host can drift in speed by half or more
over tens of seconds (other tenants contend for its cores and caches),
which no run length averages away.  So a fixed kernel is timed before
each round and after every op, and each op's latency is scaled by the
kernel's reference time over the mean of the kernel times on either side
of it; setup repetitions are scaled the same way.  Times are thus
reported in seconds of a host that runs the kernel in its reference
time.  Each workload names the kernel that resembles its own arithmetic
and so slows under contention as it does: the oracle's list-of-ints
polynomial arithmetic (X^p modulo a cubic over F_(2^127 - 1)) for the
F_p workloads, Fraction point doubling for q-height.  Kernels are the
benchmark's own code, so a change to halfpoint moves the calibrated
figures exactly as it moves the raw ones; the raw figures are kept in
the record's diagnostics.
"""

import argparse
import json
import math
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from perfbench import oracle, tracing  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

SETUP_REPS = 3
OUT_DIR = ROOT / ".bench_out"
_KERNEL_CHAIN = oracle.doubling_chain(6, (-3, 9), 5)


def _poly_kernel():
    oracle.x_pow_p_mod_cubic(2 ** 127 - 1, 3, 5, 7)


def _fraction_kernel():
    for _ in range(12):
        oracle.double_q(6, *_KERNEL_CHAIN[4])


# kernel and its reference time: about its time on a 2-vCPU Xeon VM at
# 2.0 GHz under CPython 3.11 when no other tenant is busy
KERNELS = {"poly": (_poly_kernel, 0.0015), "fraction": (_fraction_kernel, 0.0012)}

# which workload's setup and first round reach a layer the others miss
PROBE_FOR_PREFIX = (
    ("extfield.mul_us.14.", "codec-decrypt"),
    ("codec.", "codec-decrypt"),
    ("halving_q.", "q-height"),
    ("exact.", "q-height"),
    ("complexcheck.", "q-height"),
    ("", "fp-warm"),
)


def calibration(wl):
    """The workload's kernel time right now, as a share of its reference time."""
    kernel, ref_s = KERNELS[wl.calibration]
    t0 = time.perf_counter()
    kernel()
    return (time.perf_counter() - t0) / ref_s


class Phase:
    """Latencies, op time and failures of one measured stretch of whole rounds.

    ``latencies`` are calibrated, ``raw_latencies`` as measured.
    """

    def __init__(self, first_op=0):
        self.first_op = first_op
        self.latencies = []
        self.raw_latencies = []
        self.busy = 0.0
        self.raw_busy = 0.0
        self.rounds = 0
        self.failures = []

    @property
    def attempted(self):
        return len(self.latencies)

    @property
    def ops_per_s(self):
        return self.attempted / self.busy

    @property
    def raw_ops_per_s(self):
        return self.attempted / self.raw_busy


def _run_round(wl, state, ops, phase, tracer=None):
    outs = []
    cal_before = calibration(wl)
    for op in ops:
        t0 = time.perf_counter()
        try:
            if tracer is None:
                out = wl.run(state, op)
            else:
                out = tracer.run_op(phase.first_op + phase.attempted, op.label, wl.run, state, op)
        except Exception as exc:  # a failed op is counted, and the run goes on
            if not phase.failures:
                traceback.print_exc(file=sys.stderr)
            out = exc
        dt = time.perf_counter() - t0
        cal_after = calibration(wl)
        scaled = dt * 2 / (cal_before + cal_after)
        cal_before = cal_after
        phase.raw_latencies.append(dt)
        phase.raw_busy += dt
        phase.latencies.append(scaled)
        phase.busy += scaled
        outs.append(out)
    for op, out in zip(ops, outs):
        reason = f"raised {type(out).__name__}" if isinstance(out, Exception) else wl.check(state, op, out)
        if reason:
            phase.failures.append(f"{op.label}: {reason}")
    phase.rounds += 1


def measure(wl, state, first_round, seconds, start_round=0, tracer=None):
    """Whole rounds until ``seconds`` of raw op time; returns the Phase."""
    phase = Phase()
    ops, r = first_round, start_round
    while True:
        _run_round(wl, state, ops, phase, tracer)
        if phase.raw_busy >= seconds:
            return phase
        r += 1
        ops = wl.round(state, r)


def nearest_rank(values, percentile):
    """Nearest-rank percentile of values and the number of samples above it."""
    idx = max(0, math.ceil(percentile / 100 * len(values)) - 1)
    return sorted(values)[idx], len(values) - idx - 1


def _timed_setup(wl, seed):
    """(raw seconds, calibration factor, state, first round) of one setup."""
    cal_before = calibration(wl)
    t0 = time.monotonic()
    state = wl.setup(seed)
    first = wl.round(state, 0)
    dt = time.monotonic() - t0
    factor = 2 / (cal_before + calibration(wl))
    return dt, factor, state, first


def untraced_run(wl, seed, seconds, spawned_at, main_at):
    raw_setup, setup, factors = [], [], []
    for _ in range(SETUP_REPS):
        state = first = None  # let the previous repetition's state go first
        dt, factor, state, first = _timed_setup(wl, seed)
        raw_setup.append(dt)
        setup.append(dt * factor)
        factors.append(factor)
    start_s = main_at - spawned_at
    phase = measure(wl, state, first, seconds)
    setup_s = start_s * factors[0] + statistics.median(setup)
    metrics = _end_to_end(wl, phase.latencies, phase.ops_per_s, setup_s)
    raw = _end_to_end(wl, phase.raw_latencies, phase.raw_ops_per_s, start_s + statistics.median(raw_setup))
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    diagnostics = {
        "fail_ratio": len(phase.failures) / phase.attempted,
        "tail_percentile": wl.tail_percentile,
        "tail_samples_beyond": nearest_rank(phase.latencies, wl.tail_percentile)[1],
        "rounds": phase.rounds,
        "raw_op_seconds": phase.raw_busy,
        "raw": {name: value for name, (value, _) in raw.items()},
        "raw_setup_repetitions_s": raw_setup,
        "process_start_s": start_s,
    }
    return phase, metrics, diagnostics


def _end_to_end(wl, latencies, ops_per_s, setup_s):
    lat = sorted(latencies)
    return {
        "ops_per_s": (ops_per_s, "1/s"),
        "op_ms_p50": (statistics.median(lat) * 1e3, "ms"),
        "op_ms_tail": (nearest_rank(lat, wl.tail_percentile)[0] * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
    }


def _run_probe(name, seed, tracer, first_op):
    wl = WORKLOADS[name]
    state = wl.setup(seed)
    phase = Phase(first_op)
    _run_round(wl, state, wl.round(state, 0), phase, tracer)
    return phase


def traced_run(wl, seed, seconds):
    half = seconds / 2
    _, _, state, first = _timed_setup(wl, seed)
    untraced = measure(wl, state, first, half)

    tracer = tracing.Tracer()
    tracer.install()
    state = wl.setup(seed)
    tracer.begin_phase("ops")
    start = untraced.rounds
    traced = measure(wl, state, wl.round(state, start), half, start_round=start, tracer=tracer)

    tracer.begin_phase("probe")
    values = tracing.layer_metrics(tracer, traced.attempted)
    probes = list(dict.fromkeys(
        next(probe for prefix, probe in PROBE_FOR_PREFIX if name.startswith(prefix))
        for name, value in values.items() if value is None
    ))
    failures = untraced.failures + traced.failures
    attempted = untraced.attempted + traced.attempted
    for probe in probes:
        phase = _run_probe(probe, seed, tracer, attempted)
        failures += phase.failures
        attempted += phase.attempted
    if probes:
        values = tracing.layer_metrics(tracer, traced.attempted)
    tracer.uninstall()

    units = dict(tracing.PER_LAYER)
    values["trace.overhead_ratio"] = untraced.ops_per_s / traced.ops_per_s
    metrics = {name: (values[name], units[name]) for name, _ in tracing.PER_LAYER}
    unreached = [name for name, (value, _) in metrics.items() if value is None]
    if unreached:
        raise RuntimeError(f"layers not reached even by probes: {unreached}")
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{wl.name}-seed{seed}.json"
    tracer.dump(spans_path)
    diagnostics = {
        "untraced_ops_per_s": untraced.ops_per_s,
        "traced_ops_per_s": traced.ops_per_s,
        "raw_untraced_ops_per_s": untraced.raw_ops_per_s,
        "raw_traced_ops_per_s": traced.raw_ops_per_s,
        "probes": probes,
        "spans": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
    }
    return attempted, failures, metrics, diagnostics


def main(argv=None):
    main_at = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, default=None,
                    help="time.monotonic() in the parent just before it started this process")
    args = ap.parse_args(argv)
    spawned_at = main_at if args.spawned_at is None else args.spawned_at
    wl = WORKLOADS[args.workload]

    if args.trace:
        attempted, failures, metrics, diagnostics = traced_run(wl, args.seed, args.seconds)
    else:
        phase, metrics, diagnostics = untraced_run(wl, args.seed, args.seconds, spawned_at, main_at)
        attempted, failures = phase.attempted, phase.failures
    record = {
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "diagnostics": diagnostics,
    }
    print(json.dumps(record))


if __name__ == "__main__":
    main()
