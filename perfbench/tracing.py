"""Spans and counters around halfpoint's modules, for the traced run only.

A span records name, start, end, parent span, op id, phase and the op's
cell label; spans stay in memory and are written out when the run ends.
Self time is a span's duration minus the time its child spans cover.
The hot primitives (``ExtElem.__mul__``, ``Curve._add_raw``) get counters
with accumulated time instead of spans.

Wrappers go on the names a module looks up at call time: ``halving_fp``
imports ``ext_sqrt``, ``sqrt_in_tower`` and ``fp_sqrt`` by name, so those
module attributes are wrapped as well as the defining module's own.
"""

import functools
import json
from collections import defaultdict
from time import perf_counter

from halfpoint import (
    codec,
    complexcheck,
    curves,
    exact,
    extfield,
    halving,
    halving_fp,
    halving_q,
    primefield,
)

PHASES = ("ops", "setup", "probe")

# (owner, attribute, span name) for every call-time lookup of a traced function
SPANNED = (
    (halving_fp.FpHalvingField, "__init__", "halving_fp.init"),
    (halving_fp.FpHalvingField, "halve_with_info", "halving_fp.halve"),
    (halving_fp, "cubic_roots_fp", "primefield.cubic_roots_fp"),
    (extfield, "cubic_roots_fp", "primefield.cubic_roots_fp"),
    (halving_fp, "frobenius", "extfield.frobenius"),
    (halving_fp, "ext_sqrt", "extfield.ext_sqrt"),
    (extfield, "ext_sqrt", "extfield.ext_sqrt"),
    (halving_fp, "sqrt_in_tower", "extfield.sqrt_in_tower"),
    (extfield, "choose_nonresidue", "extfield.choose_nonresidue"),
    (extfield, "tonelli_shanks", "primefield.tonelli_shanks"),
    (primefield, "tonelli_shanks", "primefield.tonelli_shanks"),
    (halving_fp, "fp_sqrt", "primefield.fp_sqrt"),
    (primefield, "fp_sqrt", "primefield.fp_sqrt"),
    (codec, "fp_sqrt", "primefield.fp_sqrt"),
    (halving_fp, "sqrt_triple", "halving.sqrt_triple"),
    (halving, "sqrt_triple", "halving.sqrt_triple"),
    (complexcheck, "sqrt_triple", "halving.sqrt_triple"),
    (halving_fp, "candidate_xs", "halving.candidate_xs"),
    (halving, "candidate_xs", "halving.candidate_xs"),
    (complexcheck, "candidate_xs", "halving.candidate_xs"),
    (halving_fp, "recover_y", "halving.recover_y"),
    (halving, "recover_y", "halving.recover_y"),
    (codec, "decrypt", "codec.decrypt"),
    (halving_q, "rational_halves", "halving_q.rational_halves"),
    (halving_q, "is_halvable_q", "halving_q.is_halvable_q"),
    (halving_q, "rational_sqrt", "exact.rational_sqrt"),
    (exact, "rational_sqrt", "exact.rational_sqrt"),
    (complexcheck, "verify_halving_numeric", "complexcheck.verify_halving_numeric"),
)

# what a span keeps beyond its timing, from (tracer, args, result, pow calls at entry)
EXTRAS = {
    "halving_fp.halve": lambda t, args, res, pow0: res[1]["candidates_in_base"],
    "extfield.choose_nonresidue": lambda t, args, res, pow0: t.counts["pow"] - pow0,
    "complexcheck.verify_halving_numeric": lambda t, args, res, pow0: res,
    "codec.decrypt": lambda t, args, res, pow0: args[1].bit_length(),
}

FP_BITS = (54, 64, 127, 255)
CODEC_BITS = 14
FP_CELLS = tuple(
    f"{bits}.d{d}.{kind}" for bits in FP_BITS for d in (1, 2, 3) for kind in ("halvable", "random")
)
Q_KS = range(1, 8)

# per-op counts, taken from the measured ops alone
COUNT_METRICS = (
    ("extfield.mul.calls_per_op", "count"),
    ("extfield.pow.calls_per_op", "count"),
    ("extfield.inverse.calls_per_op", "count"),
    ("extfield.sqrt_in_tower.calls_per_op", "count"),
    ("primefield.fp_sqrt.calls_per_op", "count"),
    ("curves.add_raw.calls_per_op", "count"),
)

# per-call figures, from the ops if they reach the layer, else from the
# traced setup, else from a probe
CALL_METRICS = (
    *((f"extfield.mul_us.{bits}.d{d}", "us") for bits in FP_BITS for d in (1, 2, 3)),
    (f"extfield.mul_us.{CODEC_BITS}.d3", "us"),
    ("extfield.choose_nonresidue.ms", "ms"),
    ("extfield.choose_nonresidue.pow_calls", "count"),
    ("extfield.ext_sqrt.ms", "ms"),
    ("primefield.tonelli_shanks.ms", "ms"),
    ("primefield.cubic_roots_fp.ms", "ms"),
    ("extfield.frobenius.ms", "ms"),
    ("halving_fp.init_ms", "ms"),
    *((f"halving_fp.halve_ms.{cell}", "ms") for cell in FP_CELLS),
    ("halving.sqrt_triple.ms", "ms"),
    ("halving.candidate_xs.ms", "ms"),
    ("halving.recover_y.ms", "ms"),
    ("halving.candidates_in_base_ratio", "ratio"),
    ("curves.add_raw.us", "us"),
    ("codec.decrypt.ms_per_bit", "ms/bit"),
    *((f"halving_q.rational_halves.ms.k{k}", "ms") for k in Q_KS),
    ("exact.rational_sqrt.ms", "ms"),
    ("complexcheck.verify_halving_numeric.us", "us"),
    ("complexcheck.max_residual", "ratio"),
)

OVERHEAD_METRIC = ("trace.overhead_ratio", "ratio")

PER_LAYER = (*COUNT_METRICS, *CALL_METRICS, OVERHEAD_METRIC)


class Tracer:
    """In-memory spans and per-phase counters; ``install`` patches halfpoint."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []
        self.op = None
        self.label = None
        self.phase = None
        self.counts = None
        self.timers = None
        self.phase_counts = {}
        self.phase_timers = {}
        self.begin_phase("setup")

    def begin_phase(self, phase):
        self.phase = phase
        self.counts = self.phase_counts.setdefault(phase, defaultdict(int))
        self.timers = self.phase_timers.setdefault(phase, defaultdict(float))

    def run_op(self, op_id, label, fn, *args):
        """Call fn(*args) as op ``op_id`` under a root span named ``op``."""
        self.op, self.label = op_id, label
        try:
            return self._span("op", fn)(*args)
        finally:
            self.op = self.label = None

    # -- wrappers ------------------------------------------------------------

    def _span(self, name, fn):
        extra = EXTRAS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, self.phase, self.label, None]
            stack.append(len(spans))
            spans.append(rec)
            pow0 = self.counts["pow"]
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if extra is not None:
                rec[7] = extra(self, args, result, pow0)
            return result

        return wrapper

    def _counted(self, name, fn, timed=False, key=None):
        @functools.wraps(fn)
        def wrapper(*args):
            if not timed:
                self.counts[name] += 1
                return fn(*args)
            t0 = perf_counter()
            result = fn(*args)
            k = key(args[0]) if key else name
            self.timers[k] += perf_counter() - t0
            self.counts[k] += 1
            return result

        return wrapper

    def _patch(self, owner, attr, wrapper):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self):
        for owner, attr, name in SPANNED:
            self._patch(owner, attr, self._span(name, getattr(owner, attr)))
        mul_key = lambda a: ("mul", a.field.p, a.field.degree)
        mul = self._counted("mul", extfield.ExtElem.__mul__, timed=True, key=mul_key)
        self._patch(extfield.ExtElem, "__mul__", mul)
        self._patch(extfield.ExtElem, "__rmul__", mul)
        for cls in (extfield.ExtElem, extfield.TowerElem):
            self._patch(cls, "__pow__", self._counted("pow", cls.__pow__))
            self._patch(cls, "inverse", self._counted("inverse", cls.inverse))
        self._patch(curves.Curve, "_add_raw", self._counted("add_raw", curves.Curve._add_raw, timed=True))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def dump(self, path):
        """Write every span as [name, start, end, parent, op, phase, label, extra]."""
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def _mean(values):
    return sum(values) / len(values) if values else None


def layer_metrics(tracer, n_ops):
    """Every per-layer metric except the tracing overhead; None where unreached."""
    durations = {ph: defaultdict(list) for ph in PHASES}
    self_time = {ph: defaultdict(list) for ph in PHASES}
    extras = {ph: defaultdict(list) for ph in PHASES}
    labelled = {ph: defaultdict(list) for ph in PHASES}
    covered = [0.0] * len(tracer.spans)
    for rec in tracer.spans:
        if rec[3] >= 0:
            covered[rec[3]] += rec[2] - rec[1]
    for i, (name, start, end, _, _, phase, label, extra) in enumerate(tracer.spans):
        durations[phase][name].append(end - start)
        self_time[phase][name].append(end - start - covered[i])
        labelled[phase][(name, label)].append(end - start)
        if extra is not None:
            extras[phase][name].append(extra)

    ops_counts = tracer.phase_counts.get("ops", {})
    ops_spans = durations["ops"]
    per_op = lambda n: n / n_ops if n_ops else 0.0
    out = {
        "extfield.mul.calls_per_op": per_op(sum(v for k, v in ops_counts.items() if _is_mul(k))),
        "extfield.pow.calls_per_op": per_op(ops_counts.get("pow", 0)),
        "extfield.inverse.calls_per_op": per_op(ops_counts.get("inverse", 0)),
        "extfield.sqrt_in_tower.calls_per_op": per_op(len(ops_spans["extfield.sqrt_in_tower"])),
        "primefield.fp_sqrt.calls_per_op": per_op(len(ops_spans["primefield.fp_sqrt"])),
        "curves.add_raw.calls_per_op": per_op(ops_counts.get("add_raw", 0)),
    }

    def per_call(phase):
        counts = tracer.phase_counts.get(phase, {})
        timers = tracer.phase_timers.get(phase, {})
        d, x, lab = durations[phase], extras[phase], labelled[phase]
        ms = lambda name: _scaled(_mean(d[name]), 1e3)

        def mul_us(p_bits, deg):
            keys = [k for k in counts if _is_mul(k) and k[1].bit_length() == p_bits and k[2] == deg]
            n = sum(counts[k] for k in keys)
            return sum(timers[k] for k in keys) / n * 1e6 if n else None

        values = {
            **{f"extfield.mul_us.{b}.d{g}": mul_us(b, g) for b in FP_BITS for g in (1, 2, 3)},
            f"extfield.mul_us.{CODEC_BITS}.d3": mul_us(CODEC_BITS, 3),
            "extfield.choose_nonresidue.ms": ms("extfield.choose_nonresidue"),
            "extfield.choose_nonresidue.pow_calls": _mean(x["extfield.choose_nonresidue"]),
            "extfield.ext_sqrt.ms": ms("extfield.ext_sqrt"),
            "primefield.tonelli_shanks.ms": ms("primefield.tonelli_shanks"),
            "primefield.cubic_roots_fp.ms": ms("primefield.cubic_roots_fp"),
            "extfield.frobenius.ms": ms("extfield.frobenius"),
            "halving_fp.init_ms": ms("halving_fp.init"),
            **{
                f"halving_fp.halve_ms.{cell}": _scaled(_mean(lab[("halving_fp.halve", cell)]), 1e3)
                for cell in FP_CELLS
            },
            "halving.sqrt_triple.ms": ms("halving.sqrt_triple"),
            "halving.candidate_xs.ms": ms("halving.candidate_xs"),
            "halving.recover_y.ms": _scaled(_mean(self_time[phase]["halving.recover_y"]), 1e3),
            "halving.candidates_in_base_ratio": _scaled(_mean(x["halving_fp.halve"]), 1 / 4),
            "curves.add_raw.us": (
                timers["add_raw"] / counts["add_raw"] * 1e6 if counts.get("add_raw") else None
            ),
            "codec.decrypt.ms_per_bit": (
                sum(d["codec.decrypt"]) * 1e3 / sum(x["codec.decrypt"]) if x["codec.decrypt"] else None
            ),
            **{
                f"halving_q.rational_halves.ms.k{k}": _scaled(
                    _mean(lab[("halving_q.rational_halves", f"k{k}")]), 1e3
                )
                for k in Q_KS
            },
            "exact.rational_sqrt.ms": ms("exact.rational_sqrt"),
            "complexcheck.verify_halving_numeric.us": _scaled(
                _mean(d["complexcheck.verify_halving_numeric"]), 1e6
            ),
            "complexcheck.max_residual": max(x["complexcheck.verify_halving_numeric"], default=None),
        }
        return values

    by_phase = [per_call(phase) for phase in PHASES]
    for name, _ in CALL_METRICS:
        out[name] = next((v[name] for v in by_phase if v[name] is not None), None)
    return out


def _is_mul(key):
    # ExtElem multiplications are counted per field, under ("mul", p, degree)
    return isinstance(key, tuple)


def _scaled(value, factor):
    return None if value is None else value * factor
