"""The four benchmark workloads.

Each workload is a closed loop with one client.  ``setup(seed)`` builds
and warms whatever the ops reuse; ``round(state, r)`` makes the r-th
round of inputs from the seed alone; ``run(state, op)`` is the timed op;
``check(state, op, out)`` returns None for a correct output or a short
reason.  Every round holds the same mix of cells, so figures taken over
whole rounds do not depend on where the clock stopped.

halfpoint is reached through its modules (``halving_fp.FpHalvingField``,
``codec.decrypt``, ...) at call time, so the traced run's wrappers see
every call.  Numbers of the q-height workload reach 21k bits and must
never be turned into strings: Python refuses int -> str above 4300
digits.
"""

import random
from dataclasses import dataclass

from halfpoint import codec, complexcheck, halving_fp, halving_q
from halfpoint.curves import Curve, Point

from . import oracle

# 54-bit reference prime, Goldilocks (2-adicity 32), Mersenne 2^127 - 1
# (its D = 2 field has 2-adicity 128) and 2^255 - 19: together they take
# every square-root branch (q = 3 mod 4, Tonelli-Shanks at low and at
# high 2-adicity).
PRIMES = (17000000000000071, 2 ** 64 - 2 ** 32 + 1, 2 ** 127 - 1, 2 ** 255 - 19)
DEGREES = (1, 2, 3)
KINDS = ("halvable", "random")


@dataclass(frozen=True)
class Op:
    label: str
    data: tuple


def cell_label(p, degree, kind=None):
    label = f"{p.bit_length()}.d{degree}"
    return label if kind is None else f"{label}.{kind}"


def _fp_op(rng, curve, kind):
    if kind == "halvable":
        P, Q = oracle.halvable_point(rng, curve)
    else:
        P, Q = oracle.random_point(rng, curve), None
    return Op(cell_label(curve.p, curve.degree, kind), (curve, P, Q))


def _check_fp(curve, P, Q, halves):
    pairs = [(int(h.x), int(h.y)) for h in halves]
    if not oracle.check_fp_halves(curve, P, pairs, Q):
        return f"wrong halves on {cell_label(curve.p, curve.degree)}"
    return None


def _new_context(curve):
    return halving_fp.FpHalvingField(curve.p, Curve(curve.a2, curve.a4, curve.a6))


class FpWarm:
    """Steady-state ``halve`` on contexts built and warmed during setup."""

    name = "fp-warm"
    tail_percentile = 95
    calibration = "poly"

    def setup(self, seed):
        rng = random.Random(f"{self.name}:{seed}")
        contexts = {}
        state = {"seed": seed, "contexts": contexts}
        for p in PRIMES:
            for degree in DEGREES:
                curve = oracle.make_curve(rng, p, degree)
                ctx = _new_context(curve)
                # build the lazy tower, which also caches the field's non-residue
                ctx.extension.quadratic_tower()
                contexts[curve] = ctx
                for kind in KINDS:
                    op = _fp_op(rng, curve, kind)
                    reason = self.check(state, op, self.run(state, op))
                    if reason:
                        raise ArithmeticError(f"warm-up failed: {reason}")
        return state

    def round(self, state, r):
        rng = random.Random(f"{self.name}:{state['seed']}:{r}")
        ops = [_fp_op(rng, curve, kind) for curve in state["contexts"] for kind in KINDS]
        rng.shuffle(ops)
        return ops

    def run(self, state, op):
        curve, P, _ = op.data
        return state["contexts"][curve].halve(Point(*P))

    def check(self, state, op, out):
        curve, P, Q = op.data
        return _check_fp(curve, P, Q, out)


class FpCold:
    """A context built for a curve not seen before in the run, then its first ``halve``."""

    name = "fp-cold"
    tail_percentile = 80
    calibration = "poly"

    def setup(self, seed):
        return {"seed": seed, "seen": set()}

    def round(self, state, r):
        rng = random.Random(f"{self.name}:{state['seed']}:{r}")
        ops = []
        for p in PRIMES:
            for degree in DEGREES:
                for kind in KINDS:
                    curve = oracle.make_curve(rng, p, degree)
                    while curve.key in state["seen"]:
                        curve = oracle.make_curve(rng, p, degree)
                    state["seen"].add(curve.key)
                    ops.append(_fp_op(rng, curve, kind))
        rng.shuffle(ops)
        return ops

    def run(self, state, op):
        curve, P, _ = op.data
        ctx = _new_context(curve)
        return ctx.extension_degree, ctx.halve(Point(*P))

    def check(self, state, op, out):
        curve, P, Q = op.data
        degree, halves = out
        if degree != curve.degree:
            return f"extension degree {degree} on {cell_label(curve.p, curve.degree)}"
        return _check_fp(curve, P, Q, halves)


# The reference codec: y^2 = x^3 + x + 1 over F_10007, base (1, 1477) of
# odd order 10065, two padding digits.
CODEC_CURVE = (10007, 1, 1, 1, 1477, 10065)
CODEC_KEY_BITS = 64
CODEC_OPS_PER_ROUND = 10


class CodecDecrypt:
    """``encrypt`` then ``decrypt`` of a (message, 64-bit key) pair."""

    name = "codec-decrypt"
    tail_percentile = 90
    calibration = "poly"

    def setup(self, seed):
        state = {"seed": seed, "params": codec.CodecParams(*CODEC_CURVE)}
        op = self.round(state, -1)[0]
        reason = self.check(state, op, self.run(state, op))
        if reason:
            raise ArithmeticError(f"warm-up failed: {reason}")
        return state

    def round(self, state, r):
        rng = random.Random(f"{self.name}:{state['seed']}:{r}")
        params = state["params"]
        label = cell_label(params.p, 3)
        ops = []
        for _ in range(CODEC_OPS_PER_ROUND):
            T = rng.randrange(params.p // 10 ** params.pad)
            key = rng.getrandbits(CODEC_KEY_BITS) | 1 << (CODEC_KEY_BITS - 1)
            ops.append(Op(label, (T, key, codec.encode_message(T, params))))
        return ops

    def run(self, state, op):
        params = state["params"]
        _, key, M = op.data
        return codec.decrypt(codec.encrypt(M, key, params), key, params)

    def check(self, state, op, out):
        T, _, M = op.data
        pad = state["params"].pad
        if (int(out.x), int(out.y)) != (int(M.x), int(M.y)) or int(out.x) // 10 ** pad != T:
            return "decrypt did not return the message"
        return None


# Congruent curves y^2 = x^3 - n^2 x with n = 6 t^2 and G = (-3 t^2, +-9 t^3):
# the images of (-3, 9) on n = 6, so 2^7 G has a 21k-bit numerator on every
# one of them and rounds cost the same whichever variant the seed picks.
Q_VARIANTS = tuple((t, s) for t in range(1, 17) for s in (1, -1))
Q_MAX_K = 7
Q_NUMERIC_MAX_K = 3  # beyond this, doubles cannot hold the coordinates
Q_NUMERIC_TOLERANCE = 1e-8


class QHeight:
    """``rational_halves`` plus ``is_halvable_q`` on 2^k G, k = 1..7."""

    name = "q-height"
    tail_percentile = 95
    calibration = "fraction"

    def setup(self, seed):
        state = {"seed": seed, "chains": {}}
        # warm up on k = 1 of the first round's curve, so setup costs the same on every seed
        op = next(op for op in self.round(state, 0) if op.data[1] == 1)
        reason = self.check(state, op, self.run(state, op))
        if reason:
            raise ArithmeticError(f"warm-up failed: {reason}")
        return state

    def _variant(self, state, variant):
        if variant not in state["chains"]:
            t, s = variant
            n = 6 * t * t
            chain = oracle.doubling_chain(n, (-3 * t * t, s * 9 * t ** 3), Q_MAX_K)
            state["chains"][variant] = (n, halving_q.congruent_curve(n), chain)
        return state["chains"][variant]

    def round(self, state, r):
        rng = random.Random(f"{self.name}:{state['seed']}:{r}")
        variant = rng.choice(Q_VARIANTS)
        self._variant(state, variant)
        ops = [Op(f"k{k}", (variant, k)) for k in range(1, Q_MAX_K + 1)]
        rng.shuffle(ops)
        return ops

    def run(self, state, op):
        variant, k = op.data
        n, split, chain = state["chains"][variant]
        P = Point(*chain[k])
        halves = halving_q.rational_halves(split, P)
        halvable = halving_q.is_halvable_q(split, P).halvable
        residual = None
        if k <= Q_NUMERIC_MAX_K:
            residual = complexcheck.verify_halving_numeric(
                -n * n, 0, Point(float(P.x), float(P.y))
            )
        return halves, halvable, residual

    def check(self, state, op, out):
        variant, k = op.data
        n, _, chain = state["chains"][variant]
        halves, halvable, residual = out
        if not halvable:
            return f"is_halvable_q said no at k = {k}"
        if not oracle.check_q_halves(n, chain[k], [tuple(h) for h in halves], chain[k - 1]):
            return f"wrong halves at k = {k}"
        if residual is not None and not residual <= Q_NUMERIC_TOLERANCE:
            return f"numeric residual above tolerance at k = {k}"
        return None


WORKLOADS = {w.name: w for w in (FpWarm(), FpCold(), CodecDecrypt(), QHeight())}
