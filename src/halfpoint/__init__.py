"""halfpoint: halving points on elliptic curves.

Given P on y^2 = x^3 + a2*x^2 + a4*x + a6, find every Q with 2Q = P.
Exact over the rationals on fully split curves, complete over prime
fields via extension-field square roots, and numerically over the
complex numbers as an independent check.

The package exports what the command line, the demos and the README use;
the paper's intermediate steps (``halving.sqrt_triple``,
``halving.candidate_xs``, ``complexcheck.cardano_d``, ...) are imported
from their modules.
"""

from .codec import CodecParams, decode_message, decrypt, encode_message, encrypt
from .complexcheck import ComplexBackend, verify_halving_numeric
from .curves import INFINITY, Curve, Point, PointNotOnCurveError, SingularCurveError
from .halving import meeting_x
from .halving_fp import FpHalvingField, brute_force_halves, group_order_bf, halve_via_order
from .halving_q import SplitCurveQ, congruent_curve, is_halvable_q, rational_halves
from .primefield import PrimeField

__version__ = "0.1.0"

__all__ = [
    "CodecParams",
    "ComplexBackend",
    "Curve",
    "FpHalvingField",
    "INFINITY",
    "Point",
    "PointNotOnCurveError",
    "PrimeField",
    "SingularCurveError",
    "SplitCurveQ",
    "brute_force_halves",
    "congruent_curve",
    "decode_message",
    "decrypt",
    "encode_message",
    "encrypt",
    "group_order_bf",
    "halve_via_order",
    "is_halvable_q",
    "meeting_x",
    "rational_halves",
    "verify_halving_numeric",
]
