"""Command-line front end for halving, doubling, halvability and the codec.

Machine output is a single JSON document on stdout with every number as a
decimal string ("25/4" syntax for rationals); diagnostics go to stderr.
Exit codes: 0 success, 1 domain error (singular curve, point off curve,
unhalvable input, ...), 2 usage error.  ``--pretty`` renders tables instead
of JSON.  ``--fixtures`` runs the two built-in reference instances and
prints a verification report.
"""

import argparse
import json
import re
import sys
from fractions import Fraction

from . import codec as codec_mod
from .codec import CodecParams
from .complexcheck import verify_halving_numeric
from .curves import INFINITY, Curve, Point
from .halving_fp import FpHalvingField, halve_via_order
from .halving_q import SplitCurveQ, congruent_curve, is_halvable_q, rational_halves
from .primefield import PrimeField


class UsageError(Exception):
    """Malformed input detected after argparse; maps to exit code 2."""


# -- argument parsing --------------------------------------------------------

def _rational(s):
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {s!r}") from None


def _integer(s):
    try:
        return int(s, 10)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {s!r}") from None


def _key(s):
    # a string of 0s and 1s is a bit string; anything else a decimal integer
    return s if set(s) <= {"0", "1"} else _integer(s)


def _as_int(value, name):
    if isinstance(value, Fraction):
        if value.denominator != 1:
            raise UsageError(f"{name} must be an integer in prime-field mode")
        return int(value)
    return value


_NEGATIVE_VALUE = re.compile(r"-(\d+(/\d+)?|\d*\.?\d+([eE][+-]?\d+)?)\Z")


def _merge_negative_values(argv):
    # argparse mistakes "-35/8" for an option; fold such tokens into the
    # preceding long option as --opt=value
    out = []
    for tok in argv:
        if out and out[-1].startswith("--") and "=" not in out[-1] and _NEGATIVE_VALUE.match(tok):
            out[-1] = f"{out[-1]}={tok}"
        else:
            out.append(tok)
    return out


def _add_split_args(sp):
    sp.add_argument("--e0", type=_rational, required=True,
                    help="first root of the right-hand cubic")
    sp.add_argument("--e1", type=_rational, required=True, help="second root")
    sp.add_argument("--e2", type=_rational, required=True, help="third root")
    sp.add_argument("--x", type=_rational, required=True, help="point x-coordinate")
    sp.add_argument("--y", type=_rational, required=True, help="point y-coordinate")


def _build_parser():
    pretty = argparse.ArgumentParser(add_help=False)
    pretty.add_argument("--pretty", action="store_true", default=argparse.SUPPRESS,
                        help="render tables instead of JSON")

    parser = argparse.ArgumentParser(
        prog="halfpoint",
        description="Halve points on elliptic curves over Q, F_p and C.",
        parents=[pretty],
    )
    parser.add_argument("--fixtures", action="store_true",
                        help="run the built-in reference instances and report")
    sub = parser.add_subparsers(dest="command")

    sp = sub.add_parser("halve-q", parents=[pretty],
                        help="all rational halves on a fully split curve")
    _add_split_args(sp)

    sp = sub.add_parser("halve-fp", parents=[pretty],
                        help="all halves in E(F_p), diagnostics on stderr")
    sp.add_argument("--p", type=_integer, required=True, help="odd prime modulus")
    sp.add_argument("--a4", type=_integer, required=True)
    sp.add_argument("--a6", type=_integer, required=True)
    sp.add_argument("--a2", type=_integer, default=0)
    sp.add_argument("--x", type=_integer, required=True)
    sp.add_argument("--y", type=_integer, required=True)

    sp = sub.add_parser("double", parents=[pretty], help="double a point")
    mode = sp.add_mutually_exclusive_group(required=True)
    mode.add_argument("--p", type=_integer, help="work mod this odd prime")
    mode.add_argument("--rational", action="store_true", help="work over Q")
    sp.add_argument("--a2", type=_rational, default=Fraction(0))
    sp.add_argument("--a4", type=_rational, default=Fraction(0))
    sp.add_argument("--a6", type=_rational, default=Fraction(0))
    sp.add_argument("--x", type=_rational, required=True)
    sp.add_argument("--y", type=_rational, required=True)

    sp = sub.add_parser("halvable-q", parents=[pretty],
                        help="three-squares halvability test over Q")
    _add_split_args(sp)

    sp = sub.add_parser("congruent", parents=[pretty],
                        help="halve a rational point on y^2 = x^3 - n^2 x")
    sp.add_argument("--n", type=_integer, required=True, help="positive integer n")
    sp.add_argument("--x", type=_rational, required=True)
    sp.add_argument("--y", type=_rational, required=True)

    sp = sub.add_parser("codec", parents=[pretty],
                        help="message codec on an odd-order prime-field curve")
    sp.add_argument("action", choices=("encode", "encrypt", "decrypt"))
    sp.add_argument("--p", type=_integer, required=True)
    sp.add_argument("--a4", type=_integer, required=True)
    sp.add_argument("--a6", type=_integer, required=True)
    sp.add_argument("--px", type=_integer, required=True, help="base point x")
    sp.add_argument("--py", type=_integer, required=True, help="base point y")
    sp.add_argument("--order", type=_integer, required=True, help="odd group order")
    sp.add_argument("--pad", type=_integer, default=2, help="decimal padding digits")
    sp.add_argument("--key", type=_key, help="key as a bit string, or a decimal integer")
    sp.add_argument("--message", type=_integer, help="message integer (encode)")
    sp.add_argument("--x", type=_integer, help="point x (encrypt/decrypt)")
    sp.add_argument("--y", type=_integer, help="point y (encrypt/decrypt)")

    sp = sub.add_parser("verify-complex", parents=[pretty],
                        help="numeric halving residual over the complex numbers")
    sp.add_argument("--a4", type=float, required=True)
    sp.add_argument("--a6", type=float, required=True)
    sp.add_argument("--x", type=float, required=True)
    sp.add_argument("--y", type=float, required=True)

    return parser


# -- output ------------------------------------------------------------------

def _fmt(v):
    if isinstance(v, (Fraction, float)):
        return str(v)
    return str(int(v))


def _fmt_point(P):
    if P is INFINITY:
        return "infinity"
    return {"x": _fmt(P.x), "y": _fmt(P.y)}


def _print_pretty(doc, indent=""):
    if isinstance(doc, list):
        rows = [d for d in doc if isinstance(d, dict)]
        if rows and len(rows) == len(doc) and all(list(d) == list(rows[0]) for d in rows):
            cols = list(rows[0])
            widths = [max(len(c), *(len(str(r[c])) for r in rows)) for c in cols]
            print(indent + "  ".join(c.ljust(w) for c, w in zip(cols, widths)))
            for r in rows:
                print(indent + "  ".join(str(r[c]).ljust(w) for c, w in zip(cols, widths)))
        elif doc:
            for item in doc:
                _print_pretty(item, indent)
        else:
            print(indent + "(none)")
        return
    if isinstance(doc, dict):
        width = max((len(k) for k in doc), default=0)
        for k, v in doc.items():
            if isinstance(v, (list, dict)):
                print(f"{indent}{k}:")
                _print_pretty(v, indent + "  ")
            else:
                print(f"{indent}{k.ljust(width)}  {v}")
        return
    print(indent + str(doc))


def _emit(doc, pretty):
    if pretty:
        _print_pretty(doc)
    else:
        json.dump(doc, sys.stdout, indent=2)
        sys.stdout.write("\n")


# -- subcommand handlers -----------------------------------------------------

def _cmd_halve_q(args):
    split = SplitCurveQ(args.e0, args.e1, args.e2)
    halves = rational_halves(split, Point(args.x, args.y))
    return [_fmt_point(Q) for Q in halves]


def _cmd_halve_fp(args):
    curve = Curve(args.a2, args.a4, args.a6)
    ctx = FpHalvingField(args.p, curve)
    halves, info = ctx.halve_with_info(Point(args.x, args.y))
    print(f"cubic factor degrees: {tuple(info['factor_degrees'])}", file=sys.stderr)
    print(f"splitting field degree: {info['extension_degree']}", file=sys.stderr)
    print(f"quadratic tower used: {'yes' if info['tower_used'] else 'no'}", file=sys.stderr)
    if info["candidates_in_base"] is not None:
        print(f"candidate x-values in the base field: {info['candidates_in_base']}",
              file=sys.stderr)
    return [_fmt_point(Q) for Q in halves]


def _cmd_double(args):
    if args.p is not None:
        fp = PrimeField(args.p)
        coeffs = (fp(_as_int(args.a2, "--a2")), fp(_as_int(args.a4, "--a4")),
                  fp(_as_int(args.a6, "--a6")))
        P = Point(_as_int(args.x, "--x"), _as_int(args.y, "--y"))
    else:
        coeffs = (args.a2, args.a4, args.a6)
        P = Point(args.x, args.y)
    curve = Curve(*coeffs).validate()
    return _fmt_point(curve.double(P))


def _cmd_halvable_q(args):
    split = SplitCurveQ(args.e0, args.e1, args.e2)
    res = is_halvable_q(split, Point(args.x, args.y))
    doc = {"halvable": res.halvable}
    if res.witness is not None:
        doc["witness"] = {
            "gamma": _fmt(res.witness.gamma),
            "alpha": _fmt(res.witness.alpha),
            "beta": _fmt(res.witness.beta),
        }
    if res.failing is not None:
        root, diff = res.failing
        doc["failing_root"] = _fmt(root)
        doc["failing_difference"] = _fmt(diff)
    return doc


def _cmd_congruent(args):
    split = congruent_curve(args.n)
    P = Point(args.x, args.y)
    res = is_halvable_q(split, P)
    return {
        "n": str(args.n),
        "halvable": res.halvable,
        "halves": [_fmt_point(Q) for Q in rational_halves(split, P)],
    }


def _cmd_codec(args):
    params = CodecParams(args.p, args.a4, args.a6, args.px, args.py,
                         args.order, pad=args.pad)
    if args.action == "encode":
        if args.message is None:
            raise UsageError("codec encode requires --message")
        Q = codec_mod.encode_message(args.message, params)
        return _fmt_point(Q)
    if args.key is None or args.x is None or args.y is None:
        raise UsageError(f"codec {args.action} requires --key, --x and --y")
    P = Point(params.fp(args.x), params.fp(args.y))
    if args.action == "encrypt":
        return _fmt_point(codec_mod.encrypt(P, args.key, params))
    Q = codec_mod.decrypt(P, args.key, params)
    doc = _fmt_point(Q)
    doc["message"] = str(codec_mod.decode_message(Q, params))
    return doc


def _cmd_verify_complex(args):
    residual = verify_halving_numeric(args.a4, args.a6, Point(args.x, args.y))
    return {"max_residual": str(residual)}


_HANDLERS = {
    "halve-q": _cmd_halve_q,
    "halve-fp": _cmd_halve_fp,
    "double": _cmd_double,
    "halvable-q": _cmd_halvable_q,
    "congruent": _cmd_congruent,
    "codec": _cmd_codec,
    "verify-complex": _cmd_verify_complex,
}


# -- reference instances -----------------------------------------------------

def _run_fixtures():
    failures = 0

    def check(label, ok):
        nonlocal failures
        print(f"  {'ok' if ok else 'FAIL'}: {label}")
        failures += not ok

    print("reference instance: split rational curve y^2 = x^3 - 36x")
    split = SplitCurveQ(0, 6, -6)
    doubled = split.curve.double(Point(-3, 9))
    check("double((-3, 9)) = (25/4, -35/8)",
          doubled == Point(Fraction(25, 4), Fraction(-35, 8)))
    halves = rational_halves(split, doubled)
    check("halves of (25/4, -35/8) = {(18,-72), (-2,-8), (-3,9), (12,36)}",
          set(halves) == {Point(18, -72), Point(-2, -8), Point(-3, 9), Point(12, 36)})
    check("(-3, 9) itself has no rational half",
          rational_halves(split, Point(-3, 9)) == [])

    print("reference instance: 54-bit prime field curve y^2 = x^3 + 17x + 71")
    p = 17000000000000071
    ctx = FpHalvingField(p, Curve(0, 17, 71))
    P = Point(17071, 4145148307074498)
    halves = ctx.halve(P)
    check("exactly one half exists", len(halves) == 1)
    if len(halves) == 1:
        Q = halves[0]
        check("half = (4631223433830370, 13664114850453464)",
              Q == Point(4631223433830370, 13664114850453464))
        check("doubling the half returns the input point",
              ctx.curve.double(Q) == ctx.curve._norm(P))
        m = 16999999816127027
        check("odd-order route returns the same half",
              halve_via_order(ctx.curve, P, m) == Q)

    print("all checks passed" if not failures else f"{failures} check(s) FAILED")
    return 1 if failures else 0


# -- entry points ------------------------------------------------------------

def run(argv):
    """Parse argv (no program name) and execute; returns the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(_merge_negative_values(list(argv)))
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.fixtures:
        return _run_fixtures()
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        doc = _HANDLERS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _emit(doc, getattr(args, "pretty", False))
    return 0


def main(argv=None):
    return run(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
