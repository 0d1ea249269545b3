"""Command line front end.

Subcommands: orbit (print one critical orbit), zsigmondy (primitive
divisor report for one parameter), scan (grid sweep to CSV or JSON),
verify (run the self-check suite), bounds (explicit finiteness bounds
for a polynomial), normalize (conjugate an arbitrary polynomial into the
x^2-divisible family).

Exit codes: 0 success, 1 a verification failure, 2 malformed input or a
factorization that cannot be certified, 141 stdout closed by its reader.
"""
from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import time
from fractions import Fraction

from .orbit import DEFAULT_BIT_CAP, OrbitRecord, escape_radius, iterate
from .poly import (
    RatPolynomial, _poly_from_text, critical_points_rational, normalize_to_x2_divisible,
)
from .zsigmondy import bound_report, zsigmondy_set


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r} ({exc})")


def _add_poly_options(sub, required: bool = True):
    group = sub.add_mutually_exclusive_group(required=required)
    group.add_argument("--poly", help="polynomial text, e.g. 'x^3+x^2' or '2*x^4-3*x^2'")
    group.add_argument("--coeffs", help="comma separated coefficients, constant first")


def _decimal_digits(n: int) -> int:
    """Decimal digits of |n|, counted without converting it to a string.

    From the bit length the count is k or k + 1, with k taken from a
    20-digit truncation of log10(2); |n| >= 10^k decides.  Past 4096 bits
    an enclosure of ln|n| - k ln 10 at 64 + bitlen(k) bits decides it
    wherever it leaves out 0, and 10^k is built only where it does not.
    """
    n = abs(n)
    k = max(n.bit_length() - 1, 0) * 30102999566398119521 // 10**20 + 1
    if n.bit_length() > 4096:
        from . import enclosure

        prec = 64 + k.bit_length()
        gap = enclosure.ln(n, prec) - enclosure.ln(10, prec) * k
        if gap.lo > 0 or gap.hi < 0:
            return k + (gap.lo > 0)
    return k + (n >= 10**k)


def _format_value(num: int, den: int) -> str:
    nd, dd = _decimal_digits(num), _decimal_digits(den)
    if (num < 0) + nd + (0 if den == 1 else 1 + dd) <= 60:
        return str(num) if den == 1 else f"{num}/{den}"
    sign = "-" if num < 0 else ""
    return f"{sign}<{nd}-digit>/<{dd}-digit>" if den != 1 else f"{sign}<{nd}-digit>"


def _orbit_preamble(args) -> OrbitRecord:
    """Walk the orbit once for its verdict and window, then print three header lines.

    Every input is checked before the first line is printed.
    """
    g = _poly_from_text(args.poly, args.coeffs)
    orbit = iterate(g, args.c, args.horizon, args.bit_cap)
    print(f"polynomial: {g}")
    print(f"parameter:  c = {args.c}")
    print(f"verdict:    {orbit.decision.verdict.value} ({orbit.decision.witness_text()})")
    return orbit


def _cmd_orbit(args) -> int:
    orbit = _orbit_preamble(args)
    print(f"escape radius: {escape_radius(orbit.poly, orbit.c)}")
    print(f"{'n':>3}  {'ln|value|':>12}  {'deep primes':>11}  value")
    for e in orbit.entries:
        deep = ",".join(f"{p}^{v}" for p, v in sorted(e.deep_valuations.items())) or "-"
        print(f"{e.n:>3}  {e.ln_abs:>12.4f}  {deep:>11}  {_format_value(e.num, e.den)}")
    if orbit.capped_at is not None:
        print(f"stopped at n={orbit.capped_at}: entry exceeds {orbit.bit_cap} bits")
    return 0


def _cmd_zsigmondy(args) -> int:
    orbit = _orbit_preamble(args)
    if any(e.num == 0 for e in orbit.entries):
        print("orbit hits zero inside the window; Zsigmondy set not defined")
        return 0
    report = zsigmondy_set(orbit)
    zset = " ".join(map(str, report.zset)) if report.zset else "(empty)"
    print(f"window:     1..{len(report.verdicts)}")
    print(f"zsigmondy set in window: {zset}")
    print(f"{'n':>3}  {'primitive':>9}  {'witness':>10}  {'residue bits':>12}  {'krieger':>8}")
    krieger = dict(report.krieger_checks)
    for v in report.verdicts:
        wit = str(v.witness_prime) if v.witness_prime is not None else "-"
        print(f"{v.n:>3}  {'yes' if v.has_primitive else 'no':>9}  {wit:>10}"
              f"  {v.stripped_remainder_bits:>12}  {krieger[v.n].value:>8}")
    rins = " ".join(map(str, report.rin_failures)) if report.rin_failures else "(none)"
    print(f"recursive inequality failures: {rins}")
    if orbit.capped_at is not None:
        print(f"window truncated at n={orbit.capped_at} by the {orbit.bit_cap}-bit cap")
    return 0


def _cmd_scan(args) -> int:
    from .harness import ScanConfig, run_scan, write_output  # only scan loads the harness

    if args.config is None:
        if args.poly is None and args.coeffs is None:
            raise ValueError("scan needs --config, or --poly/--coeffs with bounds")
        if args.num_bound is None or args.den_bound is None:
            raise ValueError("scan needs --num-bound and --den-bound")
    # only the options given override the config file or the ScanConfig defaults
    given = {f.name: getattr(args, f.name) for f in dataclasses.fields(ScanConfig)
             if getattr(args, f.name) is not None}
    if args.poly is not None or args.coeffs is not None:
        given["poly"] = _poly_from_text(args.poly, args.coeffs)
    if args.config is not None:
        cfg = dataclasses.replace(ScanConfig.from_file(args.config), **given)
    else:
        cfg = ScanConfig(**given)
    started = time.perf_counter()
    summary = run_scan(cfg)
    seconds = time.perf_counter() - started
    text = write_output(summary)
    if cfg.output is None:
        sys.stdout.write(text)
    counts = " ".join(f"{k}={v}" for k, v in sorted(summary.verdict_counts.items()))
    print(
        f"scanned {len(summary.rows)} parameters ({counts}); "
        f"max zsigmondy window size {summary.empirical_max_zset_size}; "
        f"{seconds:.2f}s",
        file=sys.stderr,
    )
    return 0


def _cmd_verify(args) -> int:
    from .verification import run_all  # only verify loads the self-check suite

    results = run_all(args.check)
    for r in results:
        print(f"ok   {r.name}" if r.ok else f"FAIL {r.name}: {r.detail}")
    good = sum(r.ok for r in results)
    print(f"{good}/{len(results)} checks passed")
    return 0 if good == len(results) else 1


def _cmd_bounds(args) -> int:
    g = _poly_from_text(args.poly, args.coeffs)
    report = bound_report(g, args.height, args.depth)
    print(f"polynomial: {g}")
    print(f"degree {report.degree}, leading coefficient {report.lead}, "
          f"length {report.coefficient_length}")
    print(f"parameter height {report.parameter_height}, preimage depth {report.preimage_depth}")
    print(f"preimage root bound: {report.root_bound}")
    print(f"index bounds: n0 = {report.n0}, n1 = {report.n1}, n2 = {report.n2}")
    print(f"unit equation count at n0: {report.evertse_at_n0:.6e}")
    for name in ("escape", "monomial", "bounded"):
        print(f"growth threshold ({name}): {report.region_thresholds[name]}")
    print(f"largest index bound: {report.max_index_bound()}")
    return 0


def _cmd_normalize(args) -> int:
    f = RatPolynomial.parse(args.poly)
    if args.u is not None:
        u = args.u
    else:
        points = critical_points_rational(f)
        if len(points) != 1:
            listed = ", ".join(map(str, points)) if points else "none found"
            raise ValueError(
                f"need --u: rational critical points of {f}: {listed}"
            )
        u = points[0]
    cert = normalize_to_x2_divisible(f, u)
    if not cert.verify():
        raise ArithmeticError("normalization certificate failed self-verification")
    s, t = cert.shift_constant, cert.scale
    print(f"source: {f}")
    print(f"critical point: u = {cert.u}")
    print(f"target: {cert.target}")
    print(f"shift constant: {s}")
    print(f"scale: {t}")
    offset = f"c + {s}" if s >= 0 else f"c - {-s}"
    divisor = str(t) if t.denominator == 1 else f"({t})"
    print(f"parameter map: c -> ({offset}) / {divisor}")
    print(f"quadratic regime: {'yes' if cert.krieger_regime else 'no'}")
    print(f"zsigmondy count distortion bound: {cert.distortion_bound}")
    if args.c is not None:
        print(f"mapped parameter: {args.c} -> {cert.param_map(args.c)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zsig",
        description="Zsigmondy sets of critical orbits for x^2-divisible polynomials",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    for name, func, horizon, text in (
        ("orbit", _cmd_orbit, 10, "print one critical orbit with denominator data"),
        ("zsigmondy", _cmd_zsigmondy, 8, "primitive divisor report for one parameter"),
    ):
        p = subs.add_parser(name, help=text)
        _add_poly_options(p)
        p.add_argument("--c", type=_fraction, required=True, help="parameter, e.g. 1 or --c=-3/2")
        p.add_argument("--horizon", type=int, default=horizon)
        p.add_argument("--bit-cap", dest="bit_cap", type=int, default=DEFAULT_BIT_CAP)
        p.set_defaults(func=func)

    p = subs.add_parser("scan", help="sweep a rational parameter grid")
    _add_poly_options(p, required=False)
    p.add_argument("--config", help="key = value config file")
    p.add_argument("--num-bound", dest="num_bound", type=int)
    p.add_argument("--den-bound", dest="den_bound", type=int)
    p.add_argument("--horizon", type=int)
    p.add_argument("--bit-cap", dest="bit_cap", type=int)
    p.add_argument("--parallelism", type=int)
    p.add_argument("--format", choices=("csv", "json"))
    p.add_argument("--output", "-o")
    p.set_defaults(func=_cmd_scan)

    p = subs.add_parser("verify", help="run the self-check suite")
    p.add_argument("--check", action="append", help="run only this check (repeatable)")
    p.set_defaults(func=_cmd_verify)

    p = subs.add_parser("bounds", help="explicit finiteness bounds for a polynomial")
    _add_poly_options(p)
    p.add_argument("--L", dest="height", type=_fraction,
                   help="parameter height bound (default: the length)")
    p.add_argument("--N", dest="depth", type=int, default=3,
                   help="preimage depth for the root bound")
    p.set_defaults(func=_cmd_bounds)

    p = subs.add_parser("normalize", help="conjugate a polynomial into the model family")
    p.add_argument("--poly", required=True, help="any rational polynomial text")
    p.add_argument("--u", type=_fraction, help="critical point (default: the unique rational one)")
    p.add_argument("--c", type=_fraction, help="also map this parameter")
    p.set_defaults(func=_cmd_normalize)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        rc = args.func(args)
        sys.stdout.flush()
        return rc
    except BrokenPipeError:
        # the reader left (`| head`): stdout goes to devnull so the flush at exit is quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141  # 128 + SIGPIPE, as a shell reports a process the signal killed
    except (ZeroDivisionError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
