"""Command-line front end.

    gca2 --p1 1,1,1 --p2 1,1,1,1 var 5
    gca2 --d1 2 --d2 3 greedy 1 1 --method combinatorial
    gca2 --p1 1,1,1 --p2 1,1,1,1 pairs 5 2
    gca2 --p1 1,1 --p2 1,1 expand poly.json
    gca2 --p1 1,1,1 --p2 1,1,1,1 verify all
    gca2 --p1 1,1,1 --p2 1,1,1,1 bench --cells 4x2,6x3,8x3

Output on stdout is deterministic byte-for-byte across runs; bench writes
its wall-clock timings to stderr so the stdout report stays stable.  Usage
and input errors print one line to stderr and exit 2; an expand input
outside the algebra and verification failures exit 1.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import compat, greedy, laurent, verify
from .cluster import AlgebraContext
from .coeffring import CoefficientMode, coeff_to_json


def _parse_coeff_list(text: str, flag: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise SystemExit(_usage_error(f"{flag} expects comma-separated integers"))


def _usage_error(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 2


def _build_mode(args) -> CoefficientMode:
    numeric = args.p1 is not None or args.p2 is not None
    symbolic = args.d1 is not None or args.d2 is not None
    if numeric and symbolic:
        raise SystemExit(_usage_error("--p1/--p2 and --d1/--d2 are mutually exclusive"))
    if numeric:
        if args.p1 is None or args.p2 is None:
            raise SystemExit(_usage_error("numeric mode needs both --p1 and --p2"))
        try:
            return CoefficientMode.numeric(
                _parse_coeff_list(args.p1, "--p1"),
                _parse_coeff_list(args.p2, "--p2"))
        except ValueError as exc:
            raise SystemExit(_usage_error(str(exc)))
    if symbolic:
        if args.d1 is None or args.d2 is None:
            raise SystemExit(_usage_error("symbolic mode needs both --d1 and --d2"))
        try:
            return CoefficientMode.symbolic(args.d1, args.d2)
        except ValueError as exc:
            raise SystemExit(_usage_error(str(exc)))
    raise SystemExit(_usage_error("choose numeric (--p1/--p2) or symbolic (--d1/--d2) mode"))


def _parse_clusters(text: str) -> tuple[int, int]:
    try:
        lo, hi = (int(part) for part in text.split(".."))
    except ValueError:
        raise SystemExit(_usage_error("--clusters expects LO..HI"))
    if lo > hi:
        raise SystemExit(_usage_error(f"--clusters range {text} is empty (LO > HI)"))
    return lo, hi


def _emit_poly(f, mode, args, extra: dict | None = None) -> None:
    if args.format == "json":
        doc = laurent.to_json(f, mode)
        if extra:
            doc = {**extra, **doc}
        print(json.dumps(doc, separators=(",", ":")))
    else:
        if extra:
            for key, val in extra.items():
                print(f"# {key}: {val}")
        print(laurent.render(f))


def cmd_var(args, mode) -> int:
    ctx = AlgebraContext(mode)
    f = ctx.cluster_variable(args.k)
    _emit_poly(f, mode, args)
    return 0


def cmd_greedy(args, mode) -> int:
    if args.method == "recursive" and not mode.is_numeric:
        return _usage_error("--method recursive needs numeric mode")
    if args.clusters:
        if not mode.is_numeric:
            return _usage_error("--clusters positivity probe needs numeric mode")
        lo, hi = _parse_clusters(args.clusters)
    if args.method == "recursive":
        f = greedy.greedy_recursive(mode, args.a1, args.a2).to_laurent()
    else:
        f = greedy.greedy_combinatorial(mode, args.a1, args.a2)
    extra = {"point": [args.a1, args.a2], "method": args.method}
    if args.clusters:
        ctx = AlgebraContext(mode, expand_lo=min(lo, -6), expand_hi=max(hi, 8))
        verdicts = {str(k): laurent.lp_is_positive(g)
                    for k, g in ctx.iter_cluster_expansions(f, lo, hi)}
        extra["positive_in_clusters"] = dict(sorted(verdicts.items(), key=lambda t: int(t[0])))
    _emit_poly(f, mode, args, extra)
    return 0


def cmd_pairs(args, mode) -> int:
    pairs = compat.enumerate_fast(max(args.a1, 0), max(args.a2, 0), mode.d1, mode.d2)
    for s1, s2 in pairs:
        if args.format == "json":
            print(json.dumps(compat.pair_record(s1, s2), separators=(",", ":")))
        else:
            print(f"s1={','.join(map(str, s1)) or '-'} "
                  f"s2={','.join(map(str, s2)) or '-'} m1={sum(s1)} m2={sum(s2)}")
    return 0


def cmd_expand(args, mode) -> int:
    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        return _usage_error(f"cannot read {args.file}: {exc.strerror}")
    except ValueError as exc:
        return _usage_error(f"{args.file} is not valid JSON: {exc}")
    try:
        f = laurent.from_json(data, mode)
    except (KeyError, TypeError, ValueError) as exc:
        return _usage_error(f"{args.file} is not a Laurent polynomial: {exc}")
    try:
        expansion = greedy.greedy_expand(mode, f)
    except greedy.NotInAlgebra as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    items = sorted(expansion.items())
    if args.format == "json":
        doc = {"expansion": [{"point": [a1, a2],
                              "coeff": coeff_to_json(c, mode.d1, mode.d2)}
                             for (a1, a2), c in items]}
        print(json.dumps(doc, separators=(",", ":")))
    else:
        for (a1, a2), c in items:
            cs = c.render() if hasattr(c, "render") else str(c)
            print(f"x[{a1},{a2}]: {cs}")
    return 0


def cmd_verify(args, mode) -> int:
    try:
        lines, ok = verify.run_suites([args.suite])
    except KeyError:
        return _usage_error(
            f"unknown suite {args.suite!r}; choose from "
            f"{', '.join(list(verify.SUITES) + ['all'])}")
    for line in lines:
        print(line)
    return 0 if ok else 1


def cmd_bench(args, mode) -> int:
    cells = []
    for cell in args.cells.split(","):
        try:
            a1, a2 = (int(part) for part in cell.lower().split("x"))
            if a1 < 0 or a2 < 0:
                raise ValueError("negative cell size")
        except ValueError:
            return _usage_error("--cells expects entries like 8x3")
        cells.append((a1, a2))
    for a1, a2 in cells:
        t0 = time.perf_counter()
        brute = compat.enumerate_bruteforce(a1, a2, mode.d1, mode.d2)
        t1 = time.perf_counter()
        fast = compat.enumerate_fast(a1, a2, mode.d1, mode.d2)
        t2 = time.perf_counter()
        match = "yes" if brute == fast else "NO"
        print(f"cell={a1}x{a2} pairs={len(fast)} match={match}")
        ratio = (t1 - t0) / (t2 - t1) if t2 > t1 else float("inf")
        print(f"cell={a1}x{a2} brute={t1 - t0:.4f}s fast={t2 - t1:.4f}s "
              f"speedup={ratio:.1f}x", file=sys.stderr)
        if match != "yes":
            return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gca2",
        description="Exact computations in rank-2 generalized cluster algebras.")
    parser.add_argument("--p1", help="comma-separated coefficients of P1, low to high")
    parser.add_argument("--p2", help="comma-separated coefficients of P2")
    parser.add_argument("--d1", type=int, help="degree of P1 (symbolic mode)")
    parser.add_argument("--d2", type=int, help="degree of P2 (symbolic mode)")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("var", help="cluster variable x_k")
    p.add_argument("k", type=int)
    p.set_defaults(func=cmd_var)

    p = sub.add_parser("greedy", help="greedy element x[a1,a2]")
    p.add_argument("a1", type=int)
    p.add_argument("a2", type=int)
    p.add_argument("--method", choices=("combinatorial", "recursive"),
                   default="combinatorial")
    p.add_argument("--clusters", help="LO..HI positivity probe range")
    p.set_defaults(func=cmd_greedy)

    p = sub.add_parser("pairs", help="stream compatible pairs on D(a1,a2)")
    p.add_argument("a1", type=int)
    p.add_argument("a2", type=int)
    p.set_defaults(func=cmd_pairs)

    p = sub.add_parser("expand", help="expand a Laurent polynomial over the greedy basis")
    p.add_argument("file")
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("verify", help="run a module invariant suite")
    p.add_argument("suite")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", help="brute-force vs fast enumeration")
    p.add_argument("--cells", default="4x2,6x3,8x3")
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    mode = _build_mode(args)
    return args.func(args, mode)


if __name__ == "__main__":
    sys.exit(main())
