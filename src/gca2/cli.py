"""Command-line front end.

    gca2 --p1 1,1,1 --p2 1,1,1,1 var 5
    gca2 --d1 2 --d2 3 greedy 1 1 --method combinatorial
    gca2 --p1 1,1,1 --p2 1,1,1,1 pairs 5 2
    gca2 --p1 1,1 --p2 1,1 expand poly.json
    gca2 --p1 1,1,1 --p2 1,1,1,1 verify all
    gca2 --p1 1,1,1 --p2 1,1,1,1 bench --cells 4x2,6x3,8x3

Output on stdout is deterministic byte-for-byte across runs; bench writes
its wall-clock timings to stderr so the stdout report stays stable.  Usage
and input errors, argparse's included, raise UsageError; main alone prints
it as one line on stderr and returns 2, in process as well.  An expand
input outside the algebra and verification failures exit 1.  A reader that
closes stdout early (`| head`) ends the command with exit 141, 128 +
SIGPIPE, and nothing on stderr.
Integers print and parse at any length, for the command only.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time

from . import compat, greedy, laurent
from .cluster import AlgebraContext
from .coeffring import CoefficientMode, coeff_to_json


class UsageError(Exception):
    """A usage or input error: main prints it as one error line and returns 2."""


def _parse_coeff_list(text: str, flag: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise UsageError(f"{flag} expects comma-separated integers")


def _build_mode(args) -> CoefficientMode:
    numeric = args.p1 is not None or args.p2 is not None
    symbolic = args.d1 is not None or args.d2 is not None
    if numeric and symbolic:
        raise UsageError("--p1/--p2 and --d1/--d2 are mutually exclusive")
    if not (numeric or symbolic):
        raise UsageError("choose numeric (--p1/--p2) or symbolic (--d1/--d2) mode")
    if numeric and (args.p1 is None or args.p2 is None):
        raise UsageError("numeric mode needs both --p1 and --p2")
    if symbolic and (args.d1 is None or args.d2 is None):
        raise UsageError("symbolic mode needs both --d1 and --d2")
    try:
        if numeric:
            return CoefficientMode.numeric(_parse_coeff_list(args.p1, "--p1"),
                                           _parse_coeff_list(args.p2, "--p2"))
        return CoefficientMode.symbolic(args.d1, args.d2)
    except ValueError as exc:  # the mode's own refusals
        raise UsageError(str(exc))


def _emit_poly(f, mode, args, extra: dict | None = None) -> None:
    if args.format == "json":
        doc = laurent.to_json(f, mode)
        if extra:  # extra's keys come first, then "terms"
            doc = json.dumps(extra, separators=(",", ":"))[:-1] + "," + doc[1:]
        print(doc)
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
        raise UsageError("--method recursive needs numeric mode")
    if args.clusters is not None:
        if not mode.is_numeric:
            raise UsageError("--clusters positivity probe needs numeric mode")
        try:
            lo, hi = (int(part) for part in args.clusters.split(".."))
        except ValueError:
            raise UsageError("--clusters expects LO..HI")
        if lo > hi:
            raise UsageError(f"--clusters range {args.clusters} is empty (LO > HI)")
    if args.method == "recursive":
        f = greedy.greedy_recursive(mode, args.a1, args.a2).to_laurent()
    else:
        f = greedy.greedy_combinatorial(mode, args.a1, args.a2)
    extra = {"point": [args.a1, args.a2], "method": args.method}
    if args.clusters is not None:
        ctx = AlgebraContext(mode)
        verdicts = ctx.positive_in_clusters(f, lo, hi)
        extra["positive_in_clusters"] = {str(k): verdicts[k] for k in sorted(verdicts)}
    _emit_poly(f, mode, args, extra)
    return 0


def cmd_pairs(args, mode) -> int:
    if args.a1 < 0 or args.a2 < 0:
        raise UsageError("pairs expects nonnegative sizes A1 A2")
    a1, d1, json_out = args.a1, mode.d1, args.format == "json"
    head = '{"s1":[' if json_out else "s1=" if a1 else "s1=-"
    zeros = ",".join("0" * a1)  # the text of S1 = 0; h_j's value is at 2j - 2
    digits = [str(n) for n in range(d1 * a1 + 1)]  # every S1 value and every m1
    values = digits[:d1 + 1]
    write = sys.stdout.write
    for s2, free, rsh_idx, valid in compat.s2_structures(a1, args.a2, d1, mode.d2):
        texts, m1s, rest = _walk_block(head, values, zeros, free, rsh_idx, valid)
        s2_text, m2 = ",".join(map(str, s2)), sum(s2)
        if json_out:
            mid, end = f'{rest}],"s2":[{s2_text}],"m1":', f',"m2":{m2}}}\n'
        else:
            mid, end = f"{rest} s2={s2_text or '-'} m1=", f" m2={m2}\n"
        tails = [mid + m1 + end for m1 in digits[:max(m1s, default=0) + 1]]
        write("".join([t + tails[m] for t, m in zip(texts, m1s)]))
    return 0


def _walk_block(head, values, zeros, free, rsh_idx, valid):
    """(texts, m1s, rest): the S1 of one S2 block in numeric order, by one walk.

    valid becomes a trie of dicts {value: child}, keys in increasing value as
    valid is in product order.  A partial record is a text, its running m1
    and its trie node.  The walk visits the free and remote-shadow edges in
    path order: a free edge extends each record by every value, a remote one
    by its node's children, and the forced zeros in between are copied from
    zeros.  Shared prefixes are rendered once; rest is the zeros' tail.
    """
    trie: dict = {}
    for vals in valid:
        node = trie
        for v in vals:
            node = node.setdefault(v, {})
    span = range(len(values))
    last_rsh = rsh_idx[-1] if rsh_idx else 0
    texts, m1s, nodes, at = [head], [0], [trie], 0
    for j in sorted(free + rsh_idx):
        pieces = [zeros[at:2 * j - 2] + v for v in values]
        at = 2 * j - 1
        if j in free:
            texts = [t + p for t in texts for p in pieces]
            m1s = [m + v for m in m1s for v in span]
            if j < last_rsh:
                nodes = [n for n in nodes for _ in span]
        else:
            texts = [t + pieces[v] for t, n in zip(texts, nodes) for v in n]
            m1s = [m + v for m, n in zip(m1s, nodes) for v in n]
            nodes = [c for n in nodes for c in n.values()]
    return texts, m1s, zeros[at:]


def cmd_expand(args, mode) -> int:
    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read {args.file}: {exc.strerror}")
    except (RecursionError, ValueError) as exc:  # RecursionError: nested too deep
        raise UsageError(f"{args.file} is not valid JSON: {exc}")
    try:
        f = laurent.from_json(data, mode)
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"{args.file} is not a Laurent polynomial: {exc}")
    try:
        expansion = greedy.greedy_expand(mode, f)
    except greedy.NotInAlgebra as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    items = sorted(expansion.items())
    if args.format == "json":
        d1, d2, heads = mode.d1, mode.d2, {}
        print('{"expansion":[' + ",".join([f'{{"point":[{a1},{a2}],"coeff":'
                                           f'{coeff_to_json(c, d1, d2, heads)}}}'
                                           for (a1, a2), c in items]) + "]}")
    else:
        for (a1, a2), c in items:
            cs = c.render() if hasattr(c, "render") else str(c)
            print(f"x[{a1},{a2}]: {cs}")
    return 0


def cmd_verify(args, mode) -> int:
    from . import verify  # here, not at the top: keeps it out of every other command's start-up
    try:
        lines, ok = verify.run_suites([args.suite])
    except KeyError:
        raise UsageError(f"unknown suite {args.suite!r}; choose from "
                         f"{', '.join(list(verify.SUITES) + ['all'])}")
    for line in lines:
        print(line)
    return 0 if ok else 1


# bench's budgets on a cell, each checked before any cell runs.  The most
# grading pairs (S1, S2) that it brute-forces: 10x10 on (1,1) takes about
# 3 s; the default 8x3 on (2,3) has 419,904.
_BENCH_MAX_PAIRS = 2 ** 20
# The most edges, a1 + a2, of a cell's path: compat's walk tables hold
# a2 * (a1 + a2) masks of a1 bits, and with degree-0 exchange polynomials a
# cell has one grading pair, so only this bounds them; 128x128 on (0,0)
# takes about 0.02 s and 20 MB, and 2000x2000 ran out of memory.
_BENCH_MAX_EDGES = 256
# The most brute-force work, grading pairs times a1 * a2, since the brute
# force walks the whole path per pair: 10x10 on (1,1) is at the budget, and
# 236x14 on (0,1), whose brute force takes about 4 s, within it.
_BENCH_MAX_WORK = 100 * 2 ** 20


def _bench_refusal(a1: int, a2: int, d1: int, d2: int) -> str | None:
    """The error of the first budget the cell a1 x a2 breaks, or None.  The
    pairs count caps its exponents at 21 (its budget is below 2**21) and the
    edge budget comes before the work's full powers: a long path builds none."""
    if (d1 + 1) ** min(a1, 21) * (d2 + 1) ** min(a2, 21) > _BENCH_MAX_PAIRS:
        return f"cell {a1}x{a2} has over {_BENCH_MAX_PAIRS} grading pairs"
    if a1 + a2 > _BENCH_MAX_EDGES:
        return f"cell {a1}x{a2} has over {_BENCH_MAX_EDGES} edges"
    if (d1 + 1) ** a1 * (d2 + 1) ** a2 * a1 * a2 > _BENCH_MAX_WORK:
        return f"cell {a1}x{a2} has over {_BENCH_MAX_WORK} brute-force steps"
    return None


def cmd_bench(args, mode) -> int:
    cells = []
    for cell in args.cells.split(","):
        try:
            a1, a2 = (int(part) for part in cell.lower().split("x"))
            if a1 < 0 or a2 < 0:
                raise ValueError("negative cell size")
        except ValueError:
            raise UsageError("--cells expects entries like 8x3")
        if refusal := _bench_refusal(a1, a2, mode.d1, mode.d2):
            raise UsageError(refusal)
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


class _Parser(argparse.ArgumentParser):
    def parse_known_args(self, args=None, namespace=None):
        self.argv = sys.argv[1:] if args is None else args  # for error
        return super().parse_known_args(args, namespace)

    def error(self, message):  # subcommand parsers share the class
        if message.startswith("argument command: invalid choice"):
            # an unknown flag before the command leaves its value to be read
            # as the command: name the flag instead
            rest = _mode_flags(_Parser(add_help=False)).parse_known_args(self.argv)[1]
            if rest[0].startswith("-"):
                message = f"unrecognized arguments: {rest[0]}"
        raise UsageError(message)


def _mode_flags(parser: argparse.ArgumentParser) -> argparse.ArgumentParser:
    """parser with the flags before the command."""
    parser.add_argument("--p1", help="comma-separated coefficients of P1, low to high")
    parser.add_argument("--p2", help="comma-separated coefficients of P2")
    parser.add_argument("--d1", type=int, help="degree of P1 (symbolic mode)")
    parser.add_argument("--d2", type=int, help="degree of P2 (symbolic mode)")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = _mode_flags(_Parser(
        prog="gca2",
        description="Exact computations in rank-2 generalized cluster algebras."))
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


# one parser per process, built on the first main call and reused after it
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # no limit on digits; the caller's comes back
    try:
        args = _parser().parse_args(argv)
        code = args.func(args, _build_mode(args))
        sys.stdout.flush()  # so that a closed pipe shows here, not at exit
        return code
    except UsageError as exc:  # the one place a usage or input error is printed
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed stdout: point it at devnull, so that the flush at
        # exit has nowhere to fail, and exit as a shell reports SIGPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    finally:
        sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
