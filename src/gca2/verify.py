"""Machine checks of the structural facts behind the package, CLI-runnable.

Each suite returns a list of (name, ok, detail) triples at a scale meant to
finish in seconds; the pytest suite runs the same properties at the full
contractual scale.  Results are reported in definition order.
"""

from __future__ import annotations

import random
from itertools import product

from . import compat, greedy, multinom
from .cluster import AlgebraContext
from .coeffring import CoeffPoly, CoefficientMode, GeneratorId
from .dyckpath import DyckPath
from .laurent import LaurentPoly, lp_is_positive, lp_to_pointed

Check = tuple[str, bool, str]

ALL_ONES = {
    (1, 1): CoefficientMode.numeric((1, 1), (1, 1)),
    (2, 2): CoefficientMode.numeric((1, 1, 1), (1, 1, 1)),
    (2, 3): CoefficientMode.numeric((1, 1, 1), (1, 1, 1, 1)),
    (0, 2): CoefficientMode.numeric((1,), (1, 1, 1)),
    (3, 0): CoefficientMode.numeric((1, 1, 1, 1), (1,)),
}


def _rand_coeffpoly(rng: random.Random) -> CoeffPoly:
    gens = [GeneratorId("rho", 1), GeneratorId("rho", 2), GeneratorId("vrho", 1)]
    poly = CoeffPoly()
    for _ in range(rng.randint(0, 4)):
        mono = CoeffPoly.const(rng.randint(-5, 5))
        for g in gens:
            e = rng.randint(0, 2)
            if e:
                mono = mono * CoeffPoly.generator(g) ** e
        poly = poly + mono
    return poly


def _rand_laurent(rng: random.Random, symbolic: bool) -> LaurentPoly:
    terms = {}
    for _ in range(rng.randint(1, 5)):
        e = (rng.randint(-3, 3), rng.randint(-3, 3))
        terms[e] = _rand_coeffpoly(rng) if symbolic else rng.randint(-6, 6)
    return LaurentPoly(terms)


def suite_coeffring() -> list[Check]:
    rng = random.Random(2024031)
    out = []
    ok = True
    for _ in range(300):
        a, b, c = (_rand_coeffpoly(rng) for _ in range(3))
        if (a + b) + c != a + (b + c) or (a * b) * c != a * (b * c):
            ok = False
            break
        if a * (b + c) != a * b + a * c:
            ok = False
            break
    out.append(("ring axioms on random triples", ok, "300 cases"))
    ok = True
    for _ in range(300):
        a, b = _rand_coeffpoly(rng), _rand_coeffpoly(rng)
        if not b:
            continue
        if (a * b).exact_div(b) != a:
            ok = False
            break
    out.append(("exact division round trip", ok, "300 cases"))
    ok = True
    for _ in range(300):
        a, b = _rand_coeffpoly(rng), _rand_coeffpoly(rng)
        asg = {g: rng.randint(-3, 3) for g in (a * b).generators() | a.generators() | b.generators()}
        if ((a * b).eval(asg) != a.eval(asg) * b.eval(asg)
                or (a + b).eval(asg) != a.eval(asg) + b.eval(asg)):
            ok = False
            break
    out.append(("evaluation is a ring homomorphism", ok, "300 cases"))
    ok = all(CoeffPoly.rho(t, d) == CoeffPoly.rho(d - t, d)
             for d in range(1, 7) for t in range(d + 1))
    out.append(("palindromic canonicalization", ok, "d <= 6"))
    return out


def suite_laurent() -> list[Check]:
    out = []
    for symbolic in (False, True):
        rng = random.Random(7 + symbolic)
        ok = True
        for _ in range(120):
            f = _rand_laurent(rng, symbolic)
            g = _rand_laurent(rng, symbolic)
            if not g.terms:
                continue
            if (f * g).exact_div(g) != f:
                ok = False
                break
        label = "symbolic" if symbolic else "numeric"
        out.append((f"division round trip ({label})", ok, "120 cases"))
    ctx = AlgebraContext(ALL_ONES[(2, 3)])
    ok = True
    for k in range(1, 6):
        f = ctx.cluster_variable(k)
        if ctx.apply_reflection(ctx.apply_reflection(f, 2), 2) != f:
            ok = False
    out.append(("reflection substitution is an involution", ok, "x1..x5"))
    ok = True
    for k in range(-2, 6):
        f = ctx.cluster_variable(k)
        if lp_to_pointed(f).to_laurent() != f:
            ok = False
    out.append(("pointed form reconstructs", ok, "x-2..x5"))
    return out


def suite_multinom() -> list[Check]:
    out = []
    ok = True
    for n in range(1, 7):
        for r in range(1, 5):
            for parts in multinom.compositions(n, r):
                lhs = multinom.multinomial(n, 0, parts)
                rhs = sum(multinom.multinomial(n - 1, 0, tuple(
                    p - (i == t) for i, p in enumerate(parts)))
                    if parts[t] > 0 else 0 for t in range(r))
                if lhs != rhs:
                    ok = False
    out.append(("Pascal identity", ok, "n <= 6, r <= 4"))
    ok = True
    for n in range(7):
        for r in range(1, 5):
            if sum(multinom.multinomial(n, 0, p)
                   for p in multinom.compositions(n, r)) != r ** n:
                ok = False
    out.append(("row sums are powers", ok, "n <= 6, r <= 4"))
    ok = True
    for d in range(1, 4):
        for n in range(1, 4):
            p = tuple([1] + [d + i for i in range(d)])
            direct = multinom.poly_power_series(p, n, 8)
            inv = multinom.poly_power_series(p, -n, 8)
            conv = [sum(direct[i] * inv[k - i] for i in range(k + 1)) for k in range(9)]
            if conv != [1] + [0] * 8:
                ok = False
    out.append(("truncated inverse convolves to 1", ok, "n <= 3, d <= 3"))
    return out


def suite_dyckpath() -> list[Check]:
    out = []
    ok = True
    for a1 in range(16):
        for a2 in range(16):
            path = DyckPath.build(a1, a2)
            if _staircase(a1, a2) != [path.kinds[p] for p in range(path.n)]:
                ok = False
    out.append(("closed form matches the staircase oracle", ok, "a <= 15"))
    ok = True
    for a1 in range(1, 9):
        for a2 in range(1, 9):
            path = DyckPath.build(a1, a2)
            for j in range(1, a1 + 1):
                for k in range(1, a2 + 1):
                    if path.pos_h[j - 1] < path.pos_v[k - 1]:
                        sub = compat.Subpath(path.h(j), path.v(k))
                        if not a1 * (path.count_v(sub) - 1) < a2 * path.count_h(sub):
                            ok = False
    out.append(("slope bound for prefix paths", ok, "a <= 8"))
    return out


def _staircase(a1: int, a2: int) -> list[str]:
    steps = []
    x = y = 0
    while x < a1 or y < a2:
        if y < a2 and a1 * (y + 1) <= a2 * x:
            steps.append("v")
            y += 1
        else:
            steps.append("h")
            x += 1
    return steps


def suite_compat() -> list[Check]:
    out = []
    ok = True
    for a1, a2 in product(range(4), repeat=2):
        for d1, d2 in ((1, 1), (2, 3)):
            if compat.enumerate_fast(a1, a2, d1, d2) != \
                    compat.enumerate_bruteforce(a1, a2, d1, d2):
                ok = False
    out.append(("fast enumeration equals brute force", ok, "a <= 3"))
    ok = True
    for a1, a2 in product(range(1, 5), repeat=2):
        path = DyckPath.build(a1, a2)
        for s1 in product(range(3), repeat=a1):
            rep = compat.shadow_report_h(path, s1)
            if len(rep.shadow) != min(a2, sum(s1)):
                ok = False
        for s2 in product(range(3), repeat=a2):
            rep = compat.shadow_report_v(path, s2)
            if len(rep.shadow) != min(a1, sum(s2)):
                ok = False
    out.append(("shadow sizes", ok, "a <= 4, values <= 2"))
    ok = True
    for a1, a2 in product(range(1, 4), repeat=2):
        for d1, d2 in ((2, 2),):
            for s1, s2 in compat.enumerate_bruteforce(a1, a2, d1, d2):
                if sum(s1) >= a2 and sum(s2) >= a1:
                    ok = False
                if not compat.support_region(d1, d2, a1, a2, sum(s1), sum(s2)):
                    ok = False
    out.append(("grading bound and support region", ok, "a <= 3"))
    return out


def suite_greedy() -> list[Check]:
    out = []
    ok = True
    for key in ((1, 1), (2, 3)):
        mode = ALL_ONES[key]
        for a1, a2 in product(range(-1, 3), repeat=2):
            if greedy.greedy_recursive(mode, a1, a2).to_laurent() != \
                    greedy.greedy_combinatorial(mode, a1, a2):
                ok = False
    out.append(("recursion equals combinatorial construction", ok, "a in [-1,2]^2"))
    mode = ALL_ONES[(2, 3)]
    ok = True
    for a1, a2 in product(range(-1, 3), repeat=2):
        pf = lp_to_pointed(greedy.greedy_combinatorial(mode, a1, a2))
        if pf.point != (a1, a2):
            ok = False
    out.append(("greedy elements are pointed at their parameters", ok, "a in [-1,2]^2"))
    ctx = AlgebraContext(mode)
    ok = True
    for a1, a2 in product(range(-1, 3), repeat=2):
        f = greedy.greedy_combinatorial(mode, a1, a2)
        for p in (1, 2):
            if ctx.apply_reflection(f, p) != greedy.greedy_combinatorial(
                    mode, *greedy.reflect_params(mode, p, a1, a2)):
                ok = False
    out.append(("reflection symmetry", ok, "a in [-1,2]^2"))
    return out


def suite_cluster() -> list[Check]:
    out = []
    ok = True
    for key, mode in ALL_ONES.items():
        ctx = AlgebraContext(mode)
        try:
            for k in range(-3, 7):
                ctx.cluster_variable(k)
        except Exception:
            ok = False
    sym = AlgebraContext(CoefficientMode.symbolic(2, 3))
    try:
        for k in range(-2, 6):
            sym.cluster_variable(k)
    except Exception:
        ok = False
    out.append(("Laurent phenomenon holds along the recursion", ok,
                "k in [-3,6] numeric, [-2,5] symbolic"))
    ctx = AlgebraContext(ALL_ONES[(2, 3)])
    ok = True
    for k in range(-1, 6):
        params = ctx.greedy_params_of_cluster_variable(k)
        if ctx.cluster_variable(k) != ctx.greedy(*params):
            ok = False
    out.append(("cluster variables are greedy elements", ok, "k in [-1,5]"))
    ok = True
    for a1, a2 in product(range(0, 2), repeat=2):
        f = ctx.greedy(a1 + 1, a2 + 1)
        for k, g in ctx.iter_cluster_expansions(f, -1, 3):
            if not lp_is_positive(g):
                ok = False
    out.append(("positivity probe", ok, "small grid, clusters [-1,3]"))
    return out


SUITES = {
    "coeffring": suite_coeffring,
    "laurent": suite_laurent,
    "multinom": suite_multinom,
    "dyckpath": suite_dyckpath,
    "compat": suite_compat,
    "greedy": suite_greedy,
    "cluster": suite_cluster,
}


def run_suites(names) -> tuple[list[str], bool]:
    """Run the named suites; returns (report lines, all ok)."""
    chosen = list(SUITES) if names == ["all"] else names
    for name in chosen:
        if name not in SUITES:
            raise KeyError(name)
    lines = []
    all_ok = True
    for name in chosen:
        for check, ok, detail in SUITES[name]():
            lines.append(f"{'PASS' if ok else 'FAIL'} {name}: {check} [{detail}]")
            all_ok = all_ok and ok
    return lines, all_ok
