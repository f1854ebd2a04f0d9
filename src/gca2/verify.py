"""Machine checks of the structural facts behind the package.

Each invariant is one function: its ranges (sizes, seeds, case counts,
systems) are keyword arguments, and it returns the first counterexample, or
None.  ``gca2 verify`` runs each at the scale ``CHECKS`` gives, in seconds and
in table order; the pytest suite calls the same functions at full scale.
"""

from __future__ import annotations

import random
from itertools import product

from . import compat, multinom
from .cluster import AlgebraContext
from .coeffring import CoeffPoly, CoefficientMode, GeneratorId
from .dyckpath import DyckPath, Subpath
from .greedy import greedy_combinatorial, greedy_recursive, reflect_params
from .laurent import LaurentPoly, NotLaurent, lp_to_pointed

ALL_ONES = {(d1, d2): CoefficientMode.numeric((1,) * (d1 + 1), (1,) * (d2 + 1))
            for d1, d2 in ((1, 1), (2, 2), (2, 3), (3, 3), (1, 2), (0, 2), (3, 0))}
GRID_SYSTEMS = ((1, 1), (2, 2), (2, 3), (0, 2), (3, 0))


def square(lo: int, hi: int) -> list[tuple[int, int]]:
    """Every point of [lo, hi]^2, in product order."""
    return list(product(range(lo, hi + 1), repeat=2))


def _rand_coeffpoly(rng: random.Random, terms: int, coeff: int, exp: int) -> CoeffPoly:
    """Up to `terms` monomials c * rho1^i rho2^j vrho1^k, |c| <= coeff, i, j, k <= exp."""
    poly = CoeffPoly()
    for _ in range(rng.randint(0, terms)):
        mono = CoeffPoly.const(rng.randint(-coeff, coeff))
        for g in (GeneratorId("rho", 1), GeneratorId("rho", 2), GeneratorId("vrho", 1)):
            mono = mono * CoeffPoly.generator(g) ** rng.randint(0, exp)
        poly = poly + mono
    return poly


def _rand_laurent(rng: random.Random, symbolic: bool, terms: int, exp: int, coeff: int):
    """1 to `terms` terms with exponents in [-exp, exp] and |coefficient| <= coeff,
    or a _rand_coeffpoly(rng, 4, 5, 2) coefficient if symbolic."""
    out = {}
    for _ in range(rng.randint(1, terms)):
        e = (rng.randint(-exp, exp), rng.randint(-exp, exp))
        out[e] = _rand_coeffpoly(rng, 4, 5, 2) if symbolic else rng.randint(-coeff, coeff)
    return LaurentPoly(out)


def ring_axioms(*, seed, cases, shape):
    rng = random.Random(seed)
    one, zero = CoeffPoly.const(1), CoeffPoly()
    for _ in range(cases):
        a, b, c = (_rand_coeffpoly(rng, *shape) for _ in range(3))
        if ((a + b) + c != a + (b + c) or (a * b) * c != a * (b * c)
                or a + b != b + a or a * b != b * a
                or a * (b + c) != a * b + a * c or a * one != a or a + zero != a):
            return a, b, c


def division_roundtrip(*, ring, seed, cases, shape):
    """(a * b) / b == a for `cases` pairs of _rand_laurent, "numeric" or
    "symbolic" as ring says, a zero b redrawn.  Each b gets a unit corner, the
    term 1 one step below its support in both variables, since exact_div
    divides only by a divisor whose minimal coefficient is 1 or -1."""
    rng = random.Random(seed)
    while cases:
        a, b = (_rand_laurent(rng, ring == "symbolic", *shape) for _ in range(2))
        if b:
            cases -= 1
            m1, m2 = b.min_exponents()
            b = b + LaurentPoly.monomial(m1 - 1, m2 - 1)
            if (a * b).exact_div(b) != a:
                return a, b


def eval_homomorphism(*, seed, cases, shape, values):
    rng = random.Random(seed)
    for _ in range(cases):
        a, b = _rand_coeffpoly(rng, *shape), _rand_coeffpoly(rng, *shape)
        asg = {g: rng.randint(-values, values) for g in a.generators() | b.generators()}
        if ((a * b).eval(asg) != a.eval(asg) * b.eval(asg)
                or (a + b).eval(asg) != a.eval(asg) + b.eval(asg)):
            return a, b, asg


def palindromic_canonical(*, max_d):
    for d in range(1, max_d + 1):
        polys = CoefficientMode.symbolic(d, d).polys
        for t in range(d + 1):
            if any(p[t] != p[d - t] for p in polys):
                return d, t


def reflection_involution(*, mode, ks):
    ctx = AlgebraContext(mode)
    for k in ks:
        f = ctx.cluster_variable(k)
        if ctx.apply_reflection(ctx.apply_reflection(f, 2), 2) != f:
            return k


def pointed_reconstructs(*, mode, ks):
    ctx = AlgebraContext(mode)
    for k in ks:
        f = ctx.cluster_variable(k)
        if lp_to_pointed(f).to_laurent() != f:
            return k


def pascal(*, max_n, max_r):
    m = multinom.multinomial
    for n, r in product(range(1, max_n + 1), range(1, max_r + 1)):
        for parts in multinom.compositions(n, r):
            rhs = sum(m(n - 1, 0, tuple(p - (i == t) for i, p in enumerate(parts)))
                      for t in range(r) if parts[t] > 0)
            if m(n, 0, parts) != rhs:
                return parts


def row_sums(*, max_n, max_r):
    for n, r in product(range(max_n + 1), range(1, max_r + 1)):
        if sum(multinom.multinomial(n, 0, p) for p in multinom.compositions(n, r)) != r ** n:
            return n, r


def truncated_inverse(*, polys, ns, lengths):
    for p, n, num in product(polys, ns, lengths):
        pos = multinom.poly_power_series(p, n, num)
        neg = multinom.poly_power_series(p, -n, num)
        if [sum(pos[i] * neg[k - i] for i in range(k + 1)) for k in range(num + 1)] \
                != [1] + [0] * num:
            return p, n, num


def staircase(a1: int, a2: int) -> list[str]:
    """Independent construction: prefer North whenever it stays weakly below."""
    steps, x, y = [], 0, 0
    while x < a1 or y < a2:
        north = y < a2 and a1 * (y + 1) <= a2 * x
        steps.append("v" if north else "h")
        x, y = (x, y + 1) if north else (x + 1, y)
    return steps


def closed_form(*, max_a):
    for a1, a2 in square(0, max_a):
        if list(DyckPath.build(a1, a2).kinds) != staircase(a1, a2):
            return a1, a2


def slope_bound(*, max_a):
    """a1 (|(h v)_2| - 1) < a2 |(h v)_1| for every h left of v."""
    for a1, a2 in square(1, max_a):
        path = DyckPath.build(a1, a2)
        for j, k in product(range(1, a1 + 1), range(1, a2 + 1)):
            if path.pos_h[j - 1] < path.pos_v[k - 1]:
                sub = Subpath(path.h(j), path.v(k))
                if not a1 * (path.count_v(sub) - 1) < a2 * path.count_h(sub):
                    return a1, a2, j, k


def fast_equals_brute(*, max_a, degrees):
    for (a1, a2), (d1, d2) in product(square(0, max_a), degrees):
        if compat.enumerate_fast(a1, a2, d1, d2) != compat.enumerate_bruteforce(a1, a2, d1, d2):
            return a1, a2, d1, d2


def grading_and_support(*, sizes, degrees):
    """Compatible pairs have |S1| < a2 or |S2| < a1 (a1, a2 >= 1) and lie in the
    support region, whose cases (a) d2 a2 <= a1, (b) d1 a1 <= a2, (c) all occur."""
    cases = set()
    for (a1, a2), (d1, d2) in product(product(sizes, repeat=2), degrees):
        cases.add("a" if d2 * a2 <= a1 else "b" if d1 * a1 <= a2 else "c")
        for s1, s2 in compat.enumerate_bruteforce(a1, a2, d1, d2):
            m1, m2 = sum(s1), sum(s2)
            if (a1 and a2 and m1 >= a2 and m2 >= a1
                    or not compat.support_region(d1, d2, a1, a2, m1, m2)):
                return a1, a2, d1, d2, s1, s2
    return None if cases == {"a", "b", "c"} else ("cases reached", sorted(cases))


# The shadow lemmas are checked for S2 only: their S1 side is the S2 side for
# S1 reversed on D(a2, a1), the path read backwards with East and North
# swapped, and their grids are symmetric in (a1, a2).

def shadow_sizes(*, max_a, max_value):
    """|sh(S2)| = min(a1, |S2|)."""
    for a1, a2 in square(1, max_a):
        path = DyckPath.build(a1, a2)
        for s2 in product(range(max_value + 1), repeat=a2):
            if len(compat.shadow_report_v(path, s2).shadow) != min(a1, sum(s2)):
                return a1, a2, s2


def local_shadows_nest(*, max_a, max_value):
    """The h-edges of any two local shadows of S2 are disjoint or nested."""
    for a1, a2 in square(1, max_a):
        path = DyckPath.build(a1, a2)
        for s2 in product(range(max_value + 1), repeat=a2):
            sets = [{e.index for e in path.subpath_edges(compat.local_shadow_v(path, s2, k))
                     if e.kind == "h"} for k in range(1, a2 + 1)]
            if any(x & y and not (x <= y or y <= x) for x, y in product(sets, repeat=2)):
                return a1, a2, s2


def remote_blocks_match_formula(*, max_a, max_value):
    """rsh(S2)_{k;ell}, for ell the height of an h-edge and k != ell + 1, is
    nonempty iff the block criterion holds, and then rsh_block_size_v long."""
    for a1, a2 in square(1, max_a):
        path = DyckPath.build(a1, a2)
        heights = {path.height(j) for j in range(1, a1 + 1)}
        keys = [(k, ell) for k, ell in product(range(1, a2 + 1), heights) if k != ell + 1]
        for s2 in product(range(max_value + 1), repeat=a2):
            blocks = compat.shadow_report_v(path, s2).rsh_partition
            for k, ell in keys:
                block = blocks.get((k, ell), ())
                try:
                    ok = compat.rsh_block_size_v(path, s2, k, ell) == len(block) > 0
                except compat.CriterionFails:
                    ok = not block
                if not ok:
                    return a1, a2, s2, k, ell


def phi_pullback_negates_f(*, paths, max_value, orders):
    """f_{phi* S2}(v'_i-bar v'_j) = -f_{S2}(v_{a2-j}-bar v_{a2-i}) for all i, j,
    on each D(a1, a2) of paths and each r of orders that phi* accepts."""
    for a1, a2 in paths:
        path = DyckPath.build(a1, a2)
        for s2, r in product(product(range(max_value + 1), repeat=a2), orders):
            try:
                new_path, new_s2 = compat.phi_pullback(path, s2, r)
            except compat.RTooSmall:
                continue
            for i, j in product(range(1, a2 + 1), repeat=2):
                lhs = Subpath(new_path.v(i), new_path.v(j), include_start=False)
                rhs = Subpath(path.v(a2 - j), path.v(a2 - i), include_start=False)
                if compat.fstat_v(new_path, new_s2, lhs) != -compat.fstat_v(path, s2, rhs):
                    return a1, a2, s2, r, i, j


def omega_is_a_block_bijection(*, max_a2, max_r, max_value, max_s1):
    """Omega maps each block of rsh(S2) onto its image in order; on each S1
    supported on rsh(S2) it keeps |S1| and compatibility both ways, and Omega
    of the image brings S1 back.  Paths: a2 <= max_a2, r <= max_r, a1 <= r a2.
    Values: S2 up to min(r, max_value), S1 up to max_value; an S2 with over
    max_s1 such S1 is skipped."""
    span = range(max_value + 1)
    for a2, r in product(range(1, max_a2 + 1), range(1, max_r + 1)):
        for a1 in range(r * a2 + 1):
            path = DyckPath.build(a1, a2)
            for s2 in product(range(min(r, max_value) + 1), repeat=a2):
                report = compat.shadow_report_v(path, s2)
                rsh = sorted(report.remote_shadow)
                if len(span) ** len(rsh) > max_s1:
                    continue
                new_path, new_s2, forth = compat.omega(path, s2, r)
                back_path, _, back = compat.omega(new_path, new_s2, r)
                # label rsh(S2) 1..n left to right: each block's labels land in order
                labels = tuple(rsh.index(j) + 1 if j in rsh else 0 for j in range(1, a1 + 1))
                where = {n: i for i, n in enumerate(forth(labels)) if n}
                for edges in report.rsh_partition.values():
                    landed = [where[labels[j - 1]] for j in edges]
                    if landed != sorted(landed):
                        return a1, a2, r, s2, edges
                for s1 in product(*[span if j in rsh else (0,) for j in range(1, a1 + 1)]):
                    img = forth(s1)
                    if (sum(img) != sum(s1) or back(img) != s1 or back_path != path
                            or compat.is_compatible(path, s1, s2)
                            != compat.is_compatible(new_path, img, new_s2)):
                        return a1, a2, r, s1, s2


def recursion_equals_combinatorial(*, modes, points):
    for mode, (a1, a2) in product(modes, points):
        if greedy_recursive(mode, a1, a2).to_laurent() != greedy_combinatorial(mode, a1, a2):
            return mode, a1, a2


def greedy_pointed(*, modes, points):
    """x[a1, a2] is pointed at (a1, a2), with coefficient 1 there."""
    for mode, (a1, a2) in product(modes, points):
        pf = lp_to_pointed(greedy_combinatorial(mode, a1, a2))
        if pf.point != (a1, a2) or pf.coeffs[(0, 0)] != 1:
            return mode, a1, a2


def reflection_symmetry(*, modes, points):
    for mode in modes:
        ctx = AlgebraContext(mode)
        for (a1, a2), p in product(points, (1, 2)):
            want = greedy_combinatorial(mode, *reflect_params(mode, p, a1, a2))
            if ctx.apply_reflection(greedy_combinatorial(mode, a1, a2), p) != want:
                return mode, a1, a2, p


def laurent_phenomenon(*, systems):
    """No cluster step leaves a denominator; systems are (mode, ks) pairs."""
    for mode, ks in systems:
        ctx = AlgebraContext(mode)
        for k in ks:
            try:
                ctx.cluster_variable(k)
            except NotLaurent:
                return mode, k


def cluster_variables_are_greedy(*, modes, ks):
    for mode in modes:
        ctx = AlgebraContext(mode)
        for k in ks:
            if ctx.cluster_variable(k) != ctx.greedy(*ctx.greedy_params_of_cluster_variable(k)):
                return mode, k


def positivity(*, modes, points, clusters):
    """x[a1, a2] has nonnegative coefficients in each cluster k of the range `clusters`."""
    for mode in modes:
        ctx = AlgebraContext(mode)
        for a in points:
            verdicts = ctx.positive_in_clusters(ctx.greedy(*a), clusters[0], clusters[-1])
            if not all(verdicts.values()) or sorted(verdicts) != list(clusters):
                return mode, a, verdicts


M23, SYM23 = ALL_ONES[(2, 3)], CoefficientMode.symbolic(2, 3)
# (suite, name, detail, check, the arguments `gca2 verify` runs it with)
CHECKS = (
    ("coeffring", "ring axioms on random triples", "300 cases", ring_axioms,
     dict(seed=2024031, cases=300, shape=(4, 5, 2))),
    ("coeffring", "evaluation is a ring homomorphism", "300 cases", eval_homomorphism,
     dict(seed=2024033, cases=300, shape=(4, 5, 2), values=3)),
    ("coeffring", "palindromic canonicalization", "d <= 6", palindromic_canonical, dict(max_d=6)),
    ("laurent", "division round trip (numeric)", "120 cases", division_roundtrip,
     dict(ring="numeric", seed=7, cases=120, shape=(5, 3, 6))),
    ("laurent", "division round trip (symbolic)", "120 cases", division_roundtrip,
     dict(ring="symbolic", seed=8, cases=120, shape=(5, 3, 6))),
    ("laurent", "reflection substitution is an involution", "x1..x5", reflection_involution,
     dict(mode=M23, ks=range(1, 6))),
    ("laurent", "pointed form reconstructs", "x-2..x5", pointed_reconstructs,
     dict(mode=M23, ks=range(-2, 6))),
    ("multinom", "Pascal identity", "n <= 6, r <= 4", pascal, dict(max_n=6, max_r=4)),
    ("multinom", "row sums are powers", "n <= 6, r <= 4", row_sums, dict(max_n=6, max_r=4)),
    ("multinom", "truncated inverse convolves to 1", "n <= 3, d <= 3", truncated_inverse,
     dict(polys=((1, 1), (1, 2, 3), (1, 3, 4, 5)), ns=range(1, 4), lengths=(8,))),
    ("dyckpath", "closed form matches the staircase oracle", "a <= 15", closed_form,
     dict(max_a=15)),
    ("dyckpath", "slope bound for prefix paths", "a <= 8", slope_bound, dict(max_a=8)),
    ("compat", "fast enumeration equals brute force", "a <= 3", fast_equals_brute,
     dict(max_a=3, degrees=((1, 1), (2, 3)))),
    ("compat", "shadow sizes", "a <= 4, values <= 2", shadow_sizes, dict(max_a=4, max_value=2)),
    ("compat", "grading bound and support region", "a <= 3", grading_and_support,
     dict(sizes=range(1, 4), degrees=((2, 2),))),
    ("compat", "local shadows nest or are disjoint", "a <= 4, values <= 2", local_shadows_nest,
     dict(max_a=4, max_value=2)),
    ("compat", "remote-shadow blocks match the size formula", "a <= 3, values <= 3",
     remote_blocks_match_formula, dict(max_a=3, max_value=3)),
    ("compat", "phi* negates the f statistic", "D(3,2), D(4,3), D(2,3), r = 3",
     phi_pullback_negates_f, dict(paths=((3, 2), (4, 3), (2, 3)), max_value=3, orders=(3,))),
    ("compat", "Omega is an order-preserving block bijection", "a2 <= 2, r <= 3, values <= 3",
     omega_is_a_block_bijection, dict(max_a2=2, max_r=3, max_value=3, max_s1=300)),
    ("greedy", "recursion equals combinatorial construction", "a in [-1,2]^2",
     recursion_equals_combinatorial, dict(modes=(ALL_ONES[(1, 1)], M23), points=square(-1, 2))),
    ("greedy", "greedy elements are pointed at their parameters", "a in [-1,2]^2",
     greedy_pointed, dict(modes=(M23,), points=square(-1, 2))),
    ("greedy", "reflection symmetry", "a in [-1,2]^2", reflection_symmetry,
     dict(modes=(M23,), points=square(-1, 2))),
    ("cluster", "Laurent phenomenon holds along the recursion",
     "k in [-3,6] numeric, [-2,5] symbolic", laurent_phenomenon,
     dict(systems=[(ALL_ONES[k], range(-3, 7)) for k in GRID_SYSTEMS] + [(SYM23, range(-2, 6))])),
    ("cluster", "cluster variables are greedy elements", "k in [-1,5]",
     cluster_variables_are_greedy, dict(modes=(M23,), ks=range(-1, 6))),
    ("cluster", "positivity probe", "small grid, clusters [-1,3]", positivity,
     dict(modes=(M23,), points=square(1, 2), clusters=range(-1, 4))),
)
SUITES = tuple(dict.fromkeys(suite for suite, *_ in CHECKS))


def run_suites(names) -> tuple[list[str], bool]:
    """Run the named suites; returns (report lines, all ok)."""
    chosen = SUITES if names == ["all"] else names
    for name in chosen:
        if name not in SUITES:
            raise KeyError(name)
    lines = []
    for name in chosen:
        for suite, check_name, detail, check, kwargs in CHECKS:
            if suite == name:
                try:
                    ok = check(**kwargs) is None
                except Exception:  # a crash fails the check; the traceback goes to stderr
                    import traceback  # only on failure: keeps it out of every CLI start-up
                    traceback.print_exc()
                    ok = False
                lines.append(f"{'PASS' if ok else 'FAIL'} {name}: {check_name} [{detail}]")
    return lines, all(line.startswith("PASS") for line in lines)
