"""Cluster variables, reflections and cross-cluster expansion.

The cluster (x_k, x_{k+1}) is reached from its neighbours by the exchange
relation

    x_{k+1} * x_{k-1} = P1(x_k)  (k even)      P2(x_k)  (k odd).

One walk steps between clusters: each step eliminates one coordinate
through the exchange relation (an exact univariate division per negative
power, see laurent.lp_substitute_ratio), so a Laurent polynomial in
(x_1, x_2) becomes one in (x_k, x_{k+1}), with x_k in slot 1 and x_{k+1} in
slot 2, the order lp_substitute_ratio returns.  A cluster variable x_k is a
coordinate of cluster k - 1 or k walked back to cluster 1; a step that
leaves a denominator raises NotLaurent, so every computed variable is a
runtime witness of the Laurent phenomenon.  iter_cluster_expansions yields
f in each cluster of a range, the range (k, k) for cluster k alone.  The
positivity probe takes the same walk, but only decides the outermost cluster of each direction, whose
expansion holds most of the walk's terms (lp_substitute_ratio_is_positive):
that step computes its divisions, and a product only for a slice with a
negative coefficient or when P has one, so on a positive expansion in a
numeric mode it packs and multiplies nothing.
"""

from __future__ import annotations

from itertools import chain, islice

from .coeffring import CoefficientMode
from .greedy import greedy_combinatorial, reflect_params
from .laurent import (LaurentPoly, NotLaurent, lp_is_positive, lp_substitute_ratio,
                      lp_substitute_ratio_is_positive)
# Unused here; perfbench/tracer.py patches this name on this module.
from .laurent import lp_eval_univariate  # noqa: F401


class AlgebraContext:
    """Cluster variables, expansions and reflections of one mode, each one walk."""

    def __init__(self, mode: CoefficientMode):
        self.mode = mode

    # -- cluster variables ----------------------------------------------------

    def cluster_variable(self, k: int) -> LaurentPoly:
        """x_k in (x_1, x_2): slot 2 of cluster k - 1 (k >= 2) or slot 1 of
        cluster k (k <= 1), walked back to cluster 1; a step that leaves a
        denominator raises NotLaurent naming the cluster step."""
        start, f = (k - 1, LaurentPoly.var(2)) if k >= 2 else (k, LaurentPoly.var(1))
        for _, f in self._walk(f, start, 1):
            pass
        return f

    def greedy_params_of_cluster_variable(self, k: int) -> tuple[int, int]:
        return self.greedy_params_of_cluster_monomial(k, -1, 0)

    def greedy_params_of_cluster_monomial(self, k: int, a1: int, a2: int) -> tuple[int, int]:
        """Greedy parameters of x_k^-a1 * x_{k+1}^-a2 for a1, a2 <= 0.

        The reflection fixing x1 sends x_j to x_{2-j}, the one fixing x2 sends
        x_j to x_{4-j}, and each sends x[a] to x[reflect_params(a)].  Their
        composite shifts every index by 2, so cluster k is cluster 1 (k odd)
        or cluster 0 (k even) shifted (k-1)//2 or k//2 times; cluster 0 is
        the image of (x_2, x_1) under the first reflection.  Unlike the
        Chebyshev closed form, which drops the max of reflect_params, this
        holds in every type, the periodic finite types and d1*d2 = 0 included.
        """
        if a1 > 0 or a2 > 0:
            raise ValueError("cluster monomials need a1, a2 <= 0")
        mode = self.mode
        if k % 2:
            a, shifts = (a1, a2), (k - 1) // 2
        else:
            a, shifts = reflect_params(mode, 1, a2, a1), k // 2
        first, second = (1, 2) if shifts >= 0 else (2, 1)
        for _ in range(abs(shifts)):
            a = reflect_params(mode, second, *reflect_params(mode, first, *a))
        return a

    # -- cross-cluster expansion ----------------------------------------------

    def _exchange(self, step, f: LaurentPoly, var: int, k: int, label: str):
        """step(f, var, P), P the mode's ExchangePoly applied to x_k (P1 for
        k even, P2 for k odd): f with x_var replaced by P(x_other) / x_var,
        or a verdict on that; a NotLaurent failure is re-raised under label."""
        try:
            return step(f, var, self.mode.polys[k % 2])
        except NotLaurent as exc:
            raise NotLaurent(f"{label}: {exc}") from exc

    def _walk(self, f: LaurentPoly, start: int, stop: int, last=None):
        """Yield (k, f rewritten in cluster (x_k, x_{k+1})) for k from start to
        stop, either way, f given in cluster start.  With last, the step into
        cluster stop yields last(f, var, P) instead of the expansion."""
        k = start
        yield k, f
        while k != stop:
            if k < stop:  # eliminate x_k using x_{k+2} x_k = P(x_{k+1})
                var, j, nxt = 1, k + 1, k + 1
            else:  # eliminate x_{k+1} using x_{k+1} x_{k-1} = P(x_k)
                var, j, nxt = 2, k, k - 1
            step = last if last and nxt == stop else lp_substitute_ratio
            f = self._exchange(step, f, var, j, f"cluster step {k} -> {nxt}")
            k = nxt
            yield k, f

    def _range_walk(self, f: LaurentPoly, lo: int, hi: int, last=None):
        """The steps of _walk (see there for last) for k in [lo, hi], walking
        up from cluster 1 first, then down from it."""
        if lo > hi:
            raise ValueError("empty cluster range")
        down = islice(self._walk(f, 1, min(lo, 1), last), 1, None)  # cluster 1 came up
        for k, g in chain(self._walk(f, 1, max(hi, 1), last), down):
            if lo <= k <= hi:
                yield k, g

    def iter_cluster_expansions(self, f: LaurentPoly, lo: int, hi: int):
        """Yield (k, expansion of f in cluster (x_k, x_{k+1})) for k in [lo, hi]."""
        return self._range_walk(f, lo, hi)

    def positive_in_clusters(self, f: LaurentPoly, lo: int, hi: int) -> dict[int, bool]:
        """{k: lp_is_positive(expansion of f in cluster k)} for k in [lo, hi],
        by the walk of iter_cluster_expansions; the outermost cluster of each
        direction is decided by lp_substitute_ratio_is_positive instead,
        which builds no expansion and multiplies only slices that have a
        negative coefficient (all of them when P has one)."""
        walk = self._range_walk(f, lo, hi, lp_substitute_ratio_is_positive)
        return {k: g if type(g) is bool else lp_is_positive(g) for k, g in walk}

    # -- reflections ------------------------------------------------------------

    def apply_reflection(self, f: LaurentPoly, p: int) -> LaurentPoly:
        """Image of f under the reflection fixing x_p (p = 1 or 2).

        sigma_2 is the exchange that eliminates x_1 through P1(x_2), sigma_1
        the one that eliminates x_2 through P2(x_1), the new variable kept in
        the eliminated one's slot.
        """
        if p not in (1, 2):
            raise ValueError("reflection index must be 1 or 2")
        label = f"reflection p={p}"
        return self._exchange(lp_substitute_ratio, f, 3 - p, p, label).swap_vars()

    # -- greedy bridge ------------------------------------------------------------

    def greedy(self, a1: int, a2: int) -> LaurentPoly:
        return greedy_combinatorial(self.mode, a1, a2)
