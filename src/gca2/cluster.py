"""Cluster variables, standard monomials, reflections and cross-cluster expansion.

Variables x_k for k in Z are generated outward from the initial pair
(x_1, x_2) by the exchange relation

    x_{k+1} * x_{k-1} = P1(x_k)  (k even)      P2(x_k)  (k odd),

each step an exact Laurent division whose success is the runtime witness of
the Laurent phenomenon.  A context memoizes the variables; published entries
are immutable, so concurrent readers are safe once a value is stored.

Cross-cluster expansion rewrites a Laurent polynomial in (x_1, x_2) as a
Laurent polynomial in (x_k, x_{k+1}) by eliminating one variable per step
through the exchange relation; slot 1 of the result holds x_k and slot 2
holds x_{k+1}.
"""

from __future__ import annotations

from .coeffring import CoefficientMode, NotDivisible
from .greedy import greedy_combinatorial
from .laurent import LaurentPoly, NotLaurent, lp_eval_univariate, lp_substitute_ratio


class AlgebraContext:
    """Memoized cluster variables and derived operations for one mode."""

    def __init__(self, mode: CoefficientMode):
        self.mode = mode
        self._memo: dict[int, LaurentPoly] = {
            1: LaurentPoly.var(1),
            2: LaurentPoly.var(2),
        }
        self._u: dict[tuple[int, int], int] = {}

    # -- exchange recursion -------------------------------------------------

    def _exchange_poly(self, k: int) -> tuple:
        """Coefficient tuple of the polynomial applied to x_k, low degree first."""
        return self.mode.polys[k % 2]

    def cluster_variable(self, k: int) -> LaurentPoly:
        """x_k, stepping outward from the memoized range; a failed division
        raises NotDivisible naming the step and the divisor."""
        memo = self._memo
        step = 1 if k > 1 else -1
        j = max(memo) if step == 1 else min(memo)
        while k not in memo:
            num = lp_eval_univariate(self._exchange_poly(j), memo[j])
            try:
                memo[j + step] = num.exact_div(memo[j - step])
            except NotDivisible as exc:
                raise NotDivisible(f"exchange step {j} -> {j + step}, dividing by "
                                   f"x{j - step}: {exc}") from exc
            j += step
        return memo[k]

    def standard_monomial(self, k: int, a1: int, a2: int) -> LaurentPoly:
        """x_{k-1}^[a2]+ * x_k^[-a1]+ * x_{k+1}^[-a2]+ * x_{k+2}^[a1]+."""
        out = LaurentPoly.monomial(0, 0)
        for kk, e in ((k - 1, max(a2, 0)), (k, max(-a1, 0)),
                      (k + 1, max(-a2, 0)), (k + 2, max(a1, 0))):
            if e:
                out = out * self.cluster_variable(kk) ** e
        return out

    # -- Chebyshev bookkeeping ------------------------------------------------

    def _d(self, j: int) -> int:
        return self.mode.d1 if j % 2 else self.mode.d2

    def chebyshev_u(self, k: int, j: int) -> int:
        """Two-parameter Chebyshev value u_{k,j}."""
        if k == -1:
            return 0
        if k == 0:
            return 1
        key = (k, j)
        u = self._u
        if key not in u:
            if k >= 1:
                u[key] = (self._d(j - 1) * self.chebyshev_u(k - 1, j - 1)
                          - self.chebyshev_u(k - 2, j - 2))
            else:
                u[key] = (self._d(j + 1) * self.chebyshev_u(k + 1, j + 1)
                          - self.chebyshev_u(k + 2, j + 2))
        return u[key]

    def greedy_params_of_cluster_variable(self, k: int) -> tuple[int, int]:
        return self.greedy_params_of_cluster_monomial(k, -1, 0)

    def greedy_params_of_cluster_monomial(self, k: int, a1: int, a2: int) -> tuple[int, int]:
        """Greedy parameters of x_k^-a1 * x_{k+1}^-a2 for a1, a2 <= 0."""
        if a1 > 0 or a2 > 0:
            raise ValueError("cluster monomials need a1, a2 <= 0")
        if k == 1:
            return (a1, a2)
        u = self.chebyshev_u
        if k >= 2:
            return (-a1 * u(k - 3, 1) - a2 * u(k - 2, 1),
                    -a1 * u(k - 4, 2) - a2 * u(k - 3, 2))
        return (-a1 * u(-k - 1, 1) - a2 * u(-k - 2, 1),
                -a1 * u(-k, 2) - a2 * u(-k - 1, 2))

    # -- cross-cluster expansion ----------------------------------------------

    def _exchange(self, f: LaurentPoly, var: int, k: int, label: str) -> LaurentPoly:
        """f with x_var replaced by P(x_other) / x_var, P the polynomial applied
        to x_k; a NotLaurent failure is re-raised under label."""
        try:
            return lp_substitute_ratio(f, var, self._exchange_poly(k))
        except NotLaurent as exc:
            raise NotLaurent(f"{label}: {exc}") from exc

    def _step_up(self, f: LaurentPoly, cur: int) -> LaurentPoly:
        # eliminate x_cur using x_{cur+2} x_cur = P(x_{cur+1})
        return self._exchange(f, 1, cur + 1, f"cluster step {cur} -> {cur + 1}").swap_vars()

    def _step_down(self, f: LaurentPoly, cur: int) -> LaurentPoly:
        # eliminate x_{cur+1} using x_{cur+1} x_{cur-1} = P(x_cur)
        return self._exchange(f, 2, cur, f"cluster step {cur} -> {cur - 1}").swap_vars()

    def iter_cluster_expansions(self, f: LaurentPoly, lo: int, hi: int):
        """Yield (k, expansion of f in cluster (x_k, x_{k+1})) for k in [lo, hi]."""
        if lo > hi:
            raise ValueError("empty cluster range")
        g = f
        for k in range(1, hi + 1):
            if k >= lo:
                yield (k, g)
            if k < hi:
                g = self._step_up(g, k)
        g = f
        for k in range(0, lo - 1, -1):
            g = self._step_down(g, k + 1)
            if k <= min(hi, 0):
                yield (k, g)

    def expand_in_cluster(self, f: LaurentPoly, k: int) -> LaurentPoly:
        """f rewritten as a Laurent polynomial in (x_k, x_{k+1})."""
        for kk, g in self.iter_cluster_expansions(f, k, max(k, 1)):
            if kk == k:
                return g
        raise AssertionError("unreachable")

    # -- reflections ------------------------------------------------------------

    def apply_reflection(self, f: LaurentPoly, p: int) -> LaurentPoly:
        """Image of f under the reflection fixing x_p (p = 1 or 2).

        sigma_2 is the exchange that eliminates x_1 through P1(x_2), sigma_1
        the one that eliminates x_2 through P2(x_1), with no swap.
        """
        if p not in (1, 2):
            raise ValueError("reflection index must be 1 or 2")
        return self._exchange(f, 3 - p, p, f"reflection p={p}")

    # -- greedy bridge ------------------------------------------------------------

    def greedy(self, a1: int, a2: int) -> LaurentPoly:
        return greedy_combinatorial(self.mode, a1, a2)
