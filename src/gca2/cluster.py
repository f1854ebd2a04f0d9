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

from .coeffring import CoefficientMode
from .greedy import greedy_combinatorial
from .laurent import LaurentPoly, lp_eval_univariate, lp_substitute_ratio


class AlgebraContext:
    """Memoized cluster variables and derived operations for one mode."""

    def __init__(self, mode: CoefficientMode, expand_lo: int = -6, expand_hi: int = 8):
        self.mode = mode
        self.expand_lo = expand_lo
        self.expand_hi = expand_hi
        self._memo: dict[int, LaurentPoly] = {
            1: LaurentPoly.var(1),
            2: LaurentPoly.var(2),
        }
        self._u: dict[tuple[int, int], int] = {}

    # -- exchange recursion -------------------------------------------------

    def _exchange_poly(self, k: int) -> tuple:
        """Coefficient list of the polynomial applied to x_k."""
        return self.mode.p1_coeffs() if k % 2 == 0 else self.mode.p2_coeffs()

    def cluster_variable(self, k: int) -> LaurentPoly:
        memo = self._memo
        hi = max(memo)
        while hi < k:
            num = lp_eval_univariate(self._exchange_poly(hi), memo[hi])
            memo[hi + 1] = num.exact_div(memo[hi - 1])
            hi += 1
        lo = min(memo)
        while lo > k:
            num = lp_eval_univariate(self._exchange_poly(lo), memo[lo])
            memo[lo - 1] = num.exact_div(memo[lo + 1])
            lo -= 1
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
        if k >= 2:
            return (self.chebyshev_u(k - 3, 1), self.chebyshev_u(k - 4, 2))
        return (self.chebyshev_u(-k - 1, 1), self.chebyshev_u(-k, 2))

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

    def _step_up(self, f: LaurentPoly, cur: int) -> LaurentPoly:
        # eliminate x_cur using x_{cur+2} x_cur = P(x_{cur+1})
        num = lp_eval_univariate(self._exchange_poly(cur + 1), LaurentPoly.var(2))
        return lp_substitute_ratio(f, 1, num).swap_vars()

    def _step_down(self, f: LaurentPoly, cur: int) -> LaurentPoly:
        # eliminate x_{cur+1} using x_{cur+1} x_{cur-1} = P(x_cur)
        num = lp_eval_univariate(self._exchange_poly(cur), LaurentPoly.var(1))
        return lp_substitute_ratio(f, 2, num).swap_vars()

    def iter_cluster_expansions(self, f: LaurentPoly, lo: int, hi: int):
        """Yield (k, expansion of f in cluster (x_k, x_{k+1})) for k in [lo, hi]."""
        if lo > hi:
            raise ValueError("empty cluster range")
        if lo < self.expand_lo or hi > self.expand_hi:
            raise ValueError(
                f"cluster range [{lo}, {hi}] outside configured "
                f"[{self.expand_lo}, {self.expand_hi}]")
        if hi >= 1:
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
        """Image of f under the reflection fixing x_p (p = 1 or 2)."""
        if p == 2:
            num = lp_eval_univariate(self.mode.p1_coeffs(), LaurentPoly.var(2))
            return lp_substitute_ratio(f, 1, num)
        if p == 1:
            num = lp_eval_univariate(self.mode.p2_coeffs(), LaurentPoly.var(1))
            return lp_substitute_ratio(f, 2, num)
        raise ValueError("reflection index must be 1 or 2")

    # -- greedy bridge ------------------------------------------------------------

    def greedy(self, a1: int, a2: int) -> LaurentPoly:
        return greedy_combinatorial(self.mode, a1, a2)
