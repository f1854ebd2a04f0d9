"""The benchmark workloads: seeded job lists and independent oracles.

A workload owns a fixed list of jobs.  A CLI job is an argv for
``gca2.cli.main``; a library job is a zero-argument callable.  The seed fixes
the numeric systems' inner coefficients (1..3), the ``expand`` inputs and the
oracles' evaluation points; the job shapes never depend on it, so every seed
asks for comparable work.

Each oracle shares no code path with the route it checks: cluster variables
are re-derived by the exchange recursion in ``fractions.Fraction``, the two
greedy routes are compared with each other, pair counts come from the
greedy recursion on the all-ones system, and ``expand`` must give back the
coefficients its input was built from.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction


class Job:
    __slots__ = ("label", "argv", "call")

    def __init__(self, label, argv=None, call=None):
        self.label = label
        self.argv = argv
        self.call = call


# -- shared helpers -----------------------------------------------------------

def _numeric(p1, p2):
    return ["--p1", ",".join(map(str, p1)), "--p2", ",".join(map(str, p2))]


def _specialize(gens, d, t):
    """Value of coefficient t of a degree-d palindromic P under gens."""
    if t == 0 or t == d:
        return 1
    return gens[min(t, d - t)]


def _poly_from_gens(gens, d):
    return tuple(_specialize(gens, d, t) for t in range(d + 1))


def _eval_coeff(records, rho, vrho, d1, d2):
    """Integer value of a coefficient JSON record list under a specialization."""
    total = 0
    for rec in records:
        v = int(rec["n"])
        for t, e in enumerate(rec.get("rho", ()), start=1):
            if e:
                v *= _specialize(rho, d1, t) ** e
        for t, e in enumerate(rec.get("vrho", ()), start=1):
            if e:
                v *= _specialize(vrho, d2, t) ** e
        total += v
    return total


def _terms_at(doc, rho, vrho, d1, d2):
    """{(e1, e2): integer coefficient} of a Laurent polynomial JSON document."""
    return {tuple(t["e"]): _eval_coeff(t["c"], rho, vrho, d1, d2) for t in doc["terms"]}


class TextCollector:
    """Keeps everything a job wrote, for oracles that parse whole documents."""

    def __init__(self):
        self.parts = []

    def feed(self, chunk):
        self.parts.append(chunk)

    def result(self):
        return "".join(self.parts)


class Workload:
    """Base: subclasses set name and build self.jobs.

    CLI workloads start every job with cold greedy caches, as a fresh CLI
    process would; a library workload may share them across a pass.
    """

    cli = True
    clear_per_job = True

    def capture(self, index):
        return TextCollector()

    def verify(self, results):
        """One bool per job: its verification-pass result passed the oracle."""
        raise NotImplementedError

    def corrupt(self, results):
        """(index, results with that job's output damaged) for the self-check."""
        raise NotImplementedError

    def self_check(self, results, rerun):
        """True when the oracle rejects a deliberately corrupted output."""
        i, bad = self.corrupt(results)
        return not self.verify(bad)[i]

    def setup_code(self):
        """Python run by the set-up probe after ``import gca2``: first job ready."""
        return f"import gca2.cli\ngca2.cli.build_parser().parse_args({self.jobs[0].argv!r})\n"


def _load(text):
    """Parsed JSON document of a job's output, or None if there is none."""
    try:
        return json.loads(text)
    except (TypeError, ValueError):
        return None


def _bump_first_coefficient(text):
    doc = json.loads(text)
    rec = doc["terms"][0]["c"][0]
    rec["n"] = str(int(rec["n"]) + 1)
    return json.dumps(doc, separators=(",", ":")) + "\n"


# -- exchange -------------------------------------------------------------------

def exchange_chain(p1, p2, x1, x2, k):
    """x_k by the exchange recursion in Fractions, directly from P1 and P2."""
    def P(j, z):  # polynomial applied to x_j
        acc = Fraction(0)
        for c in reversed(p1 if j % 2 == 0 else p2):
            acc = acc * z + c
        return acc

    xs = {1: x1, 2: x2}
    hi, lo = 2, 1
    while hi < k:
        xs[hi + 1] = P(hi, xs[hi]) / xs[hi - 1]
        hi += 1
    while lo > k:
        xs[lo - 1] = P(lo, xs[lo]) / xs[lo + 1]
        lo -= 1
    return xs[k]


def _eval_laurent(terms, x1, x2):
    pw1, pw2 = {}, {}
    total = Fraction(0)
    for (e1, e2), c in terms.items():
        if e1 not in pw1:
            pw1[e1] = x1 ** e1
        if e2 not in pw2:
            pw2[e2] = x2 ** e2
        total += c * pw1[e1] * pw2[e2]
    return total


class Exchange(Workload):
    """CLI ``var K`` jobs, one fresh AlgebraContext each."""

    name = "exchange"

    def __init__(self, gca2, seed):
        rng = random.Random(f"exchange:{seed}")
        a, b, c, e = (rng.randint(1, 3) for _ in range(4))
        # (tag, P1, P2, K range); numeric systems are seeded, symbolic ones
        # are specialised by the oracle at seeded generator values
        systems = [
            ("num23", (1, a, 1), (1, b, b, 1), range(-5, 9)),
            ("num33", (1, c, c, 1), (1, e, e, 1), range(-3, 8)),
            ("sym23", 2, 3, range(-3, 7)),
            ("sym22", 2, 2, range(-5, 9)),
        ]
        self.jobs, self.spec = [], []
        for tag, p1, p2, ks in systems:
            if tag.startswith("sym"):
                d1, d2 = p1, p2
                argv = ["--d1", str(d1), "--d2", str(d2)]
                rho = {t: rng.randint(1, 9) for t in range(1, d1 // 2 + 1)}
                vrho = {t: rng.randint(1, 9) for t in range(1, d2 // 2 + 1)}
                P1, P2 = _poly_from_gens(rho, d1), _poly_from_gens(vrho, d2)
            else:
                d1, d2 = len(p1) - 1, len(p2) - 1
                argv = _numeric(p1, p2)
                rho = vrho = {}
                P1, P2 = p1, p2
            for k in ks:
                x1 = Fraction(rng.randint(1, 97), rng.randint(1, 97))
                x2 = Fraction(rng.randint(1, 97), rng.randint(1, 97))
                self.jobs.append(Job(f"{tag}:var{k}", argv + ["--format", "json", "var", str(k)]))
                self.spec.append((d1, d2, P1, P2, rho, vrho, x1, x2, k))

    def _ok(self, i, text):
        d1, d2, P1, P2, rho, vrho, x1, x2, k = self.spec[i]
        doc = _load(text)
        try:
            got = _eval_laurent(_terms_at(doc, rho, vrho, d1, d2), x1, x2)
        except (KeyError, TypeError, ValueError):
            return False
        return got == exchange_chain(P1, P2, x1, x2, k)

    def verify(self, results):
        return [r is not None and self._ok(i, r) for i, r in enumerate(results)]

    def corrupt(self, results):
        i = min((j for j, r in enumerate(results) if r), key=lambda j: len(results[j]))
        bad = list(results)
        bad[i] = _bump_first_coefficient(results[i])
        return i, bad


# -- greedy ---------------------------------------------------------------------

GREEDY_POINTS = [(2, 2), (3, 2), (4, 3), (5, 4), (6, 4), (8, 5), (5, 7), (4, 6), (7, 3), (3, 5)]
SYMBOLIC_GREEDY_POINTS = [(2, 2), (3, 2), (4, 3), (5, 4), (6, 4), (4, 6), (7, 3), (3, 5)]
PROBE = "--clusters=-2..4"
PROBE_KEYS = [str(k) for k in range(-2, 5)]


class Greedy(Workload):
    """CLI ``greedy`` jobs in pairs: recursive with positivity probe, and combinatorial."""

    name = "greedy"

    def __init__(self, gca2, seed):
        rng = random.Random(f"greedy:{seed}")
        a, b, c, e, f, g = (rng.randint(1, 3) for _ in range(6))
        systems = [("num23", (1, a, 1), (1, b, b, 1)),
                   ("num33", (1, c, c, 1), (1, e, e, 1)),
                   ("num14", (1, 1), (1, f, g, f, 1))]
        self.jobs = []
        self.pairs = []     # (recursive job, combinatorial job, point)
        self.symbolic = []  # (symbolic job, numeric recursive job, rho, vrho)
        rec_index = {}
        for tag, p1, p2 in systems:
            argv = _numeric(p1, p2) + ["--format", "json", "greedy"]
            for a1, a2 in GREEDY_POINTS:
                pt = [str(a1), str(a2)]
                rec_index[(tag, a1, a2)] = len(self.jobs)
                self.pairs.append((len(self.jobs), len(self.jobs) + 1, [a1, a2]))
                self.jobs.append(Job(f"{tag}:rec{a1},{a2}", argv + pt + ["--method", "recursive", PROBE]))
                self.jobs.append(Job(f"{tag}:comb{a1},{a2}", argv + pt + ["--method", "combinatorial"]))
        # symbolic (2,3) specialised at num23's coefficients must match it
        for a1, a2 in SYMBOLIC_GREEDY_POINTS:
            self.symbolic.append((len(self.jobs), rec_index[("num23", a1, a2)], {1: a}, {1: b}))
            self.jobs.append(Job(f"sym23:comb{a1},{a2}",
                                 ["--d1", "2", "--d2", "3", "--format", "json", "greedy",
                                  str(a1), str(a2), "--method", "combinatorial"]))

    def verify(self, results):
        docs = [_load(r) for r in results]
        ok = [False] * len(results)
        for ri, ci, point in self.pairs:
            rec, comb = docs[ri] or {}, docs[ci] or {}
            probe = rec.get("positive_in_clusters", {})
            ok[ri] = ok[ci] = (
                bool(rec.get("terms")) and rec["terms"] == comb.get("terms")
                and rec.get("point") == comb.get("point") == point
                and sorted(probe, key=int) == PROBE_KEYS
                and all(v is True for v in probe.values()))
        for si, ri, rho, vrho in self.symbolic:
            if docs[si] is None or not ok[ri]:
                continue
            try:
                ok[si] = (_terms_at(docs[si], rho, vrho, 2, 3)
                          == _terms_at(docs[ri], {}, {}, 2, 3))
            except (KeyError, TypeError, ValueError):
                pass
        return ok

    def corrupt(self, results):
        i = self.pairs[0][1]
        bad = list(results)
        bad[i] = _bump_first_coefficient(results[i])
        return i, bad


# -- pairs ----------------------------------------------------------------------

class PairsChecker:
    """Streams `pairs` output: per-(m1, m2) counts and strict (S2, S1) order."""

    def __init__(self, a1, a2, d1, d2):
        self.shape = (a1, a2, d1, d2)
        self.buf = ""
        self.prev = None
        self.counts = {}
        self.ok = True

    def feed(self, chunk):
        self.buf += chunk
        if "\n" not in self.buf:
            return
        *lines, self.buf = self.buf.split("\n")
        for line in lines:
            self._line(line)

    def _line(self, line):
        a1, a2, d1, d2 = self.shape
        try:
            if line.startswith("{"):
                rec = json.loads(line)
                s1, s2, m1, m2 = tuple(rec["s1"]), tuple(rec["s2"]), rec["m1"], rec["m2"]
            else:
                f = dict(part.split("=", 1) for part in line.split(" "))
                s1, s2 = (tuple(int(v) for v in f[k].split(",")) if f[k] != "-" else ()
                          for k in ("s1", "s2"))
                m1, m2 = int(f["m1"]), int(f["m2"])
        except (ValueError, KeyError):
            self.ok = False
            return
        key = (s2, s1)
        if (len(s1) != a1 or len(s2) != a2 or m1 != sum(s1) or m2 != sum(s2)
                or any(not 0 <= v <= d1 for v in s1) or any(not 0 <= v <= d2 for v in s2)
                or (self.prev is not None and key <= self.prev)):
            self.ok = False
        self.prev = key
        self.counts[(m1, m2)] = self.counts.get((m1, m2), 0) + 1

    def result(self):
        if self.buf:
            self._line(self.buf)
            self.buf = ""
        return (self.ok, self.counts)


PAIRS_CELLS = [  # (a1, a2, d1, d2, format)
    (10, 4, 2, 3, "json"),   # output-heavy
    (6, 6, 2, 3, "text"),    # pruning-heavy
    (7, 5, 3, 3, "text"),
]


class Pairs(Workload):
    """CLI ``pairs`` cells streamed into the sink; inputs do not depend on the seed."""

    name = "pairs"

    def __init__(self, gca2, seed):
        self.gca2 = gca2
        self.jobs = [Job(f"pairs{a1}x{a2}:d{d1}{d2}:{fmt}",
                         ["--d1", str(d1), "--d2", str(d2), "--format", fmt, "pairs", str(a1), str(a2)])
                     for a1, a2, d1, d2, fmt in PAIRS_CELLS]

    def capture(self, index):
        a1, a2, d1, d2, _ = PAIRS_CELLS[index]
        return PairsChecker(a1, a2, d1, d2)

    def expected_counts(self, index):
        """Bracket identity: pair counts are the all-ones greedy coefficients."""
        a1, a2, d1, d2, _ = PAIRS_CELLS[index]
        mode = self.gca2.CoefficientMode.numeric((1,) * (d1 + 1), (1,) * (d2 + 1))
        table = self.gca2.greedy.greedy_recursive(mode, a1, a2)
        return {(q, p): c for (p, q), c in table.coeffs.items()}

    def verify(self, results):
        out = []
        for i, r in enumerate(results):
            out.append(r is not None and r[0] and r[1] == self.expected_counts(i))
        return out

    def self_check(self, results, rerun):
        """Re-run the smallest cell and drop one record from its stream."""
        i = 1
        lines = rerun(i, TextCollector()).splitlines(keepends=True)
        del lines[len(lines) // 2]
        checker = self.capture(i)
        for line in lines:
            checker.feed(line)
        bad = list(results)
        bad[i] = checker.result()
        return not self.verify(bad)[i]


# -- expand ---------------------------------------------------------------------

EXPAND_SYSTEMS = [  # (tag, d1, d2, symbolic, box upper end); box is [-2, hi]^2
    ("num23", 2, 3, False, 5),
    ("num33", 3, 3, False, 4),
    ("sym22", 2, 2, True, 7),
    ("sym23", 2, 3, True, 6),
]
POINTS_PER_JOB = 6


class Expand(Workload):
    """Library ``greedy_expand`` on f = sum c_p * x[p], with the greedy cache shared.

    Every point of a system's box appears in exactly two jobs, so each pass
    has one cache miss and one cache hit per point.  Which points share a
    job, and the job order, are fixed (``layout``); the seed draws the
    coefficients, so every seed gives jobs of the same shapes.
    """

    name = "expand"
    cli = False
    clear_per_job = False

    def __init__(self, gca2, seed):
        rng = random.Random(f"expand:{seed}")
        layout = random.Random("expand-layout")
        greedy = gca2.greedy
        jobs = []
        for tag, d1, d2, symbolic, hi in EXPAND_SYSTEMS:
            rho = {t: rng.randint(1, 3) for t in range(1, d1 // 2 + 1)}
            vrho = {t: rng.randint(1, 3) for t in range(1, d2 // 2 + 1)}
            numeric = gca2.CoefficientMode.numeric(_poly_from_gens(rho, d1),
                                                   _poly_from_gens(vrho, d2))
            mode = gca2.CoefficientMode.symbolic(d1, d2) if symbolic else numeric
            box = [(a1, a2) for a1 in range(-2, hi + 1) for a2 in range(-2, hi + 1)]
            # inputs come from the recursive route, which greedy_expand does not
            # use; symbolic elements must specialise to the recursive ones
            elems, good = {}, {}
            for p in box:
                ref = greedy.greedy_recursive(numeric, *p).to_laurent().terms
                if symbolic:
                    elems[p] = greedy.greedy_combinatorial(mode, *p).terms
                    good[p] = ref == {e: _eval_coeffpoly(c, rho, vrho, d1, d2)
                                      for e, c in elems[p].items()}
                else:
                    elems[p], good[p] = ref, True
            for copy in range(2):
                order = box[:]
                layout.shuffle(order)
                for s in range(0, len(order), POINTS_PER_JOB):
                    pts = {p: rng.randint(1, 9) for p in order[s:s + POINTS_PER_JOB]}
                    terms = {}
                    for p, c in pts.items():
                        for e, v in elems[p].items():
                            terms[e] = terms.get(e, 0) + c * v
                    job = Job(f"{tag}:{copy}:{s // POINTS_PER_JOB}",
                              call=_expand_call(greedy, mode, gca2.LaurentPoly(terms)))
                    jobs.append((job, symbolic, pts, all(good[p] for p in pts)))
        layout.shuffle(jobs)
        self.jobs = [j[0] for j in jobs]
        self.expected = [j[1:] for j in jobs]
        self.first_mode = (numeric.p1, numeric.p2)

    def _ok(self, i, got):
        symbolic, pts, inputs_ok = self.expected[i]
        if not inputs_ok or not isinstance(got, dict) or got.keys() != pts.keys():
            return False
        if symbolic:
            return all(got[p].terms == {(): c} for p, c in pts.items())
        return all(type(got[p]) is int and got[p] == c for p, c in pts.items())

    def verify(self, results):
        return [self._ok(i, r) for i, r in enumerate(results)]

    def corrupt(self, results):
        i = next(j for j, r in enumerate(results) if r)
        p = next(iter(results[i]))
        return i, [*results[:i], {**results[i], p: results[i][p] + 1}, *results[i + 1:]]

    def setup_code(self):
        p1, p2 = self.first_mode
        return f"gca2.CoefficientMode.numeric({p1!r}, {p2!r})\n"


def _eval_coeffpoly(c, rho, vrho, d1, d2):
    """Integer value of a CoeffPoly under rho/vrho, read from its term dict."""
    total = 0
    for mono, n in c.terms.items():
        v = n
        for gid, e in mono:
            gens, d = (rho, d1) if gid.family == "rho" else (vrho, d2)
            v *= _specialize(gens, d, gid.index) ** e
        total += v
    return total


def _expand_call(greedy, mode, f):
    return lambda: greedy.greedy_expand(mode, f)


WORKLOADS = {w.name: w for w in (Exchange, Greedy, Pairs, Expand)}
