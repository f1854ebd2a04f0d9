"""Per-module spans and counters, recorded by wrapping gca2's functions.

Nothing in ``src/`` is edited: ``install`` replaces module and class
attributes with timing wrappers and ``uninstall`` puts the originals back.
Names that another module imported with ``from ... import`` are patched at
every call site as well as at their definition.  A span's self time is its
duration minus the time covered by its child spans; spans (name, start, end,
parent id, job) are kept in memory up to ``MAX_SPANS`` and written at the end.
"""

from __future__ import annotations

import statistics
from time import perf_counter

MAX_SPANS = 100_000


class Tracer:
    def __init__(self):
        self.stack = []      # open frames: [span id, child seconds]
        self.calls = {}
        self.total = {}
        self.self_s = {}
        self.counts = {}
        self.maxima = {}
        self.spans = []
        self.dropped = 0
        self.next_id = 0
        self.job = None
        self._patches = []

    def reset(self):
        """Forget the per-pass aggregates; spans are kept."""
        self.calls, self.total, self.self_s = {}, {}, {}
        self.counts, self.maxima = {}, {}

    def add(self, key, n):
        self.counts[key] = self.counts.get(key, 0) + n

    def peak(self, key, v):
        if v > self.maxima.get(key, 0):
            self.maxima[key] = v

    # -- spans ----------------------------------------------------------------

    def enter(self):
        sid = self.next_id
        self.next_id += 1
        frame = [sid, 0.0, perf_counter()]
        self.stack.append(frame)
        return frame

    def leave(self, name, frame):
        t1 = perf_counter()
        self.stack.pop()
        sid, child, t0 = frame
        dur = t1 - t0
        self.calls[name] = self.calls.get(name, 0) + 1
        self.total[name] = self.total.get(name, 0.0) + dur
        self.self_s[name] = self.self_s.get(name, 0.0) + dur - child
        parent = None
        if self.stack:
            self.stack[-1][1] += dur
            parent = self.stack[-1][0]
        if len(self.spans) < MAX_SPANS:
            self.spans.append((name, t0, t1, parent, self.job, sid))
        else:
            self.dropped += 1

    def wrap(self, name, fn, after=None):
        def wrapper(*args, **kwargs):
            frame = self.enter()
            try:
                out = fn(*args, **kwargs)
            finally:
                self.leave(name, frame)
            if after is not None and out is not NotImplemented:
                after(out, args)
            return out
        return wrapper

    def wrap_generator(self, name, fn):
        """Time each step of the generator fn returns; the consumer's work is not counted."""
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                frame = self.enter()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self.leave(name, frame)
                yield item
        return wrapper

    def count_calls(self, key, fn):
        def wrapper(*args, **kwargs):
            self.add(key, 1)
            return fn(*args, **kwargs)
        return wrapper

    # -- patching ---------------------------------------------------------------

    def patch(self, owners, attr, make):
        """Replace owner.attr on every owner with make(original)."""
        original = owners[0].__dict__[attr]
        new = make(original)
        for owner in owners:
            self._patches.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, new)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def install(self):
        from gca2 import cluster, coeffring, compat, dyckpath, greedy, laurent, multinom
        LP, CP = laurent.LaurentPoly, coeffring.CoeffPoly
        AC, DP = cluster.AlgebraContext, dyckpath.DyckPath

        def terms_out(key):
            return lambda out, args: self.add(key, len(out.terms))

        def coeff_monos(out, args):
            self.peak("coeffring.max_monos", len(out.terms))

        def var_stats(out, args):
            self.peak("cluster.max_terms", len(out.terms))
            bits = 0
            for c in out.terms.values():
                vals = c.terms.values() if isinstance(c, CP) else (c,)
                bits = max(bits, max(abs(v).bit_length() for v in vals))
            self.peak("cluster.max_coeff_bits", bits)

        def structure_stats(out, args):
            free, rsh, valid = out
            self.add("compat.rsh_tried", (args[2] + 1) ** len(rsh))
            self.add("compat.rsh_valid", len(valid))

        def table_entries(out, args):
            self.add("greedy.rec_entries", len(out.coeffs))

        mul = self.wrap("laurent.mul", LP.__dict__["__mul__"], terms_out("laurent.mul_terms_out"))
        for attr in ("__mul__", "__rmul__"):
            self.patch([LP], attr, lambda _: mul)
        cmul = self.wrap("coeffring.mul", CP.__dict__["__mul__"], coeff_monos)
        for attr in ("__mul__", "__rmul__"):
            self.patch([CP], attr, lambda _: cmul)
        self.patch([LP], "exact_div",
                   lambda f: self.wrap("laurent.div", f, terms_out("laurent.div_steps")))
        self.patch([laurent, cluster], "lp_substitute_ratio",
                   lambda f: self.wrap("laurent.subst", f))
        self.patch([laurent, cluster], "lp_eval_univariate",
                   lambda f: self.wrap("laurent.eval", f))
        for attr in ("render", "to_json"):
            self.patch([laurent], attr, lambda f: self.wrap("laurent.render", f))

        self.patch([AC], "cluster_variable",
                   lambda f: self.wrap("cluster.var", f, var_stats))
        self.patch([AC], "iter_cluster_expansions",
                   lambda f: self.wrap_generator("cluster.probe", f))

        for attr in ("compatible_structure", "compatible_structure_h"):
            self.patch([compat, greedy], attr,
                       lambda f: self.wrap("compat.structure", f, structure_stats))
        self.patch([compat], "enumerate_fast",
                   lambda f: self.wrap("compat.enum", f,
                                       lambda out, args: self.add("compat.pairs_out", len(out))))

        # lru_cache objects: the wrappers call through, so cache_info() of the
        # originals still counts hits and misses
        self.patch([greedy, cluster], "greedy_combinatorial",
                   lambda f: self.wrap("greedy.comb", f))
        self.patch([greedy], "greedy_recursive",
                   lambda f: self.wrap("greedy.rec", f, table_entries))
        self.patch([greedy], "greedy_expand", lambda f: self.wrap("greedy.expand", f))

        self.patch([multinom, greedy], "multinomial",
                   lambda f: self.wrap("multinom.multinomial", f))
        self.patch([multinom, greedy], "compositions_weighted",
                   lambda f: self.count_calls("multinom.compositions_calls", f))

        self.patch([DP], "build",
                   lambda cm: classmethod(self.wrap("dyckpath.build", cm.__func__)))

    # -- metrics ----------------------------------------------------------------

    def pass_metrics(self, cache_hits, cache_misses, out_bytes, speed):
        """Per-layer metrics of the pass just run (see BENCHMARK.json).

        Times are scaled by speed into reference seconds, like the job times.
        """
        c, t, s = self.calls, self.total, self.self_s
        n, mx = self.counts, self.maxima
        lookups = cache_hits + cache_misses
        tried = n.get("compat.rsh_tried", 0)
        out = {
            "cli.self_s": s.get("job", 0.0),
            "cli.out_bytes": out_bytes,
            "cluster.var_calls": c.get("cluster.var", 0),
            "cluster.var_s": t.get("cluster.var", 0.0),
            "cluster.probe_s": t.get("cluster.probe", 0.0),
            "cluster.max_terms": mx.get("cluster.max_terms", 0),
            "cluster.max_coeff_bits": mx.get("cluster.max_coeff_bits", 0),
            "laurent.mul_calls": c.get("laurent.mul", 0),
            "laurent.mul_s": t.get("laurent.mul", 0.0),
            "laurent.mul_terms_out": n.get("laurent.mul_terms_out", 0),
            "laurent.div_calls": c.get("laurent.div", 0),
            "laurent.div_s": t.get("laurent.div", 0.0),
            "laurent.div_steps": n.get("laurent.div_steps", 0),
            "laurent.subst_calls": c.get("laurent.subst", 0),
            "laurent.subst_s": t.get("laurent.subst", 0.0),
            "laurent.render_s": t.get("laurent.render", 0.0),
            "coeffring.mul_calls": c.get("coeffring.mul", 0),
            "coeffring.mul_s": t.get("coeffring.mul", 0.0),
            "coeffring.max_monos": mx.get("coeffring.max_monos", 0),
            "compat.structure_calls": c.get("compat.structure", 0),
            "compat.structure_s": t.get("compat.structure", 0.0),
            "compat.rsh_tried": tried,
            "compat.rsh_valid": n.get("compat.rsh_valid", 0),
            "compat.rsh_valid_ratio": n.get("compat.rsh_valid", 0) / tried if tried else 0.0,
            "compat.enum_s": t.get("compat.enum", 0.0),
            "compat.pairs_out": n.get("compat.pairs_out", 0),
            "greedy.comb_calls": c.get("greedy.comb", 0),
            "greedy.comb_self_s": s.get("greedy.comb", 0.0),
            "greedy.rec_calls": c.get("greedy.rec", 0),
            "greedy.rec_self_s": s.get("greedy.rec", 0.0),
            "greedy.rec_entries": n.get("greedy.rec_entries", 0),
            "greedy.expand_s": t.get("greedy.expand", 0.0),
            "greedy.cache_hits": cache_hits,
            "greedy.cache_misses": cache_misses,
            "greedy.cache_hit_ratio": cache_hits / lookups if lookups else 0.0,
            "multinom.multinomial_calls": c.get("multinom.multinomial", 0),
            "multinom.multinomial_s": t.get("multinom.multinomial", 0.0),
            "multinom.compositions_calls": n.get("multinom.compositions_calls", 0),
            "dyckpath.build_calls": c.get("dyckpath.build", 0),
            "dyckpath.build_s": t.get("dyckpath.build", 0.0),
        }
        return {k: v * speed if k.endswith("_s") else v for k, v in out.items()}


def median_metrics(per_pass):
    """Median of each metric over the traced passes; counts stay whole numbers."""
    return {k: (statistics.median_low if isinstance(v, int) else statistics.median)(
                [p[k] for p in per_pass])
            for k, v in per_pass[0].items()}
