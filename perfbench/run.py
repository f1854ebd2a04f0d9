"""Benchmark of gca2: four closed-loop workloads run from one process, one thread.

    python3 perfbench/run.py --workload exchange --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout (``src/gca2`` must be there).  One run:

1. set-up probe: fresh interpreters each import gca2 and ready the first job;
2. inputs from ``--seed``, then one untimed verification pass whose outputs go
   to the workload's oracle, plus a self-check that a corrupted output is
   rejected;
3. timed passes through the job list, one job at a time, until ``--seconds``
   have elapsed (the first pass is always whole).  Every job's output must
   hash to what the verification pass accepted.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` spends half the
time untraced and half with every gca2 module wrapped (see tracer.py) and
prints the per-layer metrics.  The last stdout line is the result JSON; the
line before it holds the run's metadata.  A fuller record, with the trace's
spans, is written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference
import tracer as tracing
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 9
TAIL_BEYOND = 10
REFERENCE_EVERY_S = 0.25
REFERENCE_SLICES = 3


class Sink:
    """Stand-in for stdout: hashes and counts what a job prints."""

    def __init__(self, consumer=None):
        self.hash = hashlib.blake2b(digest_size=16)
        self.nbytes = 0
        self.consumer = consumer

    def write(self, text):
        data = text.encode()
        self.hash.update(data)
        self.nbytes += len(data)
        if self.consumer is not None:
            self.consumer.feed(text)
        return len(text)

    def flush(self):
        pass

    def fingerprint(self):
        return (self.hash.hexdigest(), self.nbytes)


def load_gca2():
    if not (SRC / "gca2" / "__init__.py").is_file():
        raise SystemExit(f"error: no gca2 sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import gca2
    import gca2.cli
    if SRC.resolve() not in Path(gca2.__file__).resolve().parents:
        raise SystemExit(f"error: imported gca2 from {gca2.__file__}, not from {SRC}")
    return gca2


class Harness:
    def __init__(self, gca2, workload):
        self.gca2 = gca2
        self.wl = workload
        # the lru_cache objects themselves, captured before any tracing patch
        self.caches = (gca2.greedy.greedy_combinatorial, gca2.greedy.greedy_recursive)
        self.cache_hits = self.cache_misses = 0
        self.hygiene_ok = True
        self.tracer = None
        self.per_pass = []
        self.speeds = []
        self.attempted = self.failed = 0

    def clear_caches(self):
        for fn in self.caches:
            info = fn.cache_info()
            self.cache_hits += info.hits
            self.cache_misses += info.misses
            fn.cache_clear()
            if fn.cache_info().currsize:
                self.hygiene_ok = False

    def run_job(self, index, sink):
        """(seconds, exit status or None if it raised, return value)."""
        job = self.wl.jobs[index]
        if self.wl.clear_per_job:
            self.clear_caches()
        tracer = self.tracer
        if tracer is not None:
            tracer.job = index
            frame = tracer.enter()
        value = status = None
        t0 = time.perf_counter()
        try:
            if job.argv is not None:
                with contextlib.redirect_stdout(sink):
                    status = self.gca2.cli.main(job.argv)
            else:
                value = job.call()
                status = 0
        except (Exception, SystemExit) as exc:
            print(f"job {job.label} raised {exc!r}", file=sys.stderr)
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.leave("job", frame)
        return dt, status, value

    def verification_pass(self):
        """Outputs of every job, judged by the oracle, and their fingerprints."""
        results, prints = [], []
        self.clear_caches()
        for i in range(len(self.wl.jobs)):
            consumer = self.wl.capture(i)
            sink = Sink(consumer)
            _, status, value = self.run_job(i, sink)
            output = consumer.result() if self.wl.cli else value
            results.append(output if status == 0 else None)
            prints.append(sink.fingerprint() if self.wl.cli else value)
        self.clear_caches()
        verdicts = self.wl.verify(results)
        self.clear_caches()
        self.attempted += len(verdicts)
        self.failed += verdicts.count(False)
        expected = [p if ok else None for p, ok in zip(prints, verdicts)]
        return results, expected

    def rerun(self, index, consumer):
        self.run_job(index, Sink(consumer))
        self.clear_caches()
        return consumer.result()

    def timed_passes(self, expected, seconds):
        """Per-job latency samples, in reference seconds, and the number of whole passes.

        Passes repeat until seconds have elapsed; the first pass always
        completes, a later one stops at the deadline.  The reference kernel
        runs at both ends of a pass and between jobs every REFERENCE_EVERY_S;
        each job's time is scaled by REFERENCE_S / the pass's kernel median.
        """
        samples = [[] for _ in self.wl.jobs]
        passes = 0
        deadline = time.perf_counter() + seconds
        while passes == 0 or time.perf_counter() < deadline:
            gc.collect()
            self.clear_caches()
            hits0, misses0 = self.cache_hits, self.cache_misses
            if self.tracer is not None:
                self.tracer.reset()
            nbytes = 0
            raw = []
            ref = [reference.kernel() for _ in range(REFERENCE_SLICES)]
            next_ref = time.perf_counter() + REFERENCE_EVERY_S
            for i in range(len(self.wl.jobs)):
                if passes and time.perf_counter() >= deadline:
                    break
                if time.perf_counter() >= next_ref:
                    ref.append(reference.kernel())
                    next_ref = time.perf_counter() + REFERENCE_EVERY_S
                sink = Sink()
                dt, status, value = self.run_job(i, sink)
                raw.append(dt)
                got = sink.fingerprint() if self.wl.cli else value
                self.attempted += 1
                if status != 0 or expected[i] is None or got != expected[i]:
                    self.failed += 1
                nbytes += sink.nbytes
            else:
                passes += 1
            ref += [reference.kernel() for _ in range(REFERENCE_SLICES)]
            speed = reference.REFERENCE_S / statistics.median(ref)
            self.speeds.append(speed)
            for i, dt in enumerate(raw):
                samples[i].append(dt * speed)
            self.clear_caches()
            if self.tracer is not None and len(self.per_pass) < passes:
                self.per_pass.append(self.tracer.pass_metrics(
                    self.cache_hits - hits0, self.cache_misses - misses0, nbytes, speed))
        return samples, passes


def latency_summary(samples):
    """wall_s, job_p50_s, job_tail_s and the tail's percentile, from per-job medians."""
    per_job = sorted(statistics.median(s) for s in samples)
    n = len(per_job)
    rank = max(n - TAIL_BEYOND - 1, 0) if n > TAIL_BEYOND else n - 1
    return {
        "wall_s": sum(per_job),
        "job_p50_s": statistics.median(per_job),
        "job_tail_s": per_job[rank],
        "tail_percentile": 100.0 * (rank + 1) / n,
        "tail_jobs_beyond": n - rank - 1,
        "jobs": n,
    }


def setup_seconds(code):
    """Median time from spawning an interpreter to its first job being ready."""
    script = ("import sys\nsys.path.insert(0, sys.argv[1])\nimport gca2\n" + code
              + "sys.stdout.write('ready\\n')\nsys.stdout.flush()\n")
    times = []
    for probe in range(SETUP_PROBES + 1):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", script, str(SRC)], cwd=ROOT,
                              stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
            if proc.wait(timeout=60) != 0 or line != "ready\n":
                raise SystemExit("error: set-up probe failed")
        if probe:  # the first probe may compile bytecode; it is not counted
            times.append(t1 - t0)
    return statistics.median(times)


def metadata(args, passes):
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "gca2").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "passes": passes,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "hash_seed": os.environ.get("PYTHONHASHSEED", "random"),
        "git_commit": commit, "src_sha256": digest.hexdigest(),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    gca2 = load_gca2()
    if args.workload not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")

    wl = WORKLOADS[args.workload](gca2, args.seed)
    setup_s = setup_seconds(wl.setup_code())
    h = Harness(gca2, wl)
    results, expected = h.verification_pass()
    try:
        self_check = wl.self_check(results, h.rerun)
    except (LookupError, StopIteration, TypeError, ValueError):  # no output to corrupt
        self_check = False
    h.clear_caches()
    h.cache_hits = h.cache_misses = 0

    record = {}
    if args.trace:
        samples, passes = h.timed_passes(expected, args.seconds / 2)
        plain = latency_summary(samples)
        h.tracer = tracing.Tracer()
        h.tracer.install()
        try:
            samples, traced_passes = h.timed_passes(expected, args.seconds / 2)
        finally:
            h.tracer.uninstall()
        traced = latency_summary(samples)
        values = tracing.median_metrics(h.per_pass)
        values["trace.overhead_frac"] = traced["wall_s"] / plain["wall_s"] - 1
        metrics = {k: {"value": v, "unit": _unit(k)} for k, v in values.items()}
        record["spans"] = h.tracer.spans
        record["spans_dropped"] = h.tracer.dropped
        passes = {"untraced": passes, "traced": traced_passes}
    else:
        samples, passes = h.timed_passes(expected, args.seconds)
        lat = latency_summary(samples)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {
            "wall_s": {"value": lat["wall_s"], "unit": "s"},
            "job_p50_s": {"value": lat["job_p50_s"], "unit": "s"},
            "job_tail_s": {"value": lat["job_tail_s"], "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        record["latency"] = lat
        record["job_samples_s"] = {j.label: s for j, s in zip(wl.jobs, samples)}
        record["pass_speeds"] = h.speeds

    correct = h.failed == 0 and self_check and h.hygiene_ok
    meta = metadata(args, passes)
    meta.update(fail_frac=h.failed / h.attempted, oracle_self_check_rejected=self_check,
                cache_hygiene_ok=h.hygiene_ok, setup_s=setup_s,
                speed=statistics.median(h.speeds))
    result = {"correct": correct, "attempted": h.attempted, "failed": h.failed,
              "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps({"meta": meta, "result": result, **record}))
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


def _unit(key):
    if key.endswith("_s"):
        return "s"
    if key.endswith(("_ratio", "_frac")):
        return "ratio"
    if key.endswith("_bytes"):
        return "bytes"
    if key.endswith("_bits"):
        return "bits"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
