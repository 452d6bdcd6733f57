#!/usr/bin/env python3
"""End-to-end benchmark over both clocks of the repro package.

Usage, from the repository root::

    python3 perfbench/run.py --workload bootstrap --seed 1 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --trace 1

Workloads (see ``predictions.json`` for why each was chosen and which
metrics each layer should move):

* ``bootstrap`` -- warm slim bootstrap on the boot-mid set;
* ``helr``      -- one functional encrypted logistic-regression step;
* ``pricing``   -- simulator pricing of the recorded workload catalog.

``--trace 0`` times requests untraced and reports the end-to-end
metrics.  Request latency is reported in units of a reference kernel
(plain numpy and interpreter work, no repro code) timed just before the
request.  On a shared 2-CPU host, machine speed drifted by +-15% over
tens of seconds, which spread raw per-run medians of the bootstrap
workload by 17-22% (IQR over median across runs) but the normalised
ones by ~7%.  Raw host seconds are printed and stored
beside them.  ``--trace 1`` alternates untraced and traced blocks of
requests: the traced ones run with span probes around every layer's
public entry points (``probes.py``) and give the per-layer metrics,
and the difference of the two medians is the tracing overhead.  Both
modes finish with the deterministic simulator metrics
(``simulated.py``).  ``--workload all`` runs each workload in its own
process, so one workload's peak memory cannot leak into another's.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it print every metric by name with its unit.  Full results, the machine
fingerprint and (with ``--trace 1``) a Chrome/Perfetto trace of the host
spans land in ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

#: One BLAS thread: the closed loop has a single caller on a 2-CPU box.
#: Set before numpy loads; child processes inherit it.
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

WORKLOAD_NAMES = ("bootstrap", "helr", "pricing")
#: Set-ups per run (each in a cold process); setup_s is their median.
SETUP_REPLICAS = 3
#: A timed loop serves at least this many requests, so the tail
#: percentile always has 10 samples beyond it.
MIN_SAMPLES = 11
#: The reference kernel runs before a request at most this often.
REF_EVERY_S = 0.25
#: Traced requests kept in the Chrome trace (all are aggregated).
CHROME_REQUESTS = 2
CHILD_TIMEOUT_S = 170

# -- statistics ---------------------------------------------------------------

def tail(samples):
    """``(value, percentile)``: the highest percentile with at least 10
    samples beyond it (the 11th largest sample)."""
    xs = sorted(samples)
    n = len(xs)
    return xs[n - 11], 100.0 * (n - 10) / n


def ref_kernel_s():
    """Seconds for a fixed piece of work that uses no repro code: numpy
    ufuncs on small residue-like rows, interpreter arithmetic, and
    object churn (building and sorting small dicts).  Timed between
    requests, it tracks the machine's speed: on a shared 2-CPU host that
    speed drifts by +-15% over tens of seconds and moves every request
    alike.  The object part is what tracks the pure-Python pricing path;
    the numpy part tracks the functional workloads."""
    import numpy as np

    rows = np.random.default_rng(0).integers(0, 2**30, size=(16, 512),
                                             dtype=np.uint64)
    q = np.uint64(1073741789)
    t0 = time.perf_counter()
    x = rows
    for _ in range(150):
        x = (x * x) % q + rows
    acc = 0
    for i in range(15000):
        acc += i * i
    dicts = [{"k": i % 97, "v": (i * 7919) % 1013, "t": (i, str(i))}
             for i in range(4000)]
    dicts.sort(key=lambda d: (d["v"], d["k"]))
    return time.perf_counter() - t0


FINGERPRINT_KEYS = ("cpu_count", "python", "numpy", "backend_knob",
                    "backend", "blas_threads")


def fingerprint():
    import numpy
    from repro.backend import backend_name
    from repro.tuning.config import TuningConfig

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "backend_knob": TuningConfig()["backend"],
        "backend": backend_name(),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
    }


def compare_fingerprint(workload, fp):
    """Flags for this run against the previous run of ``workload`` in
    this checkout: a changed machine field, or a reference kernel more
    than 10% faster or slower.  Stores ``fp`` for the next run."""
    path = os.path.join(OUT, f"fingerprint-{workload}.json")
    flags = []
    if os.path.exists(path):
        with open(path) as fh:
            prev = json.load(fh)
        changed = [k for k in FINGERPRINT_KEYS if prev.get(k) != fp.get(k)]
        if changed:
            flags.append("fingerprint differs from the previous run in "
                         + ", ".join(changed))
        if fp.get("ref_kernel_ms") and prev.get("ref_kernel_ms"):
            drift = fp["ref_kernel_ms"] / prev["ref_kernel_ms"] - 1
            if abs(drift) > 0.1:
                flags.append(f"reference kernel {drift:+.0%} against the "
                             "previous run: machine speed differs")
    with open(path, "w") as fh:
        json.dump(fp, fh, indent=1)
    return flags


def cache_counts():
    """Summed hits/misses of the functional precompute caches and the
    simulator's kernel-profile cache."""
    from repro.ckks.rns_context import all_cache_stats
    from repro.gpusim import profile_cache_stats

    rns = all_cache_stats().values()
    prof = profile_cache_stats()
    return (sum(c["hits"] for c in rns), sum(c["misses"] for c in rns),
            prof["hits"], prof["misses"])


# -- one workload -------------------------------------------------------------

def child_setup(args):
    """Set-up time of the workload in a fresh process (cold caches)."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload",
         args.workload, "--seed", str(args.seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"set-up replica exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


class Run:
    """State of one workload run: checks, samples and metrics."""

    def __init__(self, args, names):
        from workloads import WORKLOADS

        self.args = args
        #: The metric names this run must report, in BENCHMARK.json order.
        self.names = names
        self.wl = WORKLOADS[args.workload](args.seed)
        self.attempted = 0
        self.failures = []
        self.errors = []
        #: Per-metric remarks printed beside the values.
        self.notes = {}
        #: Figures printed and stored beside the metrics but not part of
        #: the result line: name -> (value, unit, remark).
        self.report = {}

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def serve(self, label):
        """One request, timed; an exception counts as a failed check."""
        t0 = time.perf_counter()
        try:
            ok, err = self.wl.request()
        except Exception:
            traceback.print_exc()
            ok, err = False, None
        dt = time.perf_counter() - t0
        self.check(ok, f"request {label}")
        if err is not None:
            self.errors.append(err)
        return dt

    def loop(self, serve_block):
        """Serve whole blocks until ``--seconds`` have passed and enough
        samples exist; ``serve_block(index)`` serves one block."""
        start = time.perf_counter()
        blocks = 0
        while (time.perf_counter() - start < self.args.seconds
               or self.samples() < MIN_SAMPLES
               or blocks % self.blocks_per_round):
            serve_block(blocks)
            blocks += 1


class EndToEnd(Run):
    """``--trace 0``: untraced timed loop, end-to-end metrics."""

    blocks_per_round = 1

    def execute(self):
        setups = [child_setup(self.args)
                  for _ in range(SETUP_REPLICAS - 1)]
        t0 = time.perf_counter()
        ok, err = self.wl.setup()
        setups.append(time.perf_counter() - t0)
        self.check(ok, "set-up request")
        if err is not None:
            self.errors.append(err)

        self.latencies, self.refs, self.relative = [], [], []
        # Mean request time per block, raw and relative: the median is
        # taken over blocks, so a pricing run's median is that of whole
        # passes over its fixed mix, not of whichever request type falls
        # at the middle of a multi-modal distribution.
        self.block_s, self.block_ref = [], []
        block = self.wl.block
        last_ref = -REF_EVERY_S

        def serve_block(_):
            nonlocal last_ref
            for _ in range(block):
                if time.perf_counter() - last_ref >= REF_EVERY_S:
                    self.refs.append(ref_kernel_s())
                    last_ref = time.perf_counter()
                dt = self.serve(len(self.latencies))
                self.latencies.append(dt)
                self.relative.append(dt / self.refs[-1])
            self.block_s.append(statistics.fmean(self.latencies[-block:]))
            self.block_ref.append(statistics.fmean(self.relative[-block:]))

        self.loop(serve_block)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        n = len(self.latencies)
        tail_s, tail_pct = tail(self.latencies)
        tail_ref, _ = tail(self.relative)
        blocks = len(self.block_s)
        metrics = {
            "latency_p50_ref": statistics.median(self.block_ref),
            "latency_tail_ref": tail_ref,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak_mb,
        }
        metrics["precision_bits"] = self.precision_bits()
        metrics.update(self.simulated())
        ref_ms = statistics.median(self.refs) * 1e3
        self.notes.update({
            "latency_p50_ref": f"median of {blocks} blocks of "
                               f"{self.wl.block} request(s), each request "
                               "in units of the reference kernel run "
                               f"before it ({len(self.refs)} runs, median "
                               f"{ref_ms:.2f} ms)",
            "latency_tail_ref": f"p{tail_pct:.1f}: 10 of {n} samples "
                                "beyond",
            "setup_s": "median of " + ", ".join(f"{s:.3f}" for s in setups),
            "precision_bits": f"-log2 of worst error over "
                              f"{len(self.errors)} checked outputs",
        })
        self.report.update({
            "latency_p50_s": (statistics.median(self.block_s), "s",
                              f"median of {blocks} blocks"),
            "latency_tail_s": (tail_s, "s", f"p{tail_pct:.1f}: 10 of {n} "
                                            "samples beyond"),
        })
        self.setups = setups
        return metrics

    def samples(self):
        return len(self.latencies)

    def precision_bits(self):
        """-log2 of the worst functional error.  Pricing has no functional
        output of its own, so it reports one boot-mid bootstrap at fixed
        inputs (seed 0)."""
        if not self.errors:
            from workloads import BootstrapWorkload

            ok, err = BootstrapWorkload(0).setup()
            self.check(ok, "fixed-input bootstrap")
            self.errors.append(err)
        return -math.log2(max(self.errors))

    def simulated(self):
        from simulated import deterministic

        e2e, _, failures = deterministic(
            ROOT, OUT, fresh=self.args.workload == "pricing")
        self.check(not failures, "; ".join(failures))
        return e2e


class Traced(Run):
    """``--trace 1``: alternate untraced and traced blocks; per-layer
    metrics from the traced ones."""

    #: An untraced block then a traced one.
    blocks_per_round = 2

    def execute(self):
        from probes import Probes, SpanLog

        log = self.log = SpanLog()
        log.request = "setup"
        with Probes(log) as probes:
            ok, err = self.wl.setup()
        self.missing = set(probes.missing)
        self.check(ok, "set-up request")

        cache0 = cache_counts()
        self.plain, self.traced = [], []
        block = self.wl.block

        def serve_block(index):
            for _ in range(block):
                label = len(self.plain) + len(self.traced)
                if index % 2:
                    log.request = label
                    with Probes(log):
                        self.traced.append(self.serve(label))
                else:
                    self.plain.append(self.serve(label))

        self.loop(serve_block)
        cache1 = cache_counts()

        from simulated import deterministic

        log.request = "serve"
        _, layer, failures = deterministic(
            ROOT, OUT, fresh=self.args.workload == "pricing",
            probes=lambda: Probes(log))
        self.check(not failures, "; ".join(failures))
        layer = dict(layer)
        layer.update(self.layer_metrics(self.names, cache0, cache1))
        return layer

    def samples(self):
        return min(len(self.plain), len(self.traced))

    def layer_metrics(self, names, cache0, cache1):
        from metrics import per_layer_metrics

        per_req = self.log.layer_totals(lambda r: isinstance(r, int))
        setup = self.log.layer_totals(lambda r: r == "setup")
        serve = self.log.layer_totals(lambda r: r == "serve")
        self.totals = {"request": per_req, "setup": setup, "serve": serve}

        with open(os.path.join(HERE, "predictions.json")) as fh:
            expected = json.load(fh)["probes"]
        seen = {name for scope in self.totals.values() for name in scope}
        self.zero_call = sorted(
            name for name, wls in expected.items()
            if self.args.workload in wls
            and (name not in seen or name in self.missing))

        d = [b - a for a, b in zip(cache0, cache1)]
        out = per_layer_metrics(names, per_req, setup, serve,
                                requests=len(self.traced))
        out.update({
            "cache.rns.hit_ratio":
                d[0] / (d[0] + d[1]) if d[0] + d[1] else 0.0,
            "cache.rns.warm_misses": d[1],
            "cache.gpusim_profile.hit_ratio":
                d[2] / (d[2] + d[3]) if d[2] + d[3] else 0.0,
            "trace.overhead_s": (statistics.median(self.traced)
                                 - statistics.median(self.plain)),
            "trace.traced_requests": len(self.traced),
            "trace.zero_call_probes": len(self.zero_call),
        })
        self.notes["trace.overhead_s"] = (
            f"traced p50 {statistics.median(self.traced):.4f} s "
            f"({len(self.traced)} requests) - untraced p50 "
            f"{statistics.median(self.plain):.4f} s "
            f"({len(self.plain)} requests)")
        if self.zero_call:
            self.notes["trace.zero_call_probes"] = ", ".join(self.zero_call)
        return out


# -- reporting ----------------------------------------------------------------

def emit(args, run, metrics, units, fp, load0):
    """Print the metric table, write the results file and print the
    result line."""
    fp = dict(fp, loadavg_start=load0, loadavg_end=os.getloadavg())
    if not args.trace:
        fp["ref_kernel_ms"] = statistics.median(run.refs) * 1e3
    os.makedirs(OUT, exist_ok=True)
    flags = compare_fingerprint(args.workload, fp)
    if max(load0[0], fp["loadavg_end"][0]) >= (os.cpu_count() or 1):
        flags.append("load average reached the CPU count; timings are "
                     "contended")
    failed = len(run.failures)
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("fingerprint: " + json.dumps(fp))
    for flag in flags:
        print(f"FLAG: {flag}; compare these results with care")
    for name, value in metrics.items():
        note = run.notes.get(name, "")
        print(f"  {name:<44} {value:>16.6g} {units[name]:<6} {note}")
    run.report["error_rate"] = (failed / run.attempted, "ratio",
                                f"{failed} failed of {run.attempted} "
                                "attempted")
    print("  report only:")
    for name, (value, unit, note) in run.report.items():
        print(f"  {name:<44} {value:>16.6g} {unit:<6} {note}")
    for what in run.failures:
        print(f"  FAILED: {what}")
    if args.trace:
        from metrics import layer_table, ledger

        print(layer_table(run.totals["request"], requests=len(run.traced)))
        if args.workload == "bootstrap":
            print(ledger(run.totals["request"], metrics,
                         requests=len(run.traced)))

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    doc = {"workload": args.workload, "seed": args.seed,
           "seconds": args.seconds, "trace": args.trace,
           "fingerprint": fp, "flags": flags,
           "metrics": metrics, "notes": run.notes, "report": run.report,
           "attempted": run.attempted, "failures": run.failures}
    if args.trace:
        doc["layers"] = run.totals
        doc["latency_untraced_s"] = run.plain
        doc["latency_traced_s"] = run.traced
        path = os.path.join(OUT, f"{tag}.perfetto.json")
        events = run.log.write_chrome_trace(path,
                                            max_requests=CHROME_REQUESTS)
        print(f"host spans: {events} events -> {os.path.relpath(path)}")
    else:
        doc["latency_s"] = run.latencies
        doc["latency_ref"] = run.relative
        doc["ref_kernel_s"] = run.refs
        doc["setup_replicas_s"] = run.setups
    with open(os.path.join(OUT, f"{tag}.json"), "w") as fh:
        json.dump(doc, fh, indent=1)

    result = {
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


def run_one(args):
    load0 = os.getloadavg()
    fp = fingerprint()
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    units = {entry["name"]: entry["unit"] for entry in spec}
    run = (Traced if args.trace else EndToEnd)(args, list(units))
    measured = run.execute()
    if set(measured) != set(units):
        raise RuntimeError(
            "metrics differ from BENCHMARK.json: missing "
            f"{sorted(set(units) - set(measured))}, extra "
            f"{sorted(set(measured) - set(units))}")
    metrics = {name: measured[name] for name in units}
    return emit(args, run, metrics, units, fp, load0)


def run_all(args):
    """Each workload in its own process; a combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            sys.stdout.write(proc.stdout)
            print(f"perfbench: workload {name} exited {proc.returncode}",
                  file=sys.stderr)
            return proc.returncode
        *report, last = proc.stdout.strip().splitlines()
        print("\n".join(report))
        result = json.loads(last)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined), flush=True)
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no package sources at {SRC}/repro; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]

    if args.workload == "all":
        return run_all(args)
    if args.setup_only:
        from workloads import WORKLOADS

        t0 = time.perf_counter()
        WORKLOADS[args.workload](args.seed).setup()
        print(json.dumps({"setup_s": time.perf_counter() - t0}))
        return 0
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
