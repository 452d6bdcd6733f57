"""The simulator clock: deterministic simulated-A100 metrics.

Every run computes these once, from fixed inputs, after its timed loop:

* the recorded Boot/HELR/ResNet catalog workloads priced through
  ``gym.TuningEnv`` at the default configuration and with
  ``dagopt.optimize=True``;
* per-workload kernel count, computed bytes and ``trace.opt`` events
  out/in, and per-phase device microseconds of the Boot trace
  (StC/ModRaise/CtS/EvalMod), from the default lowering;
* one open-loop ``serving.ServingSimulator`` stream over
  ``default_catalog()`` on 2 GPUs, with its p99 job latency, per-device
  utilisation and queue wait.

Checks (counted toward the run's ``failed``): pricing one configuration
twice in fresh environments is bit-identical, and the serving stream
conserves jobs (submitted = completed + rejected + in flight, and every
completed job ran in exactly one fleet batch).

The values are a deterministic function of the sources, so
:func:`deterministic` keeps them in a file keyed by a digest of
``src/`` and ``perfbench/``: the pricing workload recomputes them on
every run and fails its check if an earlier process computed different
values from the same sources; the functional workloads reuse the file
and compute the values themselves only when it is missing.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import platform
from typing import Dict, List, Tuple

CATALOG = ("boot", "helr", "resnet")

#: Boot trace phases in pipeline order: (top-level span, metric stem).
BOOT_PHASES = (("StC", "stc"), ("ModRaise", "mod_raise"),
               ("CtS", "cts"), ("EvalMod", "eval_mod"))

#: The fixed serving stream: 10 jobs/s Poisson over the four catalog
#: kinds on 2 GPUs keeps device utilisation near 15%, well below
#: saturation; a 120 s horizon gives ~1200 jobs, so at least 10 lie
#: beyond p99.
SERVE_GPUS = 2
SERVE_RATE_PER_S = 10.0
SERVE_HORIZON_US = 120e6
SERVE_SEED = 0


def _recorded(workload: str):
    """``(trace, pipeline)``: the recorded trace of a catalog workload
    and the default pipeline its gym env prices it with.  Traces land in
    the recorded-workload layer's per-process cache, which the env
    reads."""
    from repro.gym import TuningEnv
    from repro.tuning.config import build_pipeline
    from repro.workloads import recorded

    recorders = {"boot": recorded.record_bootstrap_trace,
                 "helr": recorded.record_helr_iteration_trace,
                 "resnet": recorded.record_resnet_block_trace}
    pipe = build_pipeline(TuningEnv(workload).base)
    return recorders[workload](pipe.params), pipe


def record_catalog() -> None:
    """Record the Boot/HELR/ResNet catalog traces (the pricing set-up)."""
    for workload in CATALOG:
        _recorded(workload)


def price(workload: str, assignment: Dict) -> float:
    """Simulated µs of one knob assignment on a fresh env (no env cache)."""
    from repro.gym import TuningEnv

    _, _, info = TuningEnv(workload).step(assignment)
    return info["latency_us"]


def catalog_metrics() -> Tuple[Dict[str, float], Dict[str, float], List[str]]:
    """``(end_to_end, per_layer, failures)`` of the simulator clock."""
    from repro.trace import lower_trace
    from repro.trace.opt import optimize_trace

    e2e: Dict[str, float] = {}
    layer: Dict[str, float] = {}
    failures: List[str] = []
    for wl in CATALOG:
        base = price(wl, {})
        again = price(wl, {})
        if again != base:
            failures.append(f"{wl}: default priced {base!r} then {again!r}")
        e2e[f"sim_{wl}_us"] = base
        e2e[f"sim_{wl}_dagopt_us"] = price(wl, {"dagopt.optimize": True})

        trace, pipe = _recorded(wl)
        dag = lower_trace(trace, params=pipe.params, style=pipe.style,
                          device=pipe.device,
                          ntt_variant=pipe.scheduler.ntt.variant,
                          geometry=pipe.geometry, batch=pipe.batch)
        layer[f"gpusim.{wl}.kernels"] = dag.kernel_count
        layer[f"gpusim.{wl}.computed_bytes"] = sum(
            s.gmem_read_bytes + s.gmem_write_bytes for s in dag.specs)
        opt, _ = optimize_trace(trace)
        layer[f"trace.opt.{wl}.events_ratio"] = (
            len(opt.events) / len(trace.events))
        if wl == "boot":
            layer.update(_phase_metrics(dag, pipe.device))
    return e2e, layer, failures


def _phase_metrics(dag, device) -> Dict[str, float]:
    """Device µs (first start to last end) and kernel count per phase."""
    result = dag.run(device)
    spans: Dict[str, List[float]] = {}
    for entry in result.entries:
        group = dag.nodes[entry.index].group
        lo_hi_n = spans.setdefault(group, [float("inf"), 0.0, 0])
        lo_hi_n[0] = min(lo_hi_n[0], entry.start_us)
        lo_hi_n[1] = max(lo_hi_n[1], entry.end_us)
        lo_hi_n[2] += 1
    out = {}
    for group, stem in BOOT_PHASES:
        lo, hi, count = spans.get(group, (0.0, 0.0, 0))
        out[f"gpusim.boot.{stem}.device_us"] = hi - lo if count else 0.0
        out[f"gpusim.boot.{stem}.kernels"] = count
    return out


def serving_metrics(probes=contextlib.nullcontext
                    ) -> Tuple[Dict[str, float], Dict[str, float], List[str]]:
    """``(end_to_end, per_layer, failures)`` of the fixed serving stream;
    ``probes()`` is entered around the stream itself."""
    from repro.serving import ServingConfig, ServingSimulator, default_catalog
    from repro.serving.metrics import percentile

    catalog = default_catalog()
    for kind in catalog.kinds:
        catalog.service_us(kind)  # record every kind before the stream
    sim = ServingSimulator(
        ServingConfig(gpus=SERVE_GPUS, rate_per_s=SERVE_RATE_PER_S,
                      horizon_us=SERVE_HORIZON_US, seed=SERVE_SEED),
        catalog,
    )
    with probes():
        report = sim.run()
    fleet = sim.fleet_result()
    failures: List[str] = []

    # Conservation, counted from both ends: arrivals on the simulator
    # side, executed batches on the fleet side.  The simulator defers a
    # refused batch and re-places it, so no job is ever rejected.
    ran = [jid for entry in fleet.entries for jid in entry.jobs]
    in_flight = sum(1 for job in sim.jobs if not job.done)
    rejected = 0
    if len(ran) != len(set(ran)):
        failures.append("serving: a job ran in more than one batch")
    if not (report.submitted == len(ran) + rejected + in_flight
            and report.completed == len(ran)):
        failures.append(f"serving: submitted {report.submitted}, ran "
                        f"{len(ran)}, completed {report.completed}, in "
                        f"flight {in_flight}")
    tail_jobs = report.completed - int(0.99 * report.completed)
    if tail_jobs < 10:
        failures.append(f"serving: only {tail_jobs} jobs beyond p99")

    arrival = {job.jid: job.arrival_us for job in sim.jobs}
    waits = [entry.start_us - arrival[jid]
             for entry in fleet.entries for jid in entry.jobs]
    layer = {
        "serving.queue_wait_mean_us": sum(waits) / len(waits),
        "serving.queue_wait_p99_us": percentile(waits, 99),
    }
    for dev in report.devices:
        layer[f"serving.gpu{dev['index']}.utilization"] = dev["utilization"]
    return {"sim_serve_p99_us": report.latency["p99_us"]}, layer, failures


def source_digest(root: str) -> str:
    """Digest of every file under ``src/`` and ``perfbench/`` (outputs
    excepted) plus the interpreter and numpy versions."""
    import numpy

    h = hashlib.sha256(f"{platform.python_version()} {numpy.__version__}"
                       .encode())
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames[:] = sorted(d for d in dirnames
                                 if d not in ("out", "__pycache__"))
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def deterministic(root: str, out_dir: str, *, fresh: bool,
                  probes=contextlib.nullcontext
                  ) -> Tuple[Dict[str, float], Dict[str, float], List[str]]:
    """``(end_to_end, per_layer, failures)`` of the simulator clock.

    ``fresh`` recomputes even when this source digest has a stored copy,
    and records a failure if the two differ.  ``probes()`` is entered
    around the serving stream whenever it runs."""
    path = os.path.join(out_dir, f"simulated-{source_digest(root)}.json")
    stored = None
    if os.path.exists(path):
        with open(path) as fh:
            stored = json.load(fh)
        if not fresh:
            return stored["e2e"], stored["layer"], stored["failures"]
    e2e, layer, failures = catalog_metrics()
    serve_e2e, serve_layer, serve_failures = serving_metrics(probes)
    e2e.update(serve_e2e)
    layer.update(serve_layer)
    failures += serve_failures
    doc = {"e2e": e2e, "layer": layer, "failures": failures}
    if stored is not None and (stored["e2e"], stored["layer"]) != (
            e2e, layer):
        failures.append("simulated metrics differ from an earlier "
                        "process on the same sources")
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
    return e2e, layer, failures
