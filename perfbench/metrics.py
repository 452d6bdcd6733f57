"""Span-derived per-layer metrics and the bootstrap stage ledger.

The metric names come from ``per_layer`` in ``BENCHMARK.json``; every
one is reported on every workload (zero where the workload does not
exercise the layer).  A span metric is ``<probe>.<field>`` with field
``calls``, ``self_s``, ``rows`` or ``computed_bytes`` (the last two are
the probe's measured quantity), or the probe name alone for its call
count (``numtheory.rns.basis_constructions``).  Span metrics are per
traced request, except ``setup.<probe>.<field>`` (one traced set-up)
and ``serving.run`` (one traced serving stream).
"""

from __future__ import annotations

from typing import Dict

_FIELDS = {"calls": "calls", "self_s": "self_s", "rows": "qty",
           "computed_bytes": "qty"}


def per_layer_metrics(names, per_request, setup, serve, *, requests: int
                      ) -> Dict[str, float]:
    """The span metrics among ``names``, from layer totals; names that
    are not span metrics are skipped."""
    from probes import PROBES

    probes = {entry[0] for entry in PROBES}
    out = {}
    for name in names:
        key, scope, divisor = name, per_request, requests
        if name.startswith("setup."):
            key, scope, divisor = name[len("setup."):], setup, 1
        probe, field = ((key, "calls") if key in probes
                        else key.rsplit(".", 1))
        if probe not in probes:
            continue
        if probe == "serving.run":
            scope, divisor = serve, 1
        out[name] = scope.get(probe, {}).get(_FIELDS[field], 0) / divisor
    return out


def layer_table(totals, *, requests: int) -> str:
    """Every probe that fired in traced requests: calls, inclusive and
    self time, and measured quantity per request, by self time."""
    lines = ["layers per traced request "
             f"({requests} requests; self = total minus child spans)",
             f"  {'probe':<38} {'calls':>9} {'total ms':>10} "
             f"{'self ms':>10} {'rows/bytes':>12}"]
    for name, acc in sorted(totals.items(),
                            key=lambda kv: -kv[1]["self_s"]):
        lines.append(
            f"  {name:<38} {acc['calls'] / requests:>9.1f} "
            f"{acc['total_s'] / requests * 1e3:>10.3f} "
            f"{acc['self_s'] / requests * 1e3:>10.3f}"
            + (f" {acc['qty'] / requests:>12.4g}" if acc["qty"] else ""))
    return "\n".join(lines)


#: Host probe of each bootstrap stage, by Boot-trace phase metric stem.
STAGE_PROBES = {"stc": "ckks.bootstrap.slot_to_coeff",
                "mod_raise": "ckks.bootstrap.mod_raise",
                "cts": "ckks.bootstrap.coeff_to_slot",
                "eval_mod": "ckks.bootstrap.eval_mod"}


def ledger(per_request, metrics, *, requests: int) -> str:
    """Per-stage bootstrap ledger: measured host µs per request (self and
    inclusive) beside the simulated device µs and kernel count of the
    recorded Boot trace."""
    from simulated import BOOT_PHASES

    lines = ["bootstrap ledger (host: boot-mid, per traced request; "
             "device: recorded Boot trace on A100)",
             f"  {'stage':<9} {'host self us':>13} {'host total us':>14} "
             f"{'device us':>11} {'kernels':>8}"]
    for stage, stem in BOOT_PHASES:
        host = per_request.get(STAGE_PROBES[stem], {})
        lines.append(
            f"  {stage:<9} {host.get('self_s', 0) / requests * 1e6:>13.1f} "
            f"{host.get('total_s', 0) / requests * 1e6:>14.1f} "
            f"{metrics[f'gpusim.boot.{stem}.device_us']:>11.1f} "
            f"{metrics[f'gpusim.boot.{stem}.kernels']:>8d}")
    return "\n".join(lines)
