"""Outside-in layer tracing for bean_limit runs.

`install` replaces module-level functions of the solver layers with
wrappers that record one span per call: name, parent span, start, end,
and the work the call did.  Each wrapper is put where its callers look
the name up (for example `bean_limit.experiments.pme_solve`, which the
experiment drivers imported by name), so no source file changes.

Work counters that need a recomputation (pointwise cap exits, CG
stagnation, dump sizes) run after the span has closed, inside
`Tracer.postcheck`; their time is stored on the span and excluded from
the parent's self time, so the checks add no time to any layer.

`summarize` turns the span list of one run into the per-layer metrics.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from time import perf_counter

import numpy as np


class Tracer:
    """In-memory span recorder; spans are plain dicts so they dump as JSON."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = {"name": name, "parent": self._open[-1] if self._open else None, "post_s": 0.0}
        self.spans.append(rec)
        self._open.append(len(self.spans) - 1)
        rec["start"] = perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = perf_counter()
            self._open.pop()

    @contextmanager
    def postcheck(self, rec: dict):
        t0 = perf_counter()
        try:
            yield
        finally:
            rec["post_s"] += perf_counter() - t0


# -- work recomputed from a call's arguments and result ----------------------


def pointwise_cap_exit(v, rhs, dt, m, h2, u) -> bool:
    """True when `_pointwise_exact` returned above its own stop threshold.

    Repeats the loop's residual test `max|s + a s^m - |b|| <= 1e-16 (1 +
    max|b|)` on the returned s = |u|, with the same numpy operations.
    """
    from bean_limit.fields import neighbor_sum

    a = 4.0 * dt / h2
    babs = np.abs(rhs + (dt / h2) * neighbor_sum(v))
    s = np.abs(u)
    f = s + a * s ** m - babs
    return float(np.max(np.abs(f))) > 1e-16 * (1.0 + float(np.max(babs)))


def pcg_stagnated(apply_op, b, rtol, x) -> bool:
    """True when the returned x misses the relative residual target rtol."""
    bnorm = float(np.sqrt(np.sum(b * b)))
    r = b - apply_op(x)
    return float(np.sqrt(np.sum(r * r))) > rtol * bnorm


# -- wrappers ----------------------------------------------------------------

DRIVERS = (
    "sweep_p",
    "sweep_m_vs_mesa",
    "collapse_experiment",
    "small_data_check",
    "equivalence_check",
    "l1_contraction_check",
    "barenblatt_convergence",
)


def install(tracer: Tracer) -> None:
    """Wrap the layer entry points of an imported bean_limit in place."""
    from bean_limit import cli, curl2d, experiments, obstacle, pme

    pointwise = pme._pointwise_exact

    def traced_pointwise(v, rhs, dt, m, h2):
        with tracer.span("pme.pointwise") as rec:
            u = pointwise(v, rhs, dt, m, h2)
        with tracer.postcheck(rec):
            rec["cells"] = u.size
            rec["cap_exit"] = int(pointwise_cap_exit(v, rhs, dt, m, h2, u))
        return u

    pcg = pme.pcg

    def traced_pcg(apply_op, b, apply_minv, rtol, max_iters):
        iters = 0

        def counted_op(p):
            nonlocal iters
            iters += 1
            return apply_op(p)

        with tracer.span("pme.pcg") as rec:
            rec["cells"] = b.size
            try:
                x = pcg(counted_op, b, apply_minv, rtol, max_iters)
            finally:  # a solve that loses definiteness raises; its iterations still count
                rec["iters"] = iters
        with tracer.postcheck(rec):
            rec["stagnated"] = int(pcg_stagnated(apply_op, b, rtol, x))
        return x

    step_values = pme._step_values

    def traced_step_values(u_prev, g_end, dt, law, h, config):
        with tracer.span("pme.step") as rec:
            try:
                u, iters = step_values(u_prev, g_end, dt, law, h, config)
            except pme.NewtonDiverged:
                rec["rejected"] = 1
                raise
        rec["newton_iters"] = iters
        return u, iters

    pme_solve = pme.pme_solve

    def traced_pme_solve(problem, config):
        with tracer.span("pme.pme_solve") as rec:
            sol = pme_solve(problem, config)
        rec["accepted_steps"] = len(sol.diagnostics.times) - 1
        return sol

    psor_solve = obstacle.psor_solve

    def traced_psor_solve(data, *args, **kwargs):
        with tracer.span("obstacle.psor") as rec:
            vi = psor_solve(data, *args, **kwargs)
        rec["cells"] = data.q.values.size
        rec["sweeps"] = vi.iterations
        return vi

    curl_solve = curl2d.curl_solve

    def traced_curl_solve(problem, config):
        with tracer.span("curl2d.curl_solve") as rec:
            sol = curl_solve(problem, config)
        rec["cells"] = problem.grid.n ** 2
        rec["steps"] = len(sol.diagnostics.times) - 1
        return sol

    write_field = cli.write_field

    def traced_write_field(path, field, t, name):
        with tracer.span("io_formats.write_field") as rec:
            write_field(path, field, t, name)
        with tracer.postcheck(rec):
            rec["bytes"] = os.path.getsize(path)

    pme._pointwise_exact = traced_pointwise
    pme.pcg = traced_pcg
    pme._step_values = traced_step_values
    pme.pme_solve = experiments.pme_solve = traced_pme_solve
    obstacle.psor_solve = traced_psor_solve
    curl2d.curl_solve = experiments.curl_solve = traced_curl_solve
    experiments.vi_residual = _plain(tracer, "experiments.vi_residual", experiments.vi_residual)
    for name in DRIVERS:
        setattr(cli, name, _plain(tracer, "experiments.driver", getattr(cli, name)))
    cli.write_field = traced_write_field
    cli.write_report = _plain(tracer, "io_formats.write_report", cli.write_report)
    cli.run = _plain(tracer, "cli.run", cli.run)


def _plain(tracer: Tracer, span_name: str, fn):
    def traced(*args, **kwargs):
        with tracer.span(span_name):
            return fn(*args, **kwargs)

    return traced


# -- per-layer metrics ---------------------------------------------------------

# metric name -> unit; every traced run reports all of them, and for each
# one lower is better
LAYER_METRICS = {
    "pme.pointwise.calls": "count",
    "pme.pointwise.cap_exits": "count",
    "pme.pointwise.self_s": "s",
    "pme.pointwise.ns_per_cell": "ns",
    "pme.pcg.calls": "count",
    "pme.pcg.iters": "count",
    "pme.pcg.iters_per_call": "iter/call",
    "pme.pcg.stagnation_exits": "count",
    "pme.pcg.self_s": "s",
    "pme.pcg.ns_per_cell_iter": "ns",
    "pme.step.attempts": "count",
    "pme.step.rejected": "count",
    "pme.step.newton_iters": "count",
    "pme.step.self_s": "s",
    "pme.pme_solve.calls": "count",
    "pme.pme_solve.accepted_steps": "count",
    "pme.pme_solve.self_s": "s",
    "obstacle.psor.calls": "count",
    "obstacle.psor.sweeps": "count",
    "obstacle.psor.self_s": "s",
    "obstacle.psor.ns_per_cell_sweep": "ns",
    "curl2d.curl_solve.calls": "count",
    "curl2d.curl_solve.steps": "count",
    "curl2d.curl_solve.self_s": "s",
    "curl2d.curl_solve.ns_per_cell_step": "ns",
    "experiments.driver.self_s": "s",
    "experiments.vi_residual.calls": "count",
    "experiments.vi_residual.self_s": "s",
    "io_formats.write_field.calls": "count",
    "io_formats.write_field.bytes": "B",
    "io_formats.write_field.self_s": "s",
    "io_formats.write_report.self_s": "s",
    "cli.run.self_s": "s",
    "trace.overhead_s": "s",
}

# span attribute summed into a counter: (span name, attribute) -> counter name
_COUNTERS = {
    ("pme.pointwise", "cap_exit"): "pme.pointwise.cap_exits",
    ("pme.pcg", "iters"): "pme.pcg.iters",
    ("pme.pcg", "stagnated"): "pme.pcg.stagnation_exits",
    ("pme.step", "rejected"): "pme.step.rejected",
    ("pme.step", "newton_iters"): "pme.step.newton_iters",
    ("pme.pme_solve", "accepted_steps"): "pme.pme_solve.accepted_steps",
    ("obstacle.psor", "sweeps"): "obstacle.psor.sweeps",
    ("curl2d.curl_solve", "steps"): "curl2d.curl_solve.steps",
    ("io_formats.write_field", "bytes"): "io_formats.write_field.bytes",
}

_CALLS = {
    "pme.pointwise": "pme.pointwise.calls",
    "pme.pcg": "pme.pcg.calls",
    "pme.step": "pme.step.attempts",
    "pme.pme_solve": "pme.pme_solve.calls",
    "obstacle.psor": "obstacle.psor.calls",
    "curl2d.curl_solve": "curl2d.curl_solve.calls",
    "experiments.vi_residual": "experiments.vi_residual.calls",
    "io_formats.write_field": "io_formats.write_field.calls",
}

# cost per cell and unit of work: metric -> (span name, work attribute or None)
_NS_PER = {
    "pme.pointwise.ns_per_cell": ("pme.pointwise", None),
    "pme.pcg.ns_per_cell_iter": ("pme.pcg", "iters"),
    "obstacle.psor.ns_per_cell_sweep": ("obstacle.psor", "sweeps"),
    "curl2d.curl_solve.ns_per_cell_step": ("curl2d.curl_solve", "steps"),
}


def counters(spans: list[dict]) -> dict[str, int]:
    """Deterministic work counts of one run (everything except times)."""
    out = {name: 0 for name, unit in LAYER_METRICS.items() if unit in ("count", "B")}
    for rec in spans:
        name = rec["name"]
        if name in _CALLS:
            out[_CALLS[name]] += 1
        for (span_name, attr), counter in _COUNTERS.items():
            if span_name == name:
                out[counter] += rec.get(attr, 0)
    return out


def self_times(spans: list[dict]) -> dict[str, float]:
    """Seconds per span name: duration minus children and excluded postchecks."""
    covered = [0.0] * len(spans)
    for rec in spans:
        if rec["parent"] is not None:
            covered[rec["parent"]] += rec["end"] - rec["start"] + rec["post_s"]
    out: dict[str, float] = {}
    for rec, cov in zip(spans, covered):
        out[rec["name"]] = out.get(rec["name"], 0.0) + rec["end"] - rec["start"] - cov
    return out


def cell_work(spans: list[dict]) -> dict[str, float]:
    """Cells times work units per `_NS_PER` metric, the divisor of its cost."""
    out = {metric: 0.0 for metric in _NS_PER}
    for rec in spans:
        for metric, (span_name, attr) in _NS_PER.items():
            if rec["name"] == span_name:
                out[metric] += rec.get("cells", 0) * (rec.get(attr, 0) if attr else 1)
    return out


def summarize(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced run, without `trace.overhead_s`."""
    out: dict[str, float] = dict(counters(spans))
    times = self_times(spans)
    for metric in LAYER_METRICS:
        if metric.endswith(".self_s"):
            out[metric] = times.get(metric[: -len(".self_s")], 0.0)
    calls = out["pme.pcg.calls"]
    out["pme.pcg.iters_per_call"] = out["pme.pcg.iters"] / calls if calls else 0.0
    for metric, work in cell_work(spans).items():
        out[metric] = 1e9 * times.get(_NS_PER[metric][0], 0.0) / work if work else 0.0
    return out
