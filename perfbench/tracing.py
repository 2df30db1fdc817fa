"""In-memory spans around the public functions of each gnssweight layer.

Tracing works from outside the package: ``install`` rebinds names in the
modules that consume a layer (``solve_wls`` as imported by ``featurize``,
``residuals``, ``evaluation`` and ``baselines``; ``lstm_backward`` as seen by
``nn.train``; ...) to wrappers that record a span per call, and restores
the originals on exit. Nothing under ``src/`` is edited and the untraced
run pays nothing.

A span is ``[id, name, parent_id, start_s, end_s, unit, attrs]``. ``unit``
is -1 during set-up and the index of the timed unit of work otherwise, so
per-layer figures can be split into set-up and timed parts.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import time

import numpy as np

# N bins for per-call solver and leave-one-out timings.
N_BINS = ((4, 7), (8, 11), (12, 15), (16, 19), (20, 99))


def n_bin(n: int) -> str:
    for lo, hi in N_BINS:
        if lo <= n <= hi:
            return f"n{lo:02d}_{hi:02d}" if hi < 99 else f"n{lo:02d}p"
    return "n_other"


class Tracer:
    """Span recorder: a list of spans plus the stack of open span ids."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.unit = -1

    def open(self, name: str, attrs: dict | None = None) -> list:
        parent = self.stack[-1] if self.stack else None
        attrs = {} if attrs is None else attrs
        span = [len(self.spans), name, parent, time.perf_counter(), None, self.unit, attrs]
        self.spans.append(span)
        self.stack.append(span[0])
        return span

    def close(self, span: list) -> None:
        span[4] = time.perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, attrs: dict | None = None):
        s = self.open(name, attrs)
        try:
            yield s
        except BaseException as e:
            s[6]["error"] = type(e).__name__
            raise
        finally:
            self.close(s)

    def current(self) -> list | None:
        return self.spans[self.stack[-1]] if self.stack else None

    def wrap(self, name: str, fn, before=None, after=None):
        """Wrapper recording one span per call.

        ``before(attrs, args, kwargs)`` and ``after(attrs, result, args,
        kwargs)`` add attributes; an exception's class name is stored as
        ``attrs['error']`` and re-raised.
        """

        def wrapper(*args, **kwargs):
            attrs = {}
            if before is not None:
                before(attrs, args, kwargs)
            with self.span(name, attrs):
                result = fn(*args, **kwargs)
            if after is not None:
                after(attrs, result, args, kwargs)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")


def _solve_before(attrs, args, kwargs):
    epoch, weights = args[0], args[1]
    init = args[2] if len(args) > 2 else kwargs.get("init")
    w = np.asarray(weights, dtype=float)
    attrs["n"] = epoch.n
    attrs["equal"] = bool(w.shape == (epoch.n,) and np.all(w == 1.0))
    attrs["epoch"] = [epoch.session_id, epoch.time]
    h = hashlib.blake2b(digest_size=12)
    h.update(epoch.sat_array().tobytes())
    h.update(epoch.pr_array().tobytes())
    h.update(w.tobytes())
    if init is not None:
        h.update(repr((init.position, sorted(init.clock_bias.items()))).encode())
    attrs["key"] = h.hexdigest()


def _residuals_before(attrs, args, kwargs):
    attrs["n"] = args[0].n


def _residuals_after(attrs, result, args, kwargs):
    attrs["failed_rows"] = len(result.failed_rows)


def _featurize_after(attrs, result, args, kwargs):
    attrs["skipped"] = result is None


def _rows_before(attrs, args, kwargs):
    attrs["rows"] = int(args[1].shape[0])


def _session_after(attrs, result, args, kwargs):
    epochs, _ = result
    attrs["meas"] = sum(e.n for e in epochs)


def _eval_session_before(attrs, args, kwargs):
    attrs["epochs"] = sum(1 for e in args[0].epochs if e.truth is not None)


def _fde_after(attrs, result, args, kwargs):
    attrs["excluded"] = len(result.excluded)


def _write_after(attrs, result, args, kwargs):
    attrs["bytes"] = os.path.getsize(args[1])


def _meas_before(attrs, args, kwargs):
    attrs["meas"] = args[1].n  # args[0] is the TrackingHistory


def _kernel_hook(tracer: Tracer, fn):
    """Store iterations and status of each LM solve on the enclosing solve span."""

    def wrapper(*args):
        out = fn(*args)
        span = tracer.current()
        if span is not None and span[1] == "solver.solve_wls":
            span[6]["iters"] = int(out[1])
            span[6]["status"] = int(out[2])
        return out

    wrapper.__wrapped__ = fn
    return wrapper


def _replacements(tracer: Tracer):
    """(owner, attribute, replacement) for every traced call site."""
    from gnssweight import (
        _kernels,
        baselines,
        cli,
        evaluation,
        features,
        featurize,
        nn,
        residuals,
        sim,
        solver,
    )

    spans = [
        # solve_wls as each consumer imported it; ``solver`` itself for the
        # benchmark's own calls, which go through the module
        *[(mod, "solve_wls", "solver.solve_wls", _solve_before, None)
          for mod in (featurize, residuals, evaluation, baselines, solver)],
        (featurize, "build_residual_matrix", "residuals.build", _residuals_before, _residuals_after),
        (featurize.EpochFeaturizer, "featurize", "featurize.epoch", None, _featurize_after),
        (featurize, "fold_residual_row", "featurize.fold", None, None),
        (features.TrackingHistory, "update_and_extract", "features.track", _meas_before, None),
        (nn, "lstm_forward", "nn.forward", _rows_before, None),
        (nn, "lstm_backward", "nn.backward", _rows_before, None),
        (cli, "train", "nn.train", None, None),
        (evaluation, "evaluate_session", "evaluation.session", _eval_session_before, None),
        (evaluation, "fde_solve", "baselines.fde", None, _fde_after),
        (cli, "calibrate_sota", "baselines.calibrate", None, None),
        (sim, "generate_session", "sim.session", None, _session_after),
        (cli, "write_dataset", "dataio.write", None, _write_after),
        (cli, "read_dataset", "dataio.read", None, None),
    ]
    out = [(owner, attr, tracer.wrap(name, owner.__dict__[attr], before, after))
           for owner, attr, name, before, after in spans]
    out.append((_kernels, "lm_solve", _kernel_hook(tracer, _kernels.lm_solve)))
    return out


@contextlib.contextmanager
def install(tracer: Tracer):
    """Rebind every traced call site to a recording wrapper; restore on exit."""
    saved = []
    try:
        for owner, attr, replacement in _replacements(tracer):
            saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, replacement)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# --- per-layer metrics ------------------------------------------------------

CLI_STAGES = ("simulate", "featurize", "train_full", "train_residual", "evaluate")

# name -> unit, in the order BENCHMARK.json lists them.
LAYER_UNITS = {
    "solver.calls": "count",
    **{f"solver.ms_per_call.{n_bin(lo)}": "ms" for lo, _ in N_BINS},
    "solver.iters_p50": "count",
    "solver.iters_p95": "count",
    "solver.nonconverged": "count",
    "solver.singular": "count",
    "solver.not_enough": "count",
    "solver.equal_weight_calls_per_epoch": "count",
    "solver.unique_ratio": "ratio",
    "solver.self_ms": "ms",
    **{f"residuals.ms_per_call.{n_bin(lo)}": "ms" for lo, _ in N_BINS},
    "residuals.self_ms": "ms",
    "residuals.failed_rows": "count",
    "featurize.ms_per_epoch": "ms",
    "featurize.self_ms": "ms",
    "featurize.skipped": "count",
    "featurize.fold_us_per_row": "us",
    "features.track_us_per_meas": "us",
    "nn.forward_us_per_row": "us",
    "nn.backward_us_per_row": "us",
    "nn.self_ms": "ms",
    "evaluation.solves_per_epoch": "count",
    "evaluation.ms_per_epoch": "ms",
    "baselines.fde_ms_per_call": "ms",
    "baselines.fde_exclusions": "count",
    "baselines.calibrate_s": "s",
    "sim.us_per_meas": "us",
    "dataio.write_s": "s",
    "dataio.read_s": "s",
    "dataio.bytes": "bytes",
    "dataio.reads": "count",
    **{f"cli.{stage}_s": "s" for stage in CLI_STAGES},
    "bench.unit_ms_p50": "ms",
    "bench.self_ms": "ms",
    "trace.overhead_s": "s",
}


def _mean(values) -> float:
    return float(np.mean(values)) if len(values) else 0.0


def layer_metrics(spans, n_units: int, overhead_s: float) -> dict:
    """Per-layer figures from one traced run.

    Rates (per call, row, epoch or measurement) use every span, set-up
    included, so layers that only run during set-up are still measured.
    Counts and self times are per timed unit of work (one pipeline, one
    fix, one training pass): the timed spans divided by ``n_units``.
    Layers a workload never reaches read 0.
    """
    child_time = {}
    for s in spans:
        if s[2] is not None:
            child_time[s[2]] = child_time.get(s[2], 0.0) + (s[4] - s[3])
    by_name: dict = {}
    for s in spans:
        by_name.setdefault(s[1], []).append(s)

    def dur(s):
        return s[4] - s[3]

    def named(name, timed=False):
        return [s for s in by_name.get(name, []) if not timed or s[5] >= 0]

    def per_unit(value):
        return value / n_units if n_units else 0.0

    def self_ms(prefix):
        total = sum(
            dur(s) - child_time.get(s[0], 0.0)
            for s in spans
            if s[5] >= 0 and s[1].split(".", 1)[0] == prefix
        )
        return per_unit(total) * 1e3

    def ancestor_names(s):
        while s[2] is not None:
            s = spans[s[2]]
            yield s[1]

    m = {}
    solves = named("solver.solve_wls")
    timed_solves = [s for s in solves if s[5] >= 0]
    m["solver.calls"] = per_unit(len(timed_solves))
    for lo, _ in N_BINS:
        b = n_bin(lo)
        m[f"solver.ms_per_call.{b}"] = _mean([dur(s) * 1e3 for s in solves if n_bin(s[6]["n"]) == b])
        m[f"residuals.ms_per_call.{b}"] = _mean(
            [dur(s) * 1e3 for s in named("residuals.build") if n_bin(s[6]["n"]) == b]
        )
    iters = [s[6]["iters"] for s in solves if "iters" in s[6]]
    m["solver.iters_p50"] = float(np.percentile(iters, 50)) if iters else 0.0
    m["solver.iters_p95"] = float(np.percentile(iters, 95)) if iters else 0.0
    m["solver.nonconverged"] = per_unit(sum(1 for s in timed_solves if s[6].get("status") == 1))
    m["solver.singular"] = per_unit(sum(1 for s in timed_solves if s[6].get("status") == 2))
    m["solver.not_enough"] = per_unit(
        sum(1 for s in timed_solves if s[6].get("error") == "NotEnoughMeasurements")
    )
    all_in_view = [
        s for s in timed_solves
        if s[6]["equal"] and (s[2] is None or spans[s[2]][1] != "residuals.build")
    ]
    epochs = {(s[5], *s[6]["epoch"]) for s in all_in_view}
    m["solver.equal_weight_calls_per_epoch"] = len(all_in_view) / len(epochs) if epochs else 0.0
    keys = {(s[5], s[6]["key"]) for s in timed_solves}
    m["solver.unique_ratio"] = len(keys) / len(timed_solves) if timed_solves else 0.0
    m["solver.self_ms"] = self_ms("solver")
    m["residuals.self_ms"] = self_ms("residuals")
    m["residuals.failed_rows"] = per_unit(
        sum(s[6].get("failed_rows", 0) for s in named("residuals.build", timed=True))
    )

    fz = named("featurize.epoch")
    m["featurize.ms_per_epoch"] = _mean([dur(s) * 1e3 for s in fz])
    m["featurize.self_ms"] = self_ms("featurize")
    m["featurize.skipped"] = per_unit(sum(1 for s in fz if s[5] >= 0 and s[6].get("skipped")))
    m["featurize.fold_us_per_row"] = _mean([dur(s) * 1e6 for s in named("featurize.fold")])
    track = named("features.track")
    meas = sum(s[6]["meas"] for s in track)
    m["features.track_us_per_meas"] = sum(dur(s) for s in track) * 1e6 / meas if meas else 0.0

    for kind in ("forward", "backward"):
        sp = named(f"nn.{kind}")
        rows = sum(s[6]["rows"] for s in sp)
        m[f"nn.{kind}_us_per_row"] = sum(dur(s) for s in sp) * 1e6 / rows if rows else 0.0
    m["nn.self_ms"] = self_ms("nn")

    sessions = named("evaluation.session")
    ev_epochs = sum(s[6]["epochs"] for s in sessions)
    ev_solves = sum(1 for s in solves if "evaluation.session" in ancestor_names(s))
    m["evaluation.solves_per_epoch"] = ev_solves / ev_epochs if ev_epochs else 0.0
    m["evaluation.ms_per_epoch"] = sum(dur(s) for s in sessions) * 1e3 / ev_epochs if ev_epochs else 0.0
    fde = named("baselines.fde")
    m["baselines.fde_ms_per_call"] = _mean([dur(s) * 1e3 for s in fde])
    m["baselines.fde_exclusions"] = per_unit(sum(s[6].get("excluded", 0) for s in fde if s[5] >= 0))
    m["baselines.calibrate_s"] = _mean([dur(s) for s in named("baselines.calibrate")])

    gen = named("sim.session")
    meas = sum(s[6]["meas"] for s in gen)
    m["sim.us_per_meas"] = sum(dur(s) for s in gen) * 1e6 / meas if meas else 0.0
    writes = named("dataio.write")
    m["dataio.write_s"] = _mean([dur(s) for s in writes])
    m["dataio.read_s"] = _mean([dur(s) for s in named("dataio.read")])
    m["dataio.bytes"] = _mean([s[6]["bytes"] for s in writes if "bytes" in s[6]])
    m["dataio.reads"] = per_unit(len(named("dataio.read", timed=True)))
    for stage in CLI_STAGES:
        m[f"cli.{stage}_s"] = _mean([dur(s) for s in named(f"cli.{stage}")])

    units = [dur(s) * 1e3 for s in named("bench.unit", timed=True)]
    m["bench.unit_ms_p50"] = float(np.median(units)) if units else 0.0
    m["bench.self_ms"] = self_ms("bench")
    m["trace.overhead_s"] = overhead_s
    assert set(m) == set(LAYER_UNITS), set(m) ^ set(LAYER_UNITS)
    return {name: {"value": m[name], "unit": unit} for name, unit in LAYER_UNITS.items()}
