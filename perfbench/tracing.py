"""Spans around the calls into dpmeter's layers, and the per-layer metrics.

A span is (name, start, end, parent).  Each traced function is replaced by
a wrapper at every name a caller looks it up under: every ``dpmeter``
module attribute bound to the original function, or the class attribute
for a method.  Spans are kept in flat arrays while the run lasts and are
written out once, when it ends.  Counts that only the return value knows
(branch-and-bound nodes, LP iterations, model rows, training epochs) are
read from it at the same boundary.

A layer's self time is its spans' duration minus the duration of their
direct child spans; the code is single-threaded, so children never
overlap.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

import numpy as np


def _nodes(counts, args, out):
    counts["milp.nodes"] += out.n_nodes
    counts["milp.reduced_rows"] += args[0].n_rows


def _lp_iterations(counts, args, out):
    counts["milp.lp_iterations"] += out.iterations


def _full_rows(counts, args, out):
    counts["procurement.full_rows"] += out.lp.n_rows


def _epochs(counts, args, out):
    counts["forecast.train_epochs"] += len(out.epoch_losses)


# span name -> (module, attribute or Class.method, reader of the return value)
SPANS = {
    "experiment.run_experiment": ("dpmeter.experiment", "run_experiment", None),
    "experiment.load_panel": ("dpmeter.experiment", "load_panel", None),
    "experiment.heterogeneity_sweep": ("dpmeter.experiment", "heterogeneity_sweep", None),
    "experiment.report": ("dpmeter.experiment", "report", None),
    "experiment.make_market": ("dpmeter.experiment", "make_market", None),
    "procurement.build_milp": ("dpmeter.procurement", "build_milp", _full_rows),
    "procurement.solve": ("dpmeter.procurement", "solve", None),
    "milp.solve_milp": ("dpmeter.milp.branch_bound", "solve_milp", _nodes),
    "milp.SimplexSolver.solve": ("dpmeter.milp.simplex", "SimplexSolver.solve", _lp_iterations),
    "milp.SimplexSolver.load_state": ("dpmeter.milp.simplex", "SimplexSolver.load_state", None),
    "market.bracket_index": ("dpmeter.market", "bracket_index", None),
    "forecast.forecast_scheme": ("dpmeter.forecast", "forecast_scheme", None),
    "forecast.build_features": ("dpmeter.forecast", "build_features", None),
    "forecast.train": ("dpmeter.forecast", "train", _epochs),
    "forecast.predict_batch": ("dpmeter.forecast", "predict_batch", None),
    "privacy.privatize_aggregate": ("dpmeter.privacy", "privatize_aggregate", None),
    "scenario.generate_scenarios": ("dpmeter.scenario", "generate_scenarios", None),
    "domain.MeterPanel.matrix": ("dpmeter.domain", "MeterPanel.matrix", None),
    "domain.MeterPanel.subset": ("dpmeter.domain", "MeterPanel.subset", None),
    "domain.aggregate_panel": ("dpmeter.domain", "aggregate_panel", None),
    "domain.compute_dlc": ("dpmeter.domain", "compute_dlc", None),
    "synth.generate_panel": ("dpmeter.synth", "generate_panel", None),
    "synth.kmeans_groups": ("dpmeter.synth", "kmeans_groups", None),
}

# metric -> (kind, span or counter); kinds: total span time, self time,
# number of spans, or a counter read from return values
METRICS = {
    "milp.solve_milp_s": ("time", "milp.solve_milp"),
    "milp.nodes": ("counter", "milp.nodes"),
    "milp.lp_solves": ("calls", "milp.SimplexSolver.solve"),
    "milp.lp_iterations": ("counter", "milp.lp_iterations"),
    "milp.lp_solve_s": ("time", "milp.SimplexSolver.solve"),
    "milp.load_state_calls": ("calls", "milp.SimplexSolver.load_state"),
    "milp.load_state_s": ("time", "milp.SimplexSolver.load_state"),
    "milp.reduced_rows": ("counter", "milp.reduced_rows"),
    "procurement.build_milp_s": ("time", "procurement.build_milp"),
    "procurement.full_rows": ("counter", "procurement.full_rows"),
    "procurement.solve_s": ("time", "procurement.solve"),
    "procurement.solve_self_s": ("self", "procurement.solve"),
    "market.bracket_index_calls": ("calls", "market.bracket_index"),
    "market.bracket_index_s": ("time", "market.bracket_index"),
    "forecast.forecast_scheme_s": ("time", "forecast.forecast_scheme"),
    "forecast.forecast_scheme_self_s": ("self", "forecast.forecast_scheme"),
    "forecast.build_features_calls": ("calls", "forecast.build_features"),
    "forecast.train_calls": ("calls", "forecast.train"),
    "forecast.train_epochs": ("counter", "forecast.train_epochs"),
    "forecast.train_s": ("time", "forecast.train"),
    "forecast.predict_batch_s": ("time", "forecast.predict_batch"),
    "privacy.privatize_aggregate_s": ("time", "privacy.privatize_aggregate"),
    "scenario.generate_scenarios_s": ("time", "scenario.generate_scenarios"),
    "domain.matrix_calls": ("calls", "domain.MeterPanel.matrix"),
    "domain.matrix_s": ("time", "domain.MeterPanel.matrix"),
    "domain.aggregate_panel_s": ("time", "domain.aggregate_panel"),
    "domain.subset_s": ("time", "domain.MeterPanel.subset"),
    "domain.compute_dlc_s": ("time", "domain.compute_dlc"),
    "synth.generate_panel_s": ("time", "synth.generate_panel"),
    "synth.kmeans_groups_s": ("time", "synth.kmeans_groups"),
    "experiment.make_market_s": ("time", "experiment.make_market"),
    "experiment.run_experiment_s": ("time", "experiment.run_experiment"),
    "experiment.load_panel_calls": ("calls", "experiment.load_panel"),
    "experiment.heterogeneity_sweep_s": ("time", "experiment.heterogeneity_sweep"),
    "experiment.report_s": ("time", "experiment.report"),
}


def metric_unit(name: str) -> str:
    return "s" if METRICS[name][0] in ("time", "self") else "count"


class Tracer:
    """Records spans and counters while installed; see the module doc."""

    def __init__(self):
        self.names = list(SPANS)
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.counts: Counter = Counter()
        self._open: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, nid: int, fn, reader):
        name_id, start, end, parent = self.name_id, self.start, self.end, self.parent
        open_spans, counts = self._open, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(open_spans[-1] if open_spans else -1)
            start.append(0.0)
            end.append(0.0)
            open_spans.append(idx)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                start[idx] = t0
                open_spans.pop()
            if reader is not None:
                reader(counts, args, out)
            return out

        return traced

    def install(self) -> None:
        for nid, (module_name, attr, reader) in enumerate(SPANS.values()):
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                orig = cls.__dict__[meth]
                self._undo.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(nid, orig, reader))
                continue
            orig = getattr(module, attr)
            traced = self._wrap(nid, orig, reader)
            for mod in [m for k, m in sys.modules.items() if k.split(".")[0] == "dpmeter"]:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._undo.append((mod, key, orig))
                        setattr(mod, key, traced)

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    def mark(self) -> tuple[int, Counter]:
        """Position to split phases at: span count and counters so far."""
        return len(self.start), Counter(self.counts)

    def _sums(self, lo: int, hi: int) -> dict[str, dict[str, float]]:
        ids = np.frombuffer(self.name_id, dtype=np.int32)[lo:hi]
        dur = (np.frombuffer(self.end)[lo:hi] - np.frombuffer(self.start)[lo:hi])
        par = np.frombuffer(self.parent, dtype=np.int32)[lo:hi]
        has_parent = par >= lo
        child = np.bincount(par[has_parent] - lo, weights=dur[has_parent], minlength=dur.size)
        k = len(self.names)
        return {
            "time": dict(zip(self.names, np.bincount(ids, weights=dur, minlength=k))),
            "self": dict(zip(self.names, np.bincount(ids, weights=dur - child, minlength=k))),
            "calls": dict(zip(self.names, np.bincount(ids, minlength=k).astype(float))),
        }

    def per_layer(self, setup_mark, rounds_mark, n_rounds: int) -> dict[str, float]:
        """Each metric over one pass: the traced set-up plus one round.

        The round part is the total over ``n_rounds`` identical rounds
        divided by their number, so counts come out exact.
        """
        setup = self._sums(setup_mark[0], rounds_mark[0])
        rounds = self._sums(rounds_mark[0], len(self.start))
        setup_counts = rounds_mark[1] - setup_mark[1]
        round_counts = self.counts - rounds_mark[1]
        out = {}
        for metric, (kind, key) in METRICS.items():
            if kind == "counter":
                out[metric] = setup_counts[key] + round_counts[key] / n_rounds
            else:
                out[metric] = float(setup[kind][key] + rounds[kind][key] / n_rounds)
        return out

    def op_table(self, op_spans, labels) -> list[dict]:
        """Per op: its wall time and the time and calls of each span in it."""
        start = np.frombuffer(self.start)
        dur = np.frombuffer(self.end) - start
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        table = []
        for (t0, t1), label in zip(op_spans, labels):
            inside = (start >= t0) & (start <= t1)
            k = len(self.names)
            secs = np.bincount(ids[inside], weights=dur[inside], minlength=k)
            calls = np.bincount(ids[inside], minlength=k)
            table.append({
                "op": label,
                "wall_s": t1 - t0,
                "spans": {n: [float(s), int(c)] for n, s, c in zip(self.names, secs, calls) if c},
            })
        return table

    def write(self, path: Path, summary: dict) -> None:
        """Spans to ``<path>.npz``, the summary to ``<path>.json``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path.with_suffix(".npz"),
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            parent=np.frombuffer(self.parent, dtype=np.int32),
        )
        path.with_suffix(".json").write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
