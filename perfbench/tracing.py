"""Traced mode: spans and counts recorded around calls into each module.

``Tracer.installed()`` replaces the public functions and methods of the
package's modules with thin wrappers, in every module namespace that holds
them (``from .x import f`` makes a second binding), and puts the originals
back on exit.  The plain mode never imports this file.

A span is ``[name, start, end, parent, case, error, counts]``.  Spans stay in
memory and are written out when the run ends.  Busy time of a name is the
summed duration of its outermost spans; self time subtracts the direct
children.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import statistics
import sys
import time

import numpy as np

PACKAGE = "latticeframes"
LAYERS = ("cli", "lattice", "generators", "periodization", "classify", "oracle")

FUNCTIONS = {
    "cli": ["main", "load_config", "build_generator", "dump_report", "dump_text"],
    "lattice": ["new_lattice", "integer_box", "lattice_points_in_box",
                "wrap_to_unit_cell", "operator_inf_norm", "spectral_norm"],
    "generators": ["tail_bound", "eval_fourier", "eval_spatial", "l2_norm_squared",
                   "load_sampled_csv"],
    "periodization": ["compute_phi", "choose_truncation", "cross_phi_values",
                      "autocorrelation", "phi_fourier_coeffs", "perturbed_phi",
                      "periodize_l1", "table_to_csv", "table_to_json", "grid_gamma"],
    "classify": ["classify_table", "spectral_bounds", "classify_translates",
                 "classify_weighted_exponentials", "compact_support_riesz_check",
                 "perturbation_frame_check"],
    "oracle": ["gram_matrix", "gram_eigen_bounds", "synthesis_norm",
               "analysis_coefficients", "project_onto_span"],
}

# (module, base class, method names): wrapped on every subclass that defines them
METHODS = [
    ("generators", "Generator", ["fourier", "spatial", "norm_squared", "fourier_tail_radius"]),
    ("oracle", "GramMatrix", ["dense"]),
]


def _fourier_counts(args, kwargs, result):
    shape = np.shape(args[1] if len(args) > 1 else kwargs["xi"])
    return {"points": int(np.prod(shape[:-1])) if len(shape) > 1 else 1}


def _table_counts(args, kwargs, result):
    d = result.lattice.dim
    return {"radius": result.trunc_radius,
            "main_terms_points": (2 * result.trunc_radius + 1) ** d * result.grid_res**d}


def _dense_counts(args, kwargs, result):
    m = (2 * args[0].half_width + 1) ** args[0].dim
    return {"m": m, "bytes": m * m * 16}


COUNTERS = {
    "generators.fourier": _fourier_counts,
    "periodization.compute_phi": _table_counts,
    "oracle.dense": _dense_counts,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.case: str | None = None

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else None, self.case, None, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[5] = type(exc).__name__
                raise
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if counter is not None:
                try:
                    rec[6] = counter(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    pass  # a changed signature loses the count, not the case
            return result

        return wrapper

    def _patches(self):
        """(owner, attribute, original, wrapper) for every binding to replace."""
        homes = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        out = []
        for layer, names in FUNCTIONS.items():
            home = homes[layer]
            for fname in names:
                original = getattr(home, fname, None)
                if original is None:  # gone from the package: its metrics read 0
                    continue
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            out.append((mod, attr, original, wrapper))
        for layer, base_name, methods in METHODS:
            home = homes[layer]
            base = getattr(home, base_name, None)
            if base is None:
                continue
            classes = [c for c in vars(home).values()
                       if inspect.isclass(c) and issubclass(c, base)]
            for cls in classes:
                for meth in methods:
                    original = cls.__dict__.get(meth)
                    if original is None or getattr(original, "__isabstractmethod__", False):
                        continue
                    out.append((cls, meth, original,
                                self._wrap(f"{layer}.{meth}", original)))
        return out

    @contextlib.contextmanager
    def installed(self):
        patches = self._patches()
        try:
            for owner, attr, _, wrapper in patches:
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original, _ in reversed(patches):
                setattr(owner, attr, original)

    @contextlib.contextmanager
    def in_case(self, name: str):
        self.case = name
        try:
            yield
        finally:
            self.case = None

    def take(self) -> list[list]:
        """Hand over the spans recorded so far and start a new list."""
        spans = list(self.spans)
        self.spans.clear()
        return spans


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def span_table(spans: list[list]) -> dict:
    """Per span name: calls, busy (outermost) and self seconds, summed counts.

    Also per case: fourier points evaluated under compute_phi (the lattice-sum
    terms x points, pilot included) and tail_bound calls made by
    choose_truncation.
    """
    child_time = [0.0] * len(spans)
    for rec in spans:
        if rec[3] is not None:
            child_time[rec[3]] += rec[2] - rec[1]

    names: dict[str, dict] = {}
    layers = {layer: {"busy": 0.0, "self": 0.0, "errors": 0} for layer in LAYERS}
    cases: dict[str, dict] = {}
    for i, rec in enumerate(spans):
        name, dur, self_time = rec[0], rec[2] - rec[1], rec[2] - rec[1] - child_time[i]
        layer = layer_of(name)
        ancestors = []
        p = rec[3]
        while p is not None:
            ancestors.append(spans[p][0])
            p = spans[p][3]
        row = names.setdefault(name, {"calls": 0, "busy": 0.0, "self": 0.0, "counts": {}})
        row["calls"] += 1
        row["self"] += self_time
        layers[layer]["self"] += self_time
        if name not in ancestors:
            row["busy"] += dur
        if all(layer_of(a) != layer for a in ancestors):
            layers[layer]["busy"] += dur
        if rec[5] is not None and (not ancestors or layer_of(ancestors[0]) != layer):
            layers[layer]["errors"] += 1  # an error that left the layer
        for k, v in (rec[6] or {}).items():
            row["counts"].setdefault(k, []).append(v)

        per_case = cases.setdefault(rec[4], {"lattice_sum_terms_points": 0,
                                             "truncations": 0,
                                             "tail_bound_calls_in_truncation": 0})
        if name == "generators.fourier" and "periodization.compute_phi" in ancestors:
            per_case["lattice_sum_terms_points"] += rec[6]["points"] if rec[6] else 0
        elif name == "periodization.choose_truncation":
            per_case["truncations"] += 1
        elif name == "generators.tail_bound" and "periodization.choose_truncation" in ancestors:
            per_case["tail_bound_calls_in_truncation"] += 1
    return {"names": names, "layers": layers, "cases": cases}


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """The per-layer metrics of one traced pass."""
    t = span_table(spans)
    names, layers = t["names"], t["layers"]

    def row(name):
        return names.get(name, {"calls": 0, "busy": 0.0, "self": 0.0, "counts": {}})

    def busy(*ns):
        return sum(row(n)["busy"] for n in ns)

    def counts(name, key):
        return row(name)["counts"].get(key, [])

    totals = {k: sum(c[k] for c in t["cases"].values())
              for k in ("lattice_sum_terms_points", "tail_bound_calls_in_truncation")}
    lattice_points = totals["lattice_sum_terms_points"]
    main_points = sum(counts("periodization.compute_phi", "main_terms_points"))
    truncations = row("periodization.choose_truncation")["calls"]
    out = {
        "cli.config_busy_s": busy("cli.load_config", "cli.build_generator"),
        "cli.dump_busy_s": busy("cli.dump_report", "cli.dump_text"),
        "lattice.busy_s": layers["lattice"]["busy"],
        "generators.fourier_calls": row("generators.fourier")["calls"],
        "generators.fourier_points": sum(counts("generators.fourier", "points")),
        "generators.fourier_busy_s": busy("generators.fourier"),
        "generators.tail_bound_calls": row("generators.tail_bound")["calls"],
        "generators.tail_bound_busy_s": busy("generators.tail_bound"),
        "periodization.compute_phi_busy_s": busy("periodization.compute_phi"),
        "periodization.lattice_sum_terms_points": lattice_points,
        "periodization.pilot_share": (
            max(0.0, 1.0 - main_points / lattice_points) if lattice_points else 0.0),
        "periodization.choose_truncation_busy_s": busy("periodization.choose_truncation"),
        "periodization.tail_bound_calls_per_truncation": (
            totals["tail_bound_calls_in_truncation"] / truncations if truncations else 0.0),
        "periodization.trunc_radius_max": max(counts("periodization.compute_phi", "radius"),
                                              default=0),
        "periodization.autocorrelation_calls": row("periodization.autocorrelation")["calls"],
        "periodization.autocorrelation_busy_s": busy("periodization.autocorrelation"),
        "periodization.cross_phi_busy_s": busy("periodization.cross_phi_values"),
        "periodization.errors": layers["periodization"]["errors"],
        "classify.busy_s": layers["classify"]["busy"],
        "oracle.gram_entries_busy_s": busy("oracle.gram_matrix"),
        "oracle.gram_dense_busy_s": busy("oracle.dense"),
        "oracle.dense_bytes": sum(counts("oracle.dense", "bytes")),
        "oracle.gram_eig_self_s": row("oracle.gram_eigen_bounds")["self"],
        "oracle.gram_size_max": max(counts("oracle.dense", "m"), default=0),
        "oracle.project_busy_s": busy("oracle.project_onto_span"),
        "oracle.synthesis_busy_s": busy("oracle.synthesis_norm"),
        "oracle.analysis_busy_s": busy("oracle.analysis_coefficients"),
        "oracle.errors": layers["oracle"]["errors"],
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layers[layer]["self"]
    return out


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}


def spans_json(spans: list[list]) -> list[dict]:
    keys = ("name", "start", "end", "parent", "case", "error", "counts")
    return [dict(zip(keys, rec)) for rec in spans]
