"""Command-line front end.

Subcommands drive the pipeline generator -> lattice -> periodization table ->
classification -> Gram cross-check and emit deterministic JSON reports or CSV
grid dumps.  Exit codes: 0 success, 2 configuration/validation error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, fields

import numpy as np

from . import classify as _classify
from . import oracle as _oracle
from . import periodization as _periodization
from .classify import Verdict
from .errors import LatticeFramesError
from .generators import (
    BSpline,
    FrequencyBox,
    Gaussian,
    Generator,
    Sinc,
    load_sampled_csv,
)
from .lattice import check_integer, check_positive, new_lattice

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

# RunConfig annotation type name -> (accepted Python types, name in error messages)
_FIELD_TYPES = {"int": (int, "an integer"), "float": ((int, float), "a number"),
                "dict": (dict, "an object"), "list": (list, "a list"), "str": (str, "a string")}


@dataclass
class RunConfig:
    generator: dict
    lattice: list
    grid_res: int = 4096
    target_tail: float | None = None
    eps_zero: float | None = None
    class_tol: float = _classify.DEFAULT_CLASS_TOL
    gram_half_width: int | None = None  # by default the largest M <= 8 under the size cap
    out: str | None = None

    def validate(self) -> RunConfig:
        # annotations are strings such as "float | None": a type name, maybe optional
        for f in fields(self):
            v = getattr(self, f.name)
            kind, _, optional = f.type.partition(" | ")
            accepted, noun = _FIELD_TYPES[kind]
            if isinstance(v, bool) or not (isinstance(v, accepted) or v is None and optional):
                raise ValueError(f"{f.name} must be {noun}, got {v!r}")
        # a grid too large for the lattice's dimension fails where a table is built
        _periodization._validate_grid(self.grid_res, 1)
        # np.asarray(dtype=object) keeps leaves as given, and rows of unequal
        # length as lists, which are not numbers either
        leaves = np.asarray(self.lattice, dtype=object).ravel()
        if not all(isinstance(v, (int, float)) and not isinstance(v, bool)
                   and math.isfinite(v) for v in leaves):
            raise ValueError(f"lattice must be a matrix of finite numbers, got {self.lattice!r}")
        for name in ("target_tail", "eps_zero", "class_tol"):
            if getattr(self, name) is not None:
                check_positive(name, getattr(self, name))
        if self.gram_half_width is None:
            self.gram_half_width = next((m for m in range(8, 0, -1) if (2 * m + 1) ** len(
                self.lattice) <= _oracle.MAX_GRAM_SIZE), 1)
        check_integer("gram_half_width", self.gram_half_width, 1)
        return self

    def resolved(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "out"}


def preset_config(name: str) -> RunConfig:
    """Built-in configurations; no external files needed."""
    third = 1.0 / 3.0
    presets = {
        "example": RunConfig({"kind": "frequency_box", "lower": [-third], "upper": [third]},
                             [[1.0]], grid_res=1024),
        "sinc": RunConfig({"kind": "sinc", "dim": 1}, [[1.0]]),
        "bspline1": RunConfig({"kind": "bspline", "order": 1, "dim": 1}, [[1.0]]),
        "bspline3": RunConfig({"kind": "bspline", "order": 3, "dim": 1}, [[1.0]]),
        "gauss": RunConfig({"kind": "gaussian", "width": 1.0, "dim": 1}, [[1.0]]),
        "sinc2d": RunConfig({"kind": "sinc", "dim": 2}, [[1.0, 1.0], [0.0, 1.0]],
                            grid_res=256, gram_half_width=2),
    }
    if name not in presets:
        raise ValueError(f"unknown preset {name!r}; choose from {sorted(presets)}")
    return presets[name]


def build_generator(spec: dict) -> Generator:
    kind = spec.get("kind")
    if kind == "frequency_box":
        return FrequencyBox(spec["lower"], spec["upper"])
    if kind == "sinc":
        return Sinc(dim=spec.get("dim", 1))
    if kind == "bspline":
        return BSpline(order=spec["order"], dim=spec.get("dim", 1))
    if kind == "gaussian":
        return Gaussian(width=float(spec.get("width", 1.0)), dim=spec.get("dim", 1))
    if kind == "sampled":
        return load_sampled_csv(spec["csv"], support_radius=spec.get("support_radius"))
    raise ValueError(f"unknown generator kind {kind!r}")


def load_config(args) -> RunConfig:
    if args.preset:
        cfg = preset_config(args.preset)
    elif args.config:
        with open(args.config) as fh:
            raw = json.load(fh)
        known = set(RunConfig.__dataclass_fields__)
        unknown = sorted(set(raw) - known)
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        cfg = RunConfig(**raw)
    else:
        raise ValueError("either --preset or --config is required")
    if args.grid is not None:
        cfg.grid_res = args.grid
    if args.out is not None:
        cfg.out = args.out
    return cfg.validate()


# ---------------------------------------------------------------------------
# deterministic serialization
# ---------------------------------------------------------------------------


def _round_floats(obj):
    """Normalize floats to 12 significant digits for byte-stable reports."""
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def dump_report(report: dict, out: str | None):
    dump_text(json.dumps(_round_floats(report), indent=2) + "\n", out)


def dump_text(text: str, out: str | None):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands: each handler returns a report dict or CSV text
# ---------------------------------------------------------------------------


def _generator_lattice(cfg: RunConfig):
    return build_generator(cfg.generator), new_lattice(np.asarray(cfg.lattice, dtype=float))


def _table(cfg: RunConfig):
    g, lattice = _generator_lattice(cfg)
    return g, lattice, _periodization.compute_phi(g, lattice, cfg.grid_res, cfg.target_tail)


def _classify_report(cfg: RunConfig, args) -> dict:
    g, lattice, table = _table(cfg)
    cls = _classify.classify_table(table, cfg.eps_zero, cfg.class_tol)
    gram = _oracle.gram_matrix(g, lattice, cfg.gram_half_width)
    lo, hi = _oracle.gram_eigen_bounds(gram)
    # finite sections see the whole essential range: the upper bound
    # always applies, the lower one only when there is no zero set
    # (otherwise sections are expected to be near-singular)
    consistent = cls.upper is None or hi <= cls.upper + 0.05
    if cls.verdict in (Verdict.RIESZ_SEQUENCE, Verdict.ORTHONORMAL_SEQUENCE):
        consistent = consistent and lo >= cls.lower - 0.05
    return {
        "verdict": cls.verdict.value,
        "lower": cls.lower,
        "upper": cls.upper,
        "zero_fraction": cls.evidence["zero_fraction"],
        "grid_res": table.grid_res,
        "trunc_radius": table.trunc_radius,
        "tail": table.tail,
        "eps_zero": cls.evidence["eps_zero"],
        "class_tol": cfg.class_tol,
        "oracle": {
            "half_width": cfg.gram_half_width,
            "lambda_min": lo,
            "lambda_max": hi,
            "consistent": consistent,
        },
    }


def _phi_csv(cfg: RunConfig, args) -> str:
    return _periodization.table_to_csv(_table(cfg)[2])


def _gram_csv(cfg: RunConfig, args) -> str:
    dense = _oracle.gram_matrix(*_generator_lattice(cfg), cfg.gram_half_width).dense()
    return "".join(",".join(f"{v.real:.12g},{v.imag:.12g}" for v in row) + "\n"
                   for row in dense)


def _coeffs_report(cfg: RunConfig, args) -> dict:
    ns, values = _periodization.phi_fourier_coeffs(_table(cfg)[2], args.nmax)
    entries = [{"n": n, "re": v.real, "im": v.imag} for n, v in zip(ns.tolist(), values.tolist())]
    return {"n_max": args.nmax, "coefficients": entries}


def _perturb_report(cfg: RunConfig, args) -> dict:
    table = _table(cfg)[2]
    check = _classify.perturbation_frame_check(table, args.n, cfg.eps_zero, cfg.class_tol)
    cls = check.classification
    return {
        "shift_index": list(args.n),
        "verdict": cls.verdict.value,
        "lower": cls.lower,
        "upper": cls.upper,
        "zero_fraction": cls.evidence["zero_fraction"],
        "frame_for_original": check.frame_for_original,
        "inf_on_original_support": check.inf_on_original_support,
    }


def _project_report(cfg: RunConfig, args) -> dict:
    g, lattice, table = _table(cfg)
    if args.psi.strip().startswith("{"):
        psi = build_generator(json.loads(args.psi))
    else:
        psi = build_generator(preset_config(args.psi).generator)
    result = _oracle.project_onto_span(g, lattice, psi, table, cfg.eps_zero)
    return {
        "residual_norm_sq": result.residual_norm_sq,
        "is_member": result.is_member,
        "psi": psi.label,
    }


# name -> (handler, extra argparse arguments as flag -> keyword arguments)
COMMANDS = {
    "classify": (_classify_report, {}),
    "phi": (_phi_csv, {}),
    "gram": (_gram_csv, {}),
    "coeffs": (_coeffs_report, {"--nmax": {"type": int, "default": 2}}),
    "perturb": (_perturb_report, {
        "--n": {"type": int, "nargs": "+", "required": True,
                "help": "integer shift index (one value per dimension)"}}),
    "project": (_project_report, {
        "--psi": {"required": True, "help": "preset name or inline generator JSON"}}),
}


def _example(out: str | None) -> int:
    """Run the built-in box example end to end and check its verdict."""
    report = _classify_report(preset_config("example").validate(), None)
    ok = (
        report["verdict"] == "ParsevalFrameSequence"
        and abs(report["lower"] - 1.0) <= 1e-6
        and abs(report["upper"] - 1.0) <= 1e-6
        and report["zero_fraction"] > 0.25
    )
    dump_text(
        f"verdict: {report['verdict']} with bounds "
        f"({report['lower']:.9f}, {report['upper']:.9f})\n"
        "not a Riesz sequence: zero set has fraction "
        f"{report['zero_fraction']:.6f} of the cell\n",
        out,
    )
    if not ok:
        print("example verdict deviates from the expected classification",
              file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing and the error boundary
# ---------------------------------------------------------------------------


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latticeframes",
        description="Classify translate systems on lattices via their "
        "periodized power spectrum.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, extra) in COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--preset", help="built-in configuration name")
        p.add_argument("--grid", type=int, default=None, help="grid resolution override")
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        for flag, kwargs in extra.items():
            p.add_argument(flag, **kwargs)

    p = sub.add_parser("example")
    p.add_argument("--out", default=None)
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        if args.command == "example":
            return _example(args.out)
        cfg = load_config(args)
        result = COMMANDS[args.command][0](cfg, args)
        if isinstance(result, dict):
            dump_report({**result, "config": cfg.resolved()}, cfg.out)
        else:
            dump_text(result, cfg.out)
    except LatticeFramesError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, KeyError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
