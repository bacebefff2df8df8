"""Command-line front end.

Subcommands drive the pipeline generator -> lattice -> periodization table ->
classification -> Gram cross-check and emit deterministic JSON reports or CSV
grid dumps.  Exit codes: 0 success, 2 configuration/validation error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
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
from .lattice import new_lattice

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3


@dataclass
class RunConfig:
    generator: dict
    lattice: list
    grid_res: int = 4096
    target_tail: float | None = None
    eps_zero: float | None = None
    class_tol: float = 1e-6
    gram_half_width: int = 8
    out: str | None = None

    def validate(self):
        if not isinstance(self.grid_res, int):
            raise ValueError(f"grid_res must be an integer, got {self.grid_res!r}")
        _periodization._validate_grid(self.grid_res)
        for name in ("target_tail", "eps_zero"):
            v = getattr(self, name)
            if v is not None and v <= 0:
                raise ValueError(f"{name} must be positive")
        if self.class_tol <= 0:
            raise ValueError("class_tol must be positive")
        if self.gram_half_width < 1:
            raise ValueError("gram_half_width must be >= 1")

    def resolved(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "out"}


def preset_config(name: str) -> RunConfig:
    """Built-in configurations; no external files needed."""
    third = 1.0 / 3.0
    presets = {
        "example": RunConfig(
            generator={"kind": "frequency_box", "lower": [-third], "upper": [third]},
            lattice=[[1.0]],
            grid_res=1024,
        ),
        "sinc": RunConfig(
            generator={"kind": "sinc", "dim": 1},
            lattice=[[1.0]],
            grid_res=4096,
        ),
        "bspline1": RunConfig(
            generator={"kind": "bspline", "order": 1, "dim": 1},
            lattice=[[1.0]],
            grid_res=4096,
        ),
        "bspline3": RunConfig(
            generator={"kind": "bspline", "order": 3, "dim": 1},
            lattice=[[1.0]],
            grid_res=4096,
        ),
        "gauss": RunConfig(
            generator={"kind": "gaussian", "width": 1.0, "dim": 1},
            lattice=[[1.0]],
            grid_res=4096,
        ),
        "sinc2d": RunConfig(
            generator={"kind": "sinc", "dim": 2},
            lattice=[[1.0, 1.0], [0.0, 1.0]],
            grid_res=256,
            gram_half_width=2,
        ),
    }
    if name not in presets:
        raise ValueError(f"unknown preset {name!r}; choose from {sorted(presets)}")
    return presets[name]


def build_generator(spec: dict) -> Generator:
    kind = spec.get("kind")
    if kind == "frequency_box":
        return FrequencyBox(spec["lower"], spec["upper"])
    if kind == "sinc":
        return Sinc(dim=int(spec.get("dim", 1)))
    if kind == "bspline":
        return BSpline(order=int(spec["order"]), dim=int(spec.get("dim", 1)))
    if kind == "gaussian":
        return Gaussian(width=float(spec.get("width", 1.0)), dim=int(spec.get("dim", 1)))
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
    cfg.validate()
    if cfg.generator.get("kind") == "sampled":
        import os

        if not os.path.exists(cfg.generator.get("csv", "")):
            raise ValueError(f"sample CSV not found: {cfg.generator.get('csv')}")
    return cfg


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
# pipeline pieces
# ---------------------------------------------------------------------------


def _pipeline_table(cfg: RunConfig):
    g = build_generator(cfg.generator)
    lattice = new_lattice(np.asarray(cfg.lattice, dtype=float))
    table = _periodization.compute_phi(g, lattice, cfg.grid_res, cfg.target_tail)
    return g, lattice, table


def _classification_report(cfg: RunConfig, with_oracle: bool = True) -> dict:
    g, lattice, table = _pipeline_table(cfg)
    cls = _classify.classify_table(table, cfg.eps_zero, cfg.class_tol)
    report = {
        "verdict": cls.verdict.value,
        "lower": cls.lower,
        "upper": cls.upper,
        "zero_fraction": cls.evidence["zero_fraction"],
        "grid_res": table.grid_res,
        "trunc_radius": table.trunc_radius,
        "tail": table.tail,
        "eps_zero": cls.evidence["eps_zero"],
        "class_tol": cfg.class_tol,
    }
    if with_oracle:
        gram = _oracle.gram_matrix(g, lattice, cfg.gram_half_width)
        lo, hi = _oracle.gram_eigen_bounds(gram)
        # finite sections see the whole essential range: the upper bound
        # always applies, the lower one only when there is no zero set
        # (otherwise sections are expected to be near-singular)
        consistent = cls.upper is None or hi <= cls.upper + 0.05
        if cls.verdict in (Verdict.RIESZ_SEQUENCE, Verdict.ORTHONORMAL_SEQUENCE):
            consistent = consistent and lo >= cls.lower - 0.05
        report["oracle"] = {
            "half_width": cfg.gram_half_width,
            "lambda_min": lo,
            "lambda_max": hi,
            "consistent": consistent,
        }
    report["config"] = cfg.resolved()
    return report


def cmd_classify(cfg: RunConfig) -> int:
    dump_report(_classification_report(cfg), cfg.out)
    return EXIT_OK


def cmd_phi(cfg: RunConfig) -> int:
    _, _, table = _pipeline_table(cfg)
    dump_text(_periodization.table_to_csv(table), cfg.out)
    return EXIT_OK


def cmd_gram(cfg: RunConfig) -> int:
    g = build_generator(cfg.generator)
    lattice = new_lattice(np.asarray(cfg.lattice, dtype=float))
    gram = _oracle.gram_matrix(g, lattice, cfg.gram_half_width)
    dense = gram.dense()
    lines = []
    for row in dense:
        parts = []
        for v in row:
            parts.append(f"{v.real:.12g},{v.imag:.12g}")
        lines.append(",".join(parts))
    dump_text("\n".join(lines) + "\n", cfg.out)
    return EXIT_OK


def cmd_coeffs(cfg: RunConfig, n_max: int) -> int:
    g, lattice, table = _pipeline_table(cfg)
    coeffs = _periodization.phi_fourier_coeffs(table, n_max)
    entries = []
    for n in sorted(coeffs.entries):
        v = coeffs.entries[n]
        entries.append({"n": list(n), "re": v.real, "im": v.imag})
    dump_report({"n_max": n_max, "coefficients": entries, "config": cfg.resolved()},
                cfg.out)
    return EXIT_OK


def cmd_perturb(cfg: RunConfig, n_vec: list[int]) -> int:
    g, lattice, table = _pipeline_table(cfg)
    check = _classify.perturbation_frame_check(table, n_vec, cfg.eps_zero, cfg.class_tol)
    cls = check.classification
    dump_report(
        {
            "shift_index": list(n_vec),
            "verdict": cls.verdict.value,
            "lower": cls.lower,
            "upper": cls.upper,
            "zero_fraction": cls.evidence["zero_fraction"],
            "frame_for_original": check.frame_for_original,
            "inf_on_original_support": check.inf_on_original_support,
            "config": cfg.resolved(),
        },
        cfg.out,
    )
    return EXIT_OK


def cmd_project(cfg: RunConfig, psi_spec: str) -> int:
    g, lattice, table = _pipeline_table(cfg)
    if psi_spec.strip().startswith("{"):
        psi = build_generator(json.loads(psi_spec))
    else:
        psi = build_generator(preset_config(psi_spec).generator)
    result = _oracle.project_onto_span(g, lattice, psi, table, cfg.eps_zero)
    dump_report(
        {
            "residual_norm_sq": result.residual_norm_sq,
            "is_member": result.is_member,
            "psi": psi.label,
            "config": cfg.resolved(),
        },
        cfg.out,
    )
    return EXIT_OK


def cmd_example(out: str | None) -> int:
    """Run the built-in box example end to end and assert its verdict."""
    cfg = preset_config("example")
    cfg.out = out
    report = _classification_report(cfg, with_oracle=True)
    ok = (
        report["verdict"] == "ParsevalFrameSequence"
        and abs(report["lower"] - 1.0) <= 1e-6
        and abs(report["upper"] - 1.0) <= 1e-6
        and report["zero_fraction"] > 0.25
    )
    lines = [
        f"verdict: {report['verdict']} with bounds "
        f"({report['lower']:.9f}, {report['upper']:.9f})",
        "not a Riesz sequence: zero set has fraction "
        f"{report['zero_fraction']:.6f} of the cell",
    ]
    dump_text("\n".join(lines) + "\n", out)
    if not ok:
        print("example verdict deviates from the expected classification",
              file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--preset", help="built-in configuration name")
    p.add_argument("--grid", type=int, default=None, help="grid resolution override")
    p.add_argument("--out", default=None, help="output path (default: stdout)")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latticeframes",
        description="Classify translate systems on lattices via their "
        "periodized power spectrum.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("classify", "phi", "gram"):
        _add_common(sub.add_parser(name))

    p = sub.add_parser("coeffs")
    _add_common(p)
    p.add_argument("--nmax", type=int, default=2)

    p = sub.add_parser("perturb")
    _add_common(p)
    p.add_argument("--n", type=int, nargs="+", required=True,
                   help="integer shift index (one value per dimension)")

    p = sub.add_parser("project")
    _add_common(p)
    p.add_argument("--psi", required=True,
                   help="preset name or inline generator JSON")

    p = sub.add_parser("example")
    p.add_argument("--out", default=None)
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        if args.command == "example":
            return cmd_example(args.out)
        cfg = load_config(args)
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        if args.command == "classify":
            return cmd_classify(cfg)
        if args.command == "phi":
            return cmd_phi(cfg)
        if args.command == "gram":
            return cmd_gram(cfg)
        if args.command == "coeffs":
            return cmd_coeffs(cfg, args.nmax)
        if args.command == "perturb":
            return cmd_perturb(cfg, args.n)
        if args.command == "project":
            return cmd_project(cfg, args.psi)
    except LatticeFramesError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
