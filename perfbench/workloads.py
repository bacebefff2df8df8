"""The three workloads: case lists built from the seed, with their references.

cli_presets  cold CLI calls, one fresh interpreter per case (import included)
phi_grid     compute_phi -> classify_table over generator x lattice x d x N
gram_oracle  Gram matrices, eigenvalue bounds, synthesis, projection, analysis

The seed chooses only inputs that leave the work unchanged: the rotation of
the Gaussian lattice, the values (not the shape) of sampled data, and the
synthesis coefficient vector.  References come from ``references``, never
from the package.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import subprocess
import sys
from itertools import product

import numpy as np

import references as ref
from harness import Case

RTOL = 1e-7  # bounds: tables keep their tail near 1e-10 of the grid max


def _close(name: str, got, want, tol: float) -> str | None:
    if got is None or not abs(got - want) <= tol * max(1.0, abs(want)):
        return f"{name} {got!r} != reference {want!r}"
    return None


def _first(*reasons):
    return next((r for r in reasons if r is not None), None)


def check_classification(cls, verdict: str, lower: float, upper: float,
                         zero_fraction: float = 0.0, tol: float = RTOL):
    return _first(
        None if cls.verdict.value == verdict else f"verdict {cls.verdict.value} != {verdict}",
        _close("lower", cls.lower, lower, tol),
        _close("upper", cls.upper, upper, tol),
        _close("zero_fraction", cls.evidence["zero_fraction"], zero_fraction, 1e-12),
    )


def table_counters(table) -> dict:
    """Work of the summed lattice: (2R+1)^d terms at N^d points (computed)."""
    d = table.dim
    return {
        "trunc_radius": table.trunc_radius,
        "tail": table.tail,
        "grid_points": table.grid_res**d,
        "terms_points": (2 * table.trunc_radius + 1) ** d * table.grid_res**d,
    }


def gram_counters(half_width: int, dim: int) -> dict:
    m = (2 * half_width + 1) ** dim
    return {"gram_m": m, "dense_bytes": m * m * 16}


def rotation(theta: float) -> np.ndarray:
    return np.array([[math.cos(theta), -math.sin(theta)],
                     [math.sin(theta), math.cos(theta)]])


def sampled_values(rng, n: int, step: float) -> np.ndarray:
    """A hat-shaped bump with seeded noise; the shape (n samples) is fixed."""
    x = step * (np.arange(n) - n // 2)
    return np.maximum(1.0 - np.abs(x) / (step * (n // 2)), 0.0) + 0.3 * rng.standard_normal(n)


# ---------------------------------------------------------------------------
# phi_grid
# ---------------------------------------------------------------------------


def phi_grid(lf, seed: int) -> list[Case]:
    rng = np.random.default_rng(seed)
    theta = float(rng.uniform(0.0, math.pi / 2))
    samples = sampled_values(rng, 17, 0.25)
    third = 1.0 / 3.0
    eye = lambda d: np.eye(d).tolist()  # noqa: E731
    on = ("OrthonormalSequence", 1.0, 1.0)

    def riesz(lo, hi):
        return ("RieszSequence", lo, hi)

    def gauss(d):
        return riesz(*ref.gauss_bounds(d))

    def bs(m, d):
        return riesz(ref.BSPLINE_LOWER[m] ** d, 1.0)

    p07 = ref.bspline_phi(1, [[0.7]], 4096)
    psamp = ref.sampled_phi(samples, -2.0, 0.25, 2.5, 1.0, 256)
    # (name, generator factory, lattice basis, N, expected verdict/bounds, zero fraction)
    specs = [
        ("sinc2_shear_N256", lambda: lf.Sinc(2), [[1.0, 1.0], [0.0, 1.0]], 256, on, 0.0),
        ("bspline3_d2_N64", lambda: lf.BSpline(3, 2), eye(2), 64, bs(3, 2), 0.0),
        ("bspline2_d2_N16", lambda: lf.BSpline(2, 2), eye(2), 16, bs(2, 2), 0.0),
        # raises TailNotAchievable at the parent commit: a known failure
        ("bspline1_d2_N32", lambda: lf.BSpline(1, 2), eye(2), 32, bs(1, 2), 0.0),
        ("gauss_d2_rotated_N256", lambda: lf.Gaussian(1.0, 2), rotation(theta).tolist(),
         256, gauss(2), 0.0),
        ("gauss_d3_N16", lambda: lf.Gaussian(1.0, 3), eye(3), 16, gauss(3), 0.0),
        ("sinc3_N16", lambda: lf.Sinc(3), eye(3), 16, on, 0.0),
        ("bspline1_N4096", lambda: lf.BSpline(1), [[1.0]], 4096, bs(1, 1), 0.0),
        ("bspline1_a0.7_N4096", lambda: lf.BSpline(1), [[0.7]], 4096,
         riesz(float(p07.min()), float(p07.max())), 0.0),
        ("box_half_d2_N128", lambda: lf.FrequencyBox([-0.5, -0.5], [0.5, 0.5]), eye(2),
         128, on, 0.0),
        ("box_third_d2_N128", lambda: lf.FrequencyBox([-third] * 2, [third] * 2), eye(2),
         128, ("ParsevalFrameSequence", 1.0, 1.0), ref.box_third_zero_fraction(2, 128)),
        ("sampled_d1_N256", lambda: lf.SampledSpatial(samples, [-2.0], 0.25, support_radius=2.5),
         [[1.0]], 256, riesz(float(psamp.min()), float(psamp.max())), 0.0),
    ]

    cases = []
    for name, make, basis, n, expect, zf in specs:
        def run(make=make, basis=basis, n=n):
            table = lf.compute_phi(make(), lf.new_lattice(basis), n)
            return table, lf.classify_table(table)

        def check(result, expect=expect, zf=zf):
            return check_classification(result[1], *expect, zero_fraction=zf)

        cases.append(Case(name, run, check, lambda result: table_counters(result[0])))
    return cases


# ---------------------------------------------------------------------------
# gram_oracle
# ---------------------------------------------------------------------------


def _gram_case(lf, name, make, basis, half_width, bounds, autocorr):
    """gram_matrix + gram_eigen_bounds against the closed-form symbol.

    Finite sections of a Toeplitz matrix have their spectrum inside the
    essential range [lo, hi] of its symbol phi and approach its ends as the
    section grows; entries are checked against the closed-form autocorrelation.
    """
    lo, hi = bounds
    d = len(basis)
    slack = 0.1 * (hi - lo) + 1e-8
    shifts = np.array(list(product((-1, 0, 1), repeat=d)), dtype=float)
    want = autocorr(shifts @ np.asarray(basis, dtype=float).T)

    def run():
        gram = lf.gram_matrix(make(), lf.new_lattice(basis), half_width)
        return gram, lf.gram_eigen_bounds(gram)

    def check(result):
        gram, (lam_min, lam_max) = result
        zero = [0] * d
        got = np.array([gram.entry(zero, s.astype(int)) for s in shifts])
        if np.max(np.abs(got - want)) > 1e-8:
            return f"Gram entries off the closed form by {np.max(np.abs(got - want)):.2e}"
        if not (lo - 1e-8 <= lam_min <= lo + slack and hi - slack <= lam_max <= hi + 1e-8):
            return f"eigenvalues ({lam_min}, {lam_max}) outside reference ({lo}, {hi})"
        return None

    return Case(name, run, check, lambda result: gram_counters(half_width, d))


def gram_oracle(lf, seed: int) -> list[Case]:
    rng = np.random.default_rng(seed)
    samples = sampled_values(rng, 129, 1.0 / 16)
    coeffs = {
        k: complex(rng.standard_normal(), rng.standard_normal())
        for k in product(range(-2, 3), repeat=2)
    }
    shear = [[1.0, 1.0], [0.0, 1.0]]
    gauss_ac = lambda t: ref.gauss_autocorrelation(1.0, t)  # noqa: E731

    def bs_ac(m):
        return lambda t: ref.bspline_autocorrelation(m, t)

    def delta(t):
        return np.where(np.all(np.abs(t) < 1e-12, axis=-1), 1.0, 0.0)

    cases = [
        _gram_case(lf, "gram_gauss_d2_M15", lambda: lf.Gaussian(1.0, 2), np.eye(2).tolist(),
                   15, ref.gauss_bounds(2), gauss_ac),
        _gram_case(lf, "gram_gauss_d3_M4", lambda: lf.Gaussian(1.0, 3), np.eye(3).tolist(),
                   4, ref.gauss_bounds(3), gauss_ac),
        _gram_case(lf, "gram_bspline1_M32", lambda: lf.BSpline(1), [[1.0]], 32,
                   (ref.BSPLINE_LOWER[1], 1.0), bs_ac(1)),
        _gram_case(lf, "gram_bspline3_M32", lambda: lf.BSpline(3), [[1.0]], 32,
                   (ref.BSPLINE_LOWER[3], 1.0), bs_ac(3)),
        _gram_case(lf, "gram_bspline1_d2_M6", lambda: lf.BSpline(1, 2), np.eye(2).tolist(), 6,
                   (ref.BSPLINE_LOWER[1] ** 2, 1.0), bs_ac(1)),
        _gram_case(lf, "gram_sinc2_shear_M2", lambda: lf.Sinc(2), shear, 2, (1.0, 1.0), delta),
    ]

    # the translates of Sinc(2) on the unimodular shear are orthonormal, so
    # every route must return the squared coefficient norm
    norm = float(sum(abs(c) ** 2 for c in coeffs.values()))

    def run_synthesis():
        g, lattice = lf.Sinc(2), lf.new_lattice(shear)
        table = lf.compute_phi(g, lattice, 64)
        return table, lf.synthesis_norm(g, lattice, lf.CoefficientVector(coeffs), table)

    def check_synthesis(result):
        return _first(*(_close(route, v, norm, 1e-9)
                        for route, v in zip(("direct", "spectral", "quadratic"), result[1])))

    cases.append(Case("synthesis_sinc2_shear", run_synthesis, check_synthesis,
                      lambda result: table_counters(result[0])))

    step, origin = 1.0 / 16, -64.0 / 16
    residual = ref.hat_projection_residual(samples, origin, step, 256)
    psi_norm = step * float(np.sum(samples**2))

    def run_project():
        g, lattice = lf.BSpline(1), lf.new_lattice([[1.0]])
        table = lf.compute_phi(g, lattice, 256)
        psi = lf.SampledSpatial(samples, [origin], step, support_radius=8.0)
        return table, lf.project_onto_span(g, lattice, psi, table)

    def check_project(result):
        result = result[1]
        # the package truncates the cross periodization at the table radius;
        # the dropped O(1/R) tail moves the residual by ~1e-5 of ||psi||^2
        return _first(
            _close("residual", result.residual_norm_sq, residual, 1e-4 * psi_norm),
            None if not result.is_member else "sampled data reported inside the span",
        )

    cases.append(Case("project_sampled_onto_hat", run_project, check_project,
                      lambda result: table_counters(result[0])))

    inner = np.array([ref.gauss_hat_inner(k) for k in range(-8, 9)])

    def run_analysis():
        return lf.analysis_coefficients(lf.BSpline(1), lf.new_lattice([[1.0]]),
                                        lf.Gaussian(1.0), 8)

    def check_analysis(result):
        err = float(np.max(np.abs(np.asarray(result) - inner)))
        return None if err <= 1e-8 else f"analysis coefficients off by {err:.2e}"

    cases.append(Case("analysis_gauss_vs_hat_M8", run_analysis, check_analysis))
    return cases


# ---------------------------------------------------------------------------
# cli_presets
# ---------------------------------------------------------------------------


def cli_argvs() -> list[list[str]]:
    presets = ["example", "sinc", "bspline1", "bspline3", "gauss", "sinc2d"]
    return [["classify", "--preset", p] for p in presets] + [
        ["coeffs", "--preset", "bspline1", "--nmax", "2"],
        ["perturb", "--preset", "example", "--n", "1"],
        ["project", "--preset", "sinc", "--psi", "gauss"],
        ["phi", "--preset", "bspline1"],
        ["gram", "--preset", "sinc"],
    ]


def _cli_checker(argv: list[str]):
    """Reference check for the stdout of one CLI call."""
    command, preset = argv[0], argv[2]
    on = ("OrthonormalSequence", 1.0, 1.0)
    classify = {
        "example": ("ParsevalFrameSequence", 1.0, 1.0, ref.box_third_zero_fraction(1, 1024)),
        "sinc": on + (0.0,),
        "bspline1": ("RieszSequence", ref.BSPLINE_LOWER[1], 1.0, 0.0),
        "bspline3": ("RieszSequence", ref.BSPLINE_LOWER[3], 1.0, 0.0),
        "gauss": ("RieszSequence",) + ref.gauss_bounds(1) + (0.0,),
        "sinc2d": on + (0.0,),
    }

    def check_classify(out):
        rep = json.loads(out)
        verdict, lo, hi, zf = classify[preset]
        return _first(
            None if rep["verdict"] == verdict else f"verdict {rep['verdict']} != {verdict}",
            _close("lower", rep["lower"], lo, RTOL),
            _close("upper", rep["upper"], hi, RTOL),
            _close("zero_fraction", rep["zero_fraction"], zf, 1e-9),
            None if rep["oracle"]["consistent"] else "oracle.consistent is false",
        )

    def check_coeffs(out):
        rep = json.loads(out)
        got = {tuple(e["n"]): complex(e["re"], e["im"]) for e in rep["coefficients"]}
        want = {(n,): float(ref.bspline(3, n)) for n in range(-2, 3)}
        if set(got) != set(want):
            return f"coefficient indices {sorted(got)}"
        return _first(*(_close(f"c{n}", got[n], want[n], 1e-8) for n in want))

    def check_perturb(out):
        # the box table times 4 cos^2(pi gamma): min over the box's grid support
        rep = json.loads(out)
        gam = np.arange(1024) / 1024
        support = (3 * np.arange(1024) < 1024) | (3 * np.arange(1024) >= 2048)
        lower = float(np.min(4 * np.cos(np.pi * gam[support]) ** 2))
        return _first(
            None if rep["verdict"] == "FrameSequence" else f"verdict {rep['verdict']}",
            _close("lower", rep["lower"], lower, 1e-9),
            _close("upper", rep["upper"], 4.0, 1e-9),
            None if rep["frame_for_original"] else "not a frame for the original span",
        )

    def check_project(out):
        rep = json.loads(out)
        return _first(
            _close("residual", rep["residual_norm_sq"], ref.sinc_gauss_residual(), 1e-6),
            None if not rep["is_member"] else "gauss reported inside the sinc span",
        )

    def check_phi(out):
        rows = np.loadtxt(io.StringIO(out), delimiter=",", skiprows=1, ndmin=2)
        if rows.shape != (4096, 2):
            return f"phi CSV has shape {rows.shape}"
        want = (2 + np.cos(2 * np.pi * rows[:, 0])) / 3
        return _close("max |phi - (2 + cos)/3|", float(np.max(np.abs(rows[:, 1] - want))), 0.0, 1e-9)

    def check_gram(out):
        vals = np.loadtxt(io.StringIO(out), delimiter=",", ndmin=2)
        dense = vals[:, 0::2] + 1j * vals[:, 1::2]
        if dense.shape != (17, 17):
            return f"gram CSV has shape {dense.shape}"
        return _close("max |G - I|", float(np.max(np.abs(dense - np.eye(17)))), 0.0, 1e-9)

    return {"classify": check_classify, "coeffs": check_coeffs, "perturb": check_perturb,
            "project": check_project, "phi": check_phi, "gram": check_gram}[command]


def _cli_counters(out: str) -> dict:
    try:
        rep = json.loads(out)
    except json.JSONDecodeError:  # CSV output
        return {"output_bytes": len(out)}
    keep = ("trunc_radius", "tail", "grid_res")
    return {k: rep[k] for k in keep if k in rep} | {"output_bytes": len(out)}


def cli_presets(root: str, env: dict, in_process: bool = False) -> list[Case]:
    """One case per CLI call.

    Plain mode starts ``python -m latticeframes.cli`` per case, so each call
    pays the import.  The traced mode calls ``cli.main`` in-process with the
    same argv instead, so the wrappers can see inside it.
    """
    cases = []
    for argv in cli_argvs():
        if in_process:
            def run(argv=argv):
                from latticeframes import cli

                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    try:
                        code = cli.main(list(argv))
                    except SystemExit as exc:
                        code = exc.code
                return code, out.getvalue(), err.getvalue()
        else:
            def run(argv=argv):
                proc = subprocess.run(
                    [sys.executable, "-m", "latticeframes.cli", *argv],
                    cwd=root, env=env, capture_output=True, text=True, timeout=170)
                return proc.returncode, proc.stdout, proc.stderr

        def check(result, inner=_cli_checker(argv)):
            code, out, err = result
            if code != 0:
                return f"exit code {code}: {err.strip()[-200:]}"
            return inner(out)

        cases.append(Case(" ".join(argv), run, check, lambda result: _cli_counters(result[1])))
    return cases


def build(workload: str, seed: int, root: str, env: dict, in_process_cli: bool = False):
    if workload == "cli_presets":
        return cli_presets(root, env, in_process_cli)
    import latticeframes as lf

    return {"phi_grid": phi_grid, "gram_oracle": gram_oracle}[workload](lf, seed)

