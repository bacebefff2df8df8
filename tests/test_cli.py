import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import latticeframes
from latticeframes.cli import main, preset_config


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_example(capsys):
    code, out, _ = _run(capsys, ["classify", "--preset", "example"])
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "ParsevalFrameSequence"
    assert report["lower"] == pytest.approx(1.0)
    assert report["upper"] == pytest.approx(1.0)
    assert report["zero_fraction"] == pytest.approx(1 / 3, abs=2 / 1024)
    assert report["config"]["grid_res"] == 1024
    assert report["oracle"]["consistent"] is True


def test_classify_sinc(capsys):
    code, out, _ = _run(capsys, ["classify", "--preset", "sinc"])
    assert code == 0
    assert json.loads(out)["verdict"] == "OrthonormalSequence"


def test_classify_bspline(capsys):
    code, out, _ = _run(capsys, ["classify", "--preset", "bspline1"])
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "RieszSequence"
    assert report["lower"] == pytest.approx(1 / 3, abs=1e-6)
    assert report["upper"] == pytest.approx(1.0, abs=1e-6)


def test_classify_gauss_pins_dual_route_tail(capsys):
    # the one preset whose certified tail is nonzero: the l1 norm of the
    # Fourier coefficients past radius 4 on the dual route
    code, out, _ = _run(capsys, ["classify", "--preset", "gauss"])
    assert code == 0
    report = json.loads(out)
    assert report["trunc_radius"] == 4
    assert report["tail"] == 1.71990509064e-11


def test_reports_are_deterministic(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["classify", "--preset", "gauss", "--out", str(a)]) == 0
    assert main(["classify", "--preset", "gauss", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_phi_csv_small_grid(capsys):
    code, out, _ = _run(capsys, ["phi", "--preset", "example", "--grid", "8"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "gamma_1,phi"
    rows = {float(l.split(",")[0]): float(l.split(",")[1]) for l in lines[1:]}
    assert len(rows) == 8
    assert rows[0.0] == 1.0 and rows[0.125] == 1.0 and rows[0.25] == 1.0
    assert rows[0.5] == 0.0


def test_phi_csv_sinc(capsys):
    code, out, _ = _run(capsys, ["phi", "--preset", "sinc", "--grid", "16"])
    assert code == 0
    vals = [float(l.split(",")[1]) for l in out.strip().split("\n")[1:]]
    assert vals == [1.0] * 16


def test_gram_csv(capsys):
    code, out, _ = _run(capsys, ["gram", "--preset", "sinc"])
    assert code == 0
    rows = out.strip().split("\n")
    assert len(rows) == 17
    first = [float(v) for v in rows[0].split(",")]
    assert len(first) == 34  # re,im pairs
    assert first[0] == pytest.approx(1.0, abs=1e-9)
    assert first[2] == pytest.approx(0.0, abs=1e-9)


def test_coeffs_bspline(capsys):
    code, out, _ = _run(capsys, ["coeffs", "--preset", "bspline1", "--nmax", "2"])
    assert code == 0
    report = json.loads(out)
    vals = {tuple(e["n"]): e["re"] for e in report["coefficients"]}
    assert vals[(0,)] == pytest.approx(2 / 3, abs=1e-6)
    assert vals[(1,)] == pytest.approx(1 / 6, abs=1e-6)
    assert vals[(-1,)] == pytest.approx(1 / 6, abs=1e-6)
    assert vals[(2,)] == pytest.approx(0.0, abs=1e-6)


def test_perturb_zero_shift(capsys):
    code, out, _ = _run(capsys, ["perturb", "--preset", "bspline1", "--n", "0"])
    assert code == 0
    report = json.loads(out)
    assert report["frame_for_original"] is True
    assert report["lower"] == pytest.approx(4 / 3, abs=1e-5)
    assert report["upper"] == pytest.approx(4.0, abs=1e-5)


def test_perturb_sinc_fails(capsys):
    code, out, _ = _run(capsys, ["perturb", "--preset", "sinc", "--n", "1"])
    assert code == 0
    assert json.loads(out)["frame_for_original"] is False


def test_project_member(capsys):
    code, out, _ = _run(capsys, ["project", "--preset", "sinc", "--psi", "sinc"])
    assert code == 0
    report = json.loads(out)
    assert report["is_member"] is True
    assert report["residual_norm_sq"] == pytest.approx(0.0, abs=1e-9)


def test_example_command(capsys):
    code, out, _ = _run(capsys, ["example"])
    assert code == 0
    assert "ParsevalFrameSequence" in out
    assert "not a Riesz sequence" in out


def test_missing_config_is_exit_2(capsys):
    code, _, err = _run(capsys, ["classify", "--config", "/nonexistent.json"])
    assert code == 2
    assert "configuration error" in err


def test_bad_grid_is_exit_2(capsys):
    code, _, err = _run(capsys, ["classify", "--preset", "sinc", "--grid", "100"])
    assert code == 2


def test_numeric_failure_is_exit_3(capsys, tmp_path):
    # sampled data without a declared band has no certified decay: NoDecayInfo
    # (no catalog generator reaches TailNotAchievable at the default target)
    csv_path = tmp_path / "bump.csv"
    csv_path.write_text("-0.5,0.5,0.0\n0.0,1.0,0.0\n0.5,0.5,0.0\n")
    cfg = {
        "generator": {"kind": "sampled", "csv": str(csv_path)},
        "lattice": [[1.0]],
        "grid_res": 64,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, _, err = _run(capsys, ["classify", "--config", str(path)])
    assert code == 3
    assert "numerical failure" in err
    assert "support_radius" in err


def test_config_file_round_trip(capsys, tmp_path):
    cfg = {
        "generator": {"kind": "sinc", "dim": 1},
        "lattice": [[1.0]],
        "grid_res": 256,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, out, _ = _run(capsys, ["classify", "--config", str(path)])
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "OrthonormalSequence"
    assert report["config"]["grid_res"] == 256


def test_sampled_config(capsys, tmp_path):
    step = 1 / 64
    xs = np.arange(-1.0, 1.0 + step / 2, step)
    rows = [f"{x:.12g},{max(0.0, 1 - abs(x)):.12g},0.0" for x in xs]
    csv_path = tmp_path / "hat.csv"
    csv_path.write_text("\n".join(rows) + "\n")
    cfg = {
        "generator": {"kind": "sampled", "csv": str(csv_path), "support_radius": 32.0},
        "lattice": [[1.0]],
        "grid_res": 512,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, out, _ = _run(capsys, ["classify", "--config", str(path)])
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "RieszSequence"
    assert report["lower"] == pytest.approx(1 / 3, abs=1e-3)


def test_all_presets_resolve():
    for name in ("example", "sinc", "bspline1", "bspline3", "gauss", "sinc2d"):
        cfg = preset_config(name)
        cfg.validate()
    with pytest.raises(ValueError):
        preset_config("nope")


def test_project_inline_psi_json(capsys):
    psi = '{"kind": "frequency_box", "lower": [-1.0], "upper": [1.0]}'
    code, out, _ = _run(capsys, ["project", "--preset", "sinc", "--psi", psi])
    assert code == 0
    report = json.loads(out)
    assert report["is_member"] is False
    assert report["residual_norm_sq"] == pytest.approx(1.0, abs=1e-6)


def test_unknown_config_key_is_exit_2(capsys, tmp_path):
    cfg = {"generator": {"kind": "sinc", "dim": 1}, "lattice": [[1.0]],
           "grid_rez": 256}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    code, _, err = _run(capsys, ["classify", "--config", str(path)])
    assert code == 2
    assert "grid_rez" in err


def test_import_loads_no_scipy():
    # scipy is a test-only dependency; a cold import must not pull it in
    src = os.path.dirname(os.path.dirname(latticeframes.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import sys, latticeframes; "
            "print([k for k in sys.modules if k.split('.')[0] == 'scipy'])")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


_GAUSS = {"kind": "gaussian", "width": 1.0, "dim": 1}
_HAT = {"kind": "bspline", "order": 1, "dim": 1}


def _sinc_config(**overrides):
    return {"generator": {"kind": "sinc", "dim": 1}, "lattice": [[1.0]],
            "grid_res": 64, **overrides}


# inputs that fail once the command runs: every one is a configuration error
# (exit 2, one line on stderr), never a traceback
_CONFIG_ERRORS = {
    "spec_missing_order": (
        _sinc_config(generator={"kind": "bspline"}), ["classify"], "'order'"),
    "psi_missing_order": (
        None, ["project", "--preset", "sinc", "--psi", '{"kind":"bspline"}'], "'order'"),
    "unwritable_out": (
        None, ["classify", "--preset", "sinc", "--out", "/nonexistent/dir/x.json"],
        "/nonexistent/dir/x.json"),
    "missing_sample_csv": (
        _sinc_config(generator={"kind": "sampled", "csv": "/nonexistent/samples.csv"}),
        ["classify"], "/nonexistent/samples.csv"),
    "float_gram_half_width": (
        _sinc_config(gram_half_width=1.5), ["classify"], "gram_half_width"),
    "bool_gram_half_width": (
        _sinc_config(gram_half_width=True), ["classify"], "gram_half_width"),
    "str_class_tol": (_sinc_config(class_tol="x"), ["classify"], "class_tol"),
    "str_target_tail": (_sinc_config(target_tail="1e-9"), ["classify"], "target_tail"),
    "str_eps_zero": (_sinc_config(eps_zero="1e-8"), ["classify"], "eps_zero"),
    "list_generator": (_sinc_config(generator=["sinc"]), ["classify"], "generator"),
    "generator_lattice_dims": (
        _sinc_config(generator={"kind": "sinc", "dim": 2}), ["classify"], "dimension"),
    # json reads NaN and Infinity; no tail bound is <= a NaN target
    "nan_target_tail": (
        _sinc_config(generator=_GAUSS, target_tail=math.nan), ["classify"], "target_tail"),
    "inf_target_tail": (
        _sinc_config(generator=_GAUSS, target_tail=math.inf), ["classify"], "target_tail"),
    "nan_eps_zero": (_sinc_config(generator=_HAT, eps_zero=math.nan), ["classify"], "eps_zero"),
    "inf_eps_zero": (_sinc_config(generator=_HAT, eps_zero=math.inf), ["classify"], "eps_zero"),
    "nan_class_tol": (_sinc_config(class_tol=math.nan), ["classify"], "class_tol"),
    "nan_gaussian_width": (
        _sinc_config(generator={**_GAUSS, "width": math.nan}), ["classify"], "width"),
    # integer fields were truncated: order 1.5 classified the hat
    "fractional_bspline_order": (
        _sinc_config(generator={**_HAT, "order": 1.5}), ["classify"], "order"),
    "fractional_gaussian_dim": (
        _sinc_config(generator={**_GAUSS, "dim": 1.5}), ["classify"], "dim"),
    "fractional_sinc_dim": (
        _sinc_config(generator={"kind": "sinc", "dim": 1.5}), ["classify"], "dim"),
    # a NaN lattice entry was a numerical failure (exit 3)
    "nan_lattice": (_sinc_config(lattice=[[math.nan]]), ["classify"], "lattice"),
    "str_lattice": (_sinc_config(lattice=[["1.0"]]), ["classify"], "lattice"),
    "ragged_lattice": (_sinc_config(lattice=[[1.0], [0.0, 1.0]]), ["classify"], "lattice"),
}


@pytest.mark.parametrize("name", sorted(_CONFIG_ERRORS))
def test_command_stage_errors_are_exit_2(name, capsys, tmp_path):
    cfg, argv, detail = _CONFIG_ERRORS[name]
    if cfg is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        argv = argv + ["--config", str(path)]
    code, out, err = _run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("configuration error") and detail in err
    assert "Traceback" not in err
