import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_file.py"


@pytest.fixture()
def bench_file(monkeypatch, tmp_path):
    spec = importlib.util.spec_from_file_location("bench_file", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "ROOT", tmp_path)
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({
        "command": ["python3", "perfbench/run.py"], "run_seconds": 30,
        "workloads": [{"name": "phi_grid"}, {"name": "gram_oracle"}]}))
    monkeypatch.setattr(module, "git", lambda checkout, *args: "abc123" if "HEAD" in args else "")

    def fake_run(checkout, bench, workload, seed, trace):
        name = "wall_s" if trace == 0 else "oracle.gram_eig_self_s"
        report = {"passes": 3, "hygiene": {"nproc": 2},
                  "cases": [{"case": f"{workload}_a", "median_s": 0.25 + trace,
                             "status": "ok"},
                            {"case": f"{workload}_b", "median_s": 0.125 + trace,
                             "status": "ok"}]}
        result = {"correct": True, "attempted": 6, "failed": 0,
                  "metrics": {name: {"value": 0.5 + trace, "unit": "s"}}}
        return report, result

    monkeypatch.setattr(module, "run_workload", fake_run)
    return module


def test_bench_file_records_both_checkouts_and_all_metrics(bench_file, tmp_path):
    assert bench_file.main(["--pr", "7", "--seed", "3", "--parent", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "BENCH_7.json").read_text())
    assert (doc["pr"], doc["seed"], doc["seconds"]) == (7, 3, 30)
    assert set(doc["runs"]) == {"parent", "change"}
    for run in doc["runs"].values():
        assert (run["commit"], run["dirty"]) == ("abc123", False)
        assert set(run["workloads"]) == {"phi_grid", "gram_oracle"}
        gram = run["workloads"]["gram_oracle"]
        assert gram["end_to_end"]["wall_s"]["value"] == 0.5
        assert gram["per_layer"]["oracle.gram_eig_self_s"]["value"] == 1.5
        # per-case medians come from the plain run's report
        assert gram["cases"] == {"gram_oracle_a": 0.25, "gram_oracle_b": 0.125}


def test_bench_file_requires_a_parent(bench_file):
    with pytest.raises(SystemExit):
        bench_file.main(["--pr", "7"])
