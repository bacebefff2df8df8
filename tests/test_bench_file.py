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
    # package modules of 3 + 2 lines in the change and 4 in the parent
    for checkout, texts in ((tmp_path, ["a\nb\nc\n", "d\ne\n"]),
                            (tmp_path / "parent", ["f\n" * 4])):
        package = checkout / "src" / "latticeframes"
        package.mkdir(parents=True)
        for i, text in enumerate(texts):
            (package / f"m{i}.py").write_text(text)
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({
        "command": ["python3", "perfbench/run.py"], "run_seconds": 30,
        "workloads": [{"name": "phi_grid"}, {"name": "gram_oracle"}],
        "end_to_end": [{"name": "wall_s", "better": "lower", "bound": 0.25}]}))
    monkeypatch.setattr(module, "git", lambda checkout, *args: "abc123" if "HEAD" in args else "")
    calls = []

    def fake_run(checkout, bench, workload, seed, trace):
        side = checkout.name if checkout.name == "parent" else "change"
        # plain run i of a side: wall_s 0.5 + i / 100 on the parent, 0.1 less
        # on the change; case times 0.25 + i / 1000 (0.01 less on the change)
        # and 0.125
        i = sum(call == (workload, side, 0) for call in calls)
        calls.append((workload, side, trace))
        name = "wall_s" if trace == 0 else "oracle.gram_eig_self_s"
        value = 0.5 + i / 100 - (side == "change") / 10 + trace
        report = {"passes": 3, "hygiene": {"nproc": 2},
                  "cases": [{"case": f"{workload}_a",
                             "median_s": 0.25 + i / 1000 - (side == "change") / 100 + trace,
                             "status": "ok"},
                            {"case": f"{workload}_b", "median_s": 0.125 + trace,
                             "status": "ok"}]}
        result = {"correct": True, "attempted": 6, "failed": 0,
                  "metrics": {name: {"value": value, "unit": "s"}}}
        return report, result

    monkeypatch.setattr(module, "run_workload", fake_run)
    return module, calls


def test_bench_file_records_both_checkouts_and_all_metrics(bench_file, tmp_path):
    module, _ = bench_file
    assert module.main(["--pr", "7", "--seed", "3", "--parent", str(tmp_path / "parent")]) == 0
    doc = json.loads((tmp_path / "BENCH_7.json").read_text())
    assert (doc["pr"], doc["seed"], doc["seconds"], doc["pairs"]) == (7, 3, 30, module.PAIRS)
    assert set(doc["runs"]) == {"parent", "change"}
    for side, run in doc["runs"].items():
        assert (run["commit"], run["dirty"]) == ("abc123", False)
        assert run["src_lines"] == (4 if side == "parent" else 5)
        assert set(run["workloads"]) == {"phi_grid", "gram_oracle"}
        gram = run["workloads"]["gram_oracle"]
        # the end-to-end value is the median of the ten plain runs
        wall = gram["end_to_end"]["wall_s"]
        assert len(wall["runs"]) == module.PAIRS
        assert wall["value"] == pytest.approx(0.545 - (side == "change") / 10)
        assert gram["per_layer"]["oracle.gram_eig_self_s"]["value"] == pytest.approx(
            1.6 - (side == "change") / 10)
        # per-case medians and runs over the plain runs' reports
        faster = (side == "change") / 100
        assert gram["cases"] == pytest.approx({"gram_oracle_a": 0.2545 - faster,
                                               "gram_oracle_b": 0.125})
        assert gram["case_runs"]["gram_oracle_a"] == pytest.approx(
            [0.25 + i / 1000 - faster for i in range(module.PAIRS)])
        assert (gram["attempted"], gram["failed"]) == ([6] * 10, [0] * 10)
        # load and steal time around each run
        assert len(gram["machine"]["plain"]) == module.PAIRS
        for around in gram["machine"]["plain"] + [gram["machine"]["traced"]]:
            before, after = around["before"], around["after"]
            for state in (before, after):
                assert set(state) == {"loadavg", "steal_s"}
                assert len(state["loadavg"]) == 3 and min(state["loadavg"]) >= 0.0
            assert 0.0 <= before["steal_s"] <= after["steal_s"]
    wall = doc["comparison"]["phi_grid"]["wall_s"]
    assert (wall["pairs_won"], wall["pairs"], wall["reading"]) == (10, 10, "better")
    assert wall["parent"] == pytest.approx({"median": 0.545, "q1": 0.5225, "q3": 0.5675})
    # per case: both sides' quartiles and the pairs won, ties counting for neither
    cases = doc["case_comparison"]["gram_oracle"]
    assert set(cases) == {"gram_oracle_a", "gram_oracle_b"}
    a, b = cases["gram_oracle_a"], cases["gram_oracle_b"]
    assert (a["pairs_won"], a["pairs"], b["pairs_won"], b["pairs"]) == (10, 10, 0, 10)
    assert a["parent"] == pytest.approx({"median": 0.2545, "q1": 0.25225, "q3": 0.25675})
    assert a["change"] == pytest.approx({"median": 0.2445, "q1": 0.24225, "q3": 0.24675})
    assert b["change"] == pytest.approx({"median": 0.125, "q1": 0.125, "q3": 0.125})


@pytest.mark.parametrize("value, off", [("1", True), ("", False), (None, False)])
def test_bench_file_records_whether_bytecode_writing_is_off(bench_file, tmp_path, monkeypatch,
                                                            value, off):
    # the children inherit the environment; a non-empty value turns writing off
    module, _ = bench_file
    if value is None:
        monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    else:
        monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", value)
    assert module.main(["--pr", "7", "--parent", str(tmp_path / "parent")]) == 0
    doc = json.loads((tmp_path / "BENCH_7.json").read_text())
    for run in doc["runs"].values():
        for workload in run["workloads"].values():
            machine = workload["machine"]
            assert [m["dont_write_bytecode"] for m in machine["plain"] + [machine["traced"]]] \
                == [off] * (module.PAIRS + 1)


def test_bench_file_alternates_which_side_runs_first(bench_file, tmp_path):
    module, calls = bench_file
    assert module.main(["--pr", "7", "--parent", str(tmp_path / "parent")]) == 0
    for workload in ("phi_grid", "gram_oracle"):
        order = [(side, trace) for w, side, trace in calls if w == workload]
        pairs = [("parent", 0), ("change", 0), ("change", 0), ("parent", 0)] * 5
        assert order == pairs + [("parent", 1), ("change", 1)]


_SPREAD = [1.0 + i / 100 for i in range(10)]  # median 1.045, quartiles 1.0225 and 1.0675


@pytest.mark.parametrize("parent, change, better, won, reading", [
    # every pair won and a gap of 0.1 over the parent's spread of 0.045
    (_SPREAD, [v - 0.1 for v in _SPREAD], "lower", 10, "better"),
    # 2% slower, inside the bound of 25%; ties count for neither side
    (_SPREAD, [v + 0.02 for v in _SPREAD], "lower", 0, "held"),
    ([1.0] * 10, [1.0] * 10, "lower", 0, "held"),
    # 30% slower; and a higher-is-better metric 10% down against a 5% bound
    (_SPREAD, [v + 0.3 for v in _SPREAD], "lower", 0, "worse"),
    ([1.0] * 10, [0.9] * 10, "higher", 0, "worse"),
    # the parent's spread of 1.0 exceeds 0.25 times its median 1.0
    ([0.5, 1.5] * 5, [1.0] * 10, "lower", 5, "unresolved"),
    # as wide, but every change run beats every parent run: resolved, and the
    # gap of 0.05 is under the spread of 0.75
    ([1.0] * 7 + [2.0] * 3, [0.95] * 10, "lower", 10, "held"),
])
def test_compare_reads_each_metric(bench_file, parent, change, better, won, reading):
    module, _ = bench_file
    result = module.compare(parent, change, 0.25 if better == "lower" else 0.05, better)
    assert (result["pairs_won"], result["reading"]) == (won, reading)


def test_bench_file_requires_a_parent(bench_file):
    module, _ = bench_file
    with pytest.raises(SystemExit):
        module.main(["--pr", "7"])
