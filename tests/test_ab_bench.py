from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "ab_bench.py"
_spec = importlib.util.spec_from_file_location("ab_bench", SCRIPT)
ab_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_bench)

METRICS = [
    {"name": "train_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "parse_qps", "unit": "1/s", "better": "higher", "bound": 0.25},
]
PER_LAYER = [
    {"name": "train.matchers.pair_loss_grads_s", "unit": "s", "better": "lower"},
    {"name": "train.matchers.pairs_trained", "unit": "count", "better": "lower"},
]


def checkout(root: Path) -> Path:
    (root / "bench").mkdir(parents=True)
    (root / "bench" / "run.py").write_text("")
    (root / "BENCHMARK.json").write_text(
        json.dumps({"end_to_end": METRICS, "per_layer": PER_LAYER})
    )
    return root


def result(train_s, qps, correct=True, failed=0):
    return {
        "correct": correct,
        "attempted": 10,
        "failed": failed,
        "parse_questions": 10,
        "metrics": {"train_s": {"value": train_s, "unit": "s"},
                    "parse_qps": {"value": qps, "unit": "1/s"}},
    }


class FakeRuns:
    """Hands out canned results per side and records the order of runs."""

    def __init__(self, parent_dir, per_side):
        self.parent_dir = parent_dir
        self.per_side = {side: list(results) for side, results in per_side.items()}
        self.calls = []

    def __call__(self, checkout, workload, seed, seconds, trace):
        side = "parent" if checkout == self.parent_dir else "change"
        self.calls.append((side, workload, seed, seconds, trace))
        return self.per_side[side].pop(0)


@pytest.fixture
def dirs(tmp_path):
    return checkout(tmp_path / "parent"), checkout(tmp_path / "change")


def test_alternates_order_and_summarises(dirs, capsys):
    parent, change = dirs
    runs = FakeRuns(parent, {
        "parent": [result(2.0, 100.0), result(2.2, 110.0), result(1.8, 90.0), result(2.4, 95.0)],
        "change": [result(1.5, 100.0), result(1.6, 120.0), result(1.9, 95.0), result(1.4, 99.0)],
    })
    argv = [str(parent), str(change), "--workload", "w", "--pairs", "4", "--seed", "3",
            "--seconds", "0"]
    assert ab_bench.main(argv, run=runs) == 0
    assert [c[0] for c in runs.calls] == ["parent", "change", "change", "parent"] * 2
    assert all(c[1:] == ("w", 3, 0.0, 0) for c in runs.calls)

    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    train, qps = summary["rows"]
    assert train["parent_median"] == pytest.approx(2.1)
    assert train["change_median"] == pytest.approx(1.55)
    assert train["ratio"] == pytest.approx(1.55 / 2.1)
    assert train["parent_iqr"] == pytest.approx(2.25 - 1.95)
    assert train["wins"] == 3  # lower is better; pair 3 (1.8 vs 1.9) is lost
    assert qps["wins"] == 3  # higher is better; pair 1 is a tie, not a win
    assert qps["pairs"] == 4


@pytest.mark.parametrize("bad", [{"correct": False}, {"failed": 2}])
def test_incorrect_run_exits_one(dirs, bad, capsys):
    parent, change = dirs
    runs = FakeRuns(parent, {
        "parent": [result(2.0, 100.0)],
        "change": [result(1.0, 100.0, **bad)],
    })
    argv = [str(parent), str(change), "--workload", "w", "--pairs", "1"]
    assert ab_bench.main(argv, run=runs) == 1
    assert "run not correct: pair 0 change" in capsys.readouterr().err


def test_checkout_without_bench_rejected(dirs, tmp_path):
    parent, _ = dirs
    with pytest.raises(SystemExit):
        ab_bench.main([str(parent), str(tmp_path), "--workload", "w", "--pairs", "1"])


def traced(grads_s, pairs, correct=True, failed=0):
    return {
        "correct": correct,
        "attempted": 10,
        "failed": failed,
        "parse_questions": 10,
        "metrics": {"train.matchers.pair_loss_grads_s": {"value": grads_s, "unit": "s"},
                    "train.matchers.pairs_trained": {"value": pairs, "unit": "count"}},
    }


def test_trace_runs_traced_and_summarises_per_layer(dirs, capsys):
    parent, change = dirs
    runs = FakeRuns(parent, {
        "parent": [traced(0.6, 100), traced(0.5, 100), traced(0.7, 100)],
        "change": [traced(0.4, 100), traced(0.45, 100), traced(0.8, 100)],
    })
    argv = [str(parent), str(change), "--workload", "w", "--pairs", "3", "--trace", "1"]
    assert ab_bench.main(argv, run=runs) == 0
    assert all(c[4] == 1 for c in runs.calls)

    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert summary["trace"] == 1
    grads, pairs = summary["rows"]
    assert grads["name"] == "train.matchers.pair_loss_grads_s"
    assert grads["parent_median"] == pytest.approx(0.6)
    assert grads["change_median"] == pytest.approx(0.45)
    assert grads["ratio"] == pytest.approx(0.75)
    assert grads["parent_iqr"] == pytest.approx(0.65 - 0.55)
    assert grads["wins"] == 2  # pair 3 (0.7 vs 0.8) is lost
    assert pairs["ratio"] == 1.0 and pairs["wins"] == 0 and pairs["pairs"] == 3


def test_trace_flag_reaches_bench_run(dirs, monkeypatch):
    parent, _ = dirs
    seen = []

    class Done:
        returncode = 0
        stdout = "properties: parse_questions=10, passes=1\n" + json.dumps(traced(0.5, 10)) + "\n"
        stderr = ""

    monkeypatch.setattr(ab_bench.subprocess, "run", lambda cmd, **kw: seen.append(cmd) or Done)
    assert ab_bench.run_bench(parent, "w", 3, 0.0, 1)["metrics"]
    assert seen[0][seen[0].index("--trace") + 1] == "1"


def rss_result(rss_mb, attempted):
    return {
        "correct": True,
        "attempted": attempted,
        "failed": 0,
        "parse_questions": 1000,
        "metrics": {"peak_rss_mb": {"value": rss_mb, "unit": "MB"}},
    }


def test_pass_counts_printed_beside_peak_rss(tmp_path, capsys):
    rss = [{"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.05}]
    parent, change = checkout(tmp_path / "parent"), checkout(tmp_path / "change")
    (change / "BENCHMARK.json").write_text(json.dumps({"end_to_end": rss, "per_layer": []}))
    runs = FakeRuns(parent, {
        "parent": [rss_result(50.0, 14000), rss_result(50.2, 15000), rss_result(50.1, 14000)],
        "change": [rss_result(50.4, 16000), rss_result(50.6, 17000), rss_result(50.5, 16000)],
    })
    argv = [str(parent), str(change), "--workload", "w", "--pairs", "3"]
    assert ab_bench.main(argv, run=runs) == 0

    lines = capsys.readouterr().out.strip().splitlines()
    summary = json.loads(lines[-1])
    assert summary["passes"] == {"parent": 14.0, "change": 16.0}
    (row,) = [ln for ln in lines if ln.lstrip().startswith("peak_rss_mb")]
    assert "passes 14 -> 16" in row


def test_stream_size_read_from_properties_line(dirs, monkeypatch):
    parent, _ = dirs

    class Done:
        returncode = 0
        stdout = (
            "workload w seed 3\n"
            "properties: train_questions=4000, parse_questions=1000, passes=7\n"
            + json.dumps(result(2.0, 100.0)) + "\n"
        )
        stderr = ""

    monkeypatch.setattr(ab_bench.subprocess, "run", lambda cmd, **kw: Done)
    out = ab_bench.run_bench(parent, "w", 3, 0.0, 0)
    assert out["parse_questions"] == 1000
    assert ab_bench.passes({**out, "attempted": 7000}) == 7.0
