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


def checkout(root: Path) -> Path:
    (root / "bench").mkdir(parents=True)
    (root / "bench" / "run.py").write_text("")
    (root / "BENCHMARK.json").write_text(json.dumps({"end_to_end": METRICS}))
    return root


def result(train_s, qps, correct=True, failed=0):
    return {
        "correct": correct,
        "attempted": 10,
        "failed": failed,
        "metrics": {"train_s": {"value": train_s, "unit": "s"},
                    "parse_qps": {"value": qps, "unit": "1/s"}},
    }


class FakeRuns:
    """Hands out canned results per side and records the order of runs."""

    def __init__(self, parent_dir, per_side):
        self.parent_dir = parent_dir
        self.per_side = {side: list(results) for side, results in per_side.items()}
        self.calls = []

    def __call__(self, checkout, workload, seed, seconds):
        side = "parent" if checkout == self.parent_dir else "change"
        self.calls.append((side, workload, seed, seconds))
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
    assert all(c[1:] == ("w", 3, 0.0) for c in runs.calls)

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
