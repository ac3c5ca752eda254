from __future__ import annotations

import json
import shutil
import os
import subprocess
import sys
from pathlib import Path

import pytest

from sketchparse import cli
from sketchparse.data import load_jsonl
from sketchparse.lf import parse_logical_form


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """gen-data + train once; the other commands reuse the artifacts."""
    root = tmp_path_factory.mktemp("cli")
    data_dir = root / "data"
    model_dir = root / "model"
    rc = cli.main(
        [
            "gen-data",
            "--out", str(data_dir),
            "--seed", "3",
            "--per-class", "40",
            "--classes", "single-relation,aggregation,yesno,superlative",
            "--entities", "25",
            "--predicates", "12",
        ]
    )
    assert rc == 0
    rc = cli.main(
        [
            "train",
            "--train", str(data_dir / "train.jsonl"),
            "--dev", str(data_dir / "dev.jsonl"),
            "--out", str(model_dir),
            "--epochs", "8",
            "--seed", "0",
        ]
    )
    assert rc == 0
    return root, data_dir, model_dir


class TestGenData:
    def test_writes_three_loadable_splits(self, workspace):
        _, data_dir, _ = workspace
        sizes = [len(load_jsonl(data_dir / f"{name}.jsonl")) for name in ("train", "dev", "test")]
        assert sizes == [128, 16, 16]


class TestTrainPredictEvaluate:
    def test_predict_adds_fields(self, workspace, tmp_path):
        _, data_dir, model_dir = workspace
        out_path = tmp_path / "pred.jsonl"
        rc = cli.main(
            [
                "predict",
                "--model", str(model_dir),
                "--input", str(data_dir / "test.jsonl"),
                "--out", str(out_path),
            ]
        )
        assert rc == 0
        records = [json.loads(line) for line in out_path.read_text().splitlines()]
        assert len(records) == 16
        for record in records:
            assert "predicted_logical_form" in record
            assert "candidates" in record
            for cand in record["candidates"]:
                assert {"logical_form", "pattern_score", "pe_score", "gen_score", "fused"} <= set(cand)

    def test_predictions_mostly_exact(self, workspace, tmp_path):
        _, data_dir, model_dir = workspace
        out_path = tmp_path / "pred2.jsonl"
        cli.main(
            [
                "predict",
                "--model", str(model_dir),
                "--input", str(data_dir / "test.jsonl"),
                "--out", str(out_path),
            ]
        )
        records = [json.loads(line) for line in out_path.read_text().splitlines()]
        hits = sum(r["predicted_logical_form"] == r["logical_form"] for r in records)
        assert hits / len(records) >= 0.9

    def test_blank_questions_get_a_diagnostic(self, workspace, tmp_path):
        _, data_dir, model_dir = workspace
        question = load_jsonl(data_dir / "test.jsonl").samples[0].question
        in_path, out_path = tmp_path / "blank.jsonl", tmp_path / "blank_pred.jsonl"
        in_path.write_text(
            "".join(json.dumps({"question": q}) + "\n" for q in ("", "   ", question))
        )
        rc = cli.main(
            ["predict", "--model", str(model_dir), "--input", str(in_path), "--out", str(out_path)]
        )
        assert rc == 0
        records = [json.loads(line) for line in out_path.read_text().splitlines()]
        assert len(records) == 3
        for record in records[:2]:
            assert record["predicted_logical_form"] == ""
            assert record["candidates"] == [] and record["diagnostic"]
        assert records[2]["predicted_logical_form"] and "diagnostic" not in records[2]

    def test_delimiter_questions_keep_going(self, workspace, tmp_path):
        _, data_dir, model_dir = workspace
        questions = (
            "how many number of pages does ||| place have",
            "what is birth date for (",
            "what is birth date for )",
            load_jsonl(data_dir / "test.jsonl").samples[0].question,
        )
        in_path, out_path = tmp_path / "delim.jsonl", tmp_path / "delim_pred.jsonl"
        in_path.write_text("".join(json.dumps({"question": q}) + "\n" for q in questions))
        rc = cli.main(
            ["predict", "--model", str(model_dir), "--input", str(in_path), "--out", str(out_path)]
        )
        assert rc == 0
        records = [json.loads(line) for line in out_path.read_text().splitlines()]
        assert [r["question"] for r in records] == list(questions)
        for record in records:
            assert record["candidates"] or record["diagnostic"]
            for cand in record["candidates"]:
                parse_logical_form(cand["logical_form"])

    def test_evaluate_writes_report(self, workspace, tmp_path):
        _, data_dir, model_dir = workspace
        report_path = tmp_path / "report.json"
        rc = cli.main(
            [
                "evaluate",
                "--model", str(model_dir),
                "--test", str(data_dir / "test.jsonl"),
                "--hard", str(data_dir / "dev.jsonl"),
                "--report", str(report_path),
            ]
        )
        assert rc == 0
        report = json.loads(report_path.read_text())
        for key in ("overall", "per_class", "taxonomy", "pattern_coverage", "counts"):
            assert key in report
        assert set(report["overall"]) == {"err_s", "err_e", "err_m", "err_l"}
        assert report["hard"]["split"] == "hard"


class TestInspect:
    def test_prints_derivations(self, workspace, capsys):
        sample = {
            "question": "what is birth date for chris pine",
            "logical_form": "( lambda ?x ( mso:people.person.date_of_birth chris_pine ?x ) )",
            "parameters": [{"surface": "chris_pine", "kind": "entity", "span": [5, 6]}],
            "question_type": "single-relation",
        }
        rc = cli.main(["inspect", "--sample", json.dumps(sample)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "( lambda ?x ( P1 E1 ?x ) )" in out
        assert "what is birth date for entity1" in out
        assert "people person date of birth entity1 ?x" in out
        assert "arity 1" in out


class TestExitCodes:
    def test_usage_error_is_one(self):
        with pytest.raises(SystemExit) as err:
            cli.main(["train"])  # missing required flags
        assert err.value.code == 1

    def test_unknown_command_is_one(self):
        with pytest.raises(SystemExit) as err:
            cli.main(["frobnicate"])
        assert err.value.code == 1

    def test_data_error_is_two(self, workspace, tmp_path, capsys):
        _, _, model_dir = workspace
        bad = tmp_path / "bad.jsonl"
        out = tmp_path / "out.jsonl"
        for line in (
            "{not json",
            "5",
            "null",
            '{"question": 5}',
            '{"question": null}',
            '{"question": ["a"]}',
        ):
            bad.write_text(line + "\n")
            rc = cli.main(
                ["predict", "--model", str(model_dir), "--input", str(bad), "--out", str(out)]
            )
            assert rc == 2, line
            assert capsys.readouterr().err.startswith("data error: line 1:"), line

    def test_missing_file_is_two(self, workspace, tmp_path):
        _, _, model_dir = workspace
        rc = cli.main(
            [
                "predict",
                "--model", str(model_dir),
                "--input", str(tmp_path / "nope.jsonl"),
                "--out", str(tmp_path / "out.jsonl"),
            ]
        )
        assert rc == 2

    def test_other_checkpoint_version_is_two(self, workspace, tmp_path, capsys):
        _, data_dir, model_dir = workspace
        for version in (1, 99):
            edited = tmp_path / f"model_v{version}"
            shutil.copytree(model_dir, edited)
            manifest = json.loads((edited / "manifest.json").read_text())
            manifest["format_version"] = version
            (edited / "manifest.json").write_text(json.dumps(manifest))
            rc = cli.main(
                [
                    "predict",
                    "--model", str(edited),
                    "--input", str(data_dir / "test.jsonl"),
                    "--out", str(tmp_path / "out.jsonl"),
                ]
            )
            assert rc == 2
            assert f"format_version {version}," in capsys.readouterr().err

    def test_inconsistent_checkpoint_is_two(self, workspace, checkpoint_edit, tmp_path, capsys):
        _, data_dir, model_dir = workspace
        edit, array_name = checkpoint_edit
        edited = tmp_path / "model_edited"
        shutil.copytree(model_dir, edited)
        edit(edited)
        rc = cli.main(
            [
                "predict",
                "--model", str(edited),
                "--input", str(data_dir / "test.jsonl"),
                "--out", str(tmp_path / "out.jsonl"),
            ]
        )
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("data error:") and array_name in err[0]

    def test_template_slot_beyond_arity_is_two(self, workspace, tmp_path, capsys):
        _, data_dir, model_dir = workspace
        edited = tmp_path / "model_slot"
        shutil.copytree(model_dir, edited)
        patterns = json.loads((edited / "patterns.json").read_text())
        entry = next(e for entries in patterns.values() for e in entries if e["arity"] == 1)
        entry["template"] = [t if t != "entity1" else "entity2" for t in entry["template"]]
        (edited / "patterns.json").write_text(json.dumps(patterns))
        rc = cli.main(
            [
                "predict",
                "--model", str(edited),
                "--input", str(data_dir / "test.jsonl"),
                "--out", str(tmp_path / "out.jsonl"),
            ]
        )
        assert rc == 2
        assert "beyond its arity" in capsys.readouterr().err

    def test_bad_sample_json_is_two(self, capsys):
        for sample in (
            "{broken",
            "5",
            '{"question": 5, "logical_form": "( a )"}',
            '{"logical_form": "( a )"}',
        ):
            assert cli.main(["inspect", "--sample", sample]) == 2, sample
            assert capsys.readouterr().err.startswith("data error:"), sample

    def test_module_entry_point(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "sketchparse", "--help"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "gen-data" in proc.stdout


def test_experiment_script_quick_run(tmp_path):
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "run_synthetic_experiment.py"), "--quick",
         "--report", str(tmp_path / "report.json")],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "dev accuracy, tuned fusion weights" in proc.stdout
    assert json.loads((tmp_path / "report.json").read_text())["counts"]["samples"] > 0
