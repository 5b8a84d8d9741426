import errno
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import fusionopt
import fusionopt.cli as cli
from fusionopt.cli import COMPARISON_ORDER, main
from fusionopt.errors import ConfigError, DataError, InvalidWeightsError
from fusionopt.scoreio import LabelVector, ScoreMatrix, load_scores, write_labels, write_scores
from fusionopt.textprep import TextSample, read_samples, write_samples

from conftest import count_forks, no_children_left, set_cpus
from synthdata import random_dataset, tiered_dataset


def _write_corpus(root, dataset, validation_ids=None, manifest_extra=None):
    """Materialize a FusionDataset as CSV files plus a manifest."""
    root.mkdir(parents=True, exist_ok=True)
    for matrix in dataset.matrices:
        write_scores(matrix, root / f"{matrix.model_id}.csv")
    write_labels(dataset.labels, root / "labels.csv")
    manifest = {
        "models": [
            {"id": m.model_id, "scores_path": f"{m.model_id}.csv"}
            for m in dataset.matrices
        ],
        "labels_path": "labels.csv",
        "method": "bf",
        "params": {},
        "seed": 42,
        "grid_step": 0.05,
        "objective": "fused_accuracy",
        "output": "report.csv",
    }
    if validation_ids is not None:
        (root / "validation_ids.txt").write_text(
            "\n".join(validation_ids) + "\n", encoding="utf-8")
        manifest["validation_ids_path"] = "validation_ids.txt"
    if manifest_extra:
        manifest.update(manifest_extra)
    (root / "manifest.json").write_text(json.dumps(manifest, indent=2),
                                        encoding="utf-8")
    return root / "manifest.json"


def _perfect_vs_broken(tmp_path):
    """Two-model corpus where only full weight on the first model is error-free."""
    from fusionopt.scoreio import align

    ids = tuple(f"s{i}" for i in range(12))
    labels = np.array([0, 1] * 6)
    good = np.array([[0.55, 0.45] if y == 0 else [0.45, 0.55] for y in labels])
    bad = np.array([[0.05, 0.95] if y == 0 else [0.95, 0.05] for y in labels])
    ds = align(
        [ScoreMatrix("good", ids, good), ScoreMatrix("bad", ids, bad)],
        LabelVector(ids, labels),
    )
    return _write_corpus(tmp_path / "corpus", ds,
                         validation_ids=list(ids[:8]),
                         manifest_extra={"grid_step": 0.25})


class TestEvaluate:
    def test_perfect_scores_report_ones(self, tmp_path, capsys):
        scores = tmp_path / "m.csv"
        labels = tmp_path / "labels.csv"
        scores.write_text("sample_id,class_0,class_1\na,0.9,0.1\nb,0.2,0.8\n",
                          encoding="utf-8")
        labels.write_text("sample_id,label\na,0\nb,1\n", encoding="utf-8")
        out = tmp_path / "report.csv"
        code = main(["evaluate", "--scores", str(scores), "--labels", str(labels),
                     "--out", str(out)])
        assert code == 0
        line = out.read_text().splitlines()[1]
        assert line == "m,1.000000,1.000000,1.000000,1.000000,,"
        assert "precision=1.000000" in capsys.readouterr().out

    def test_missing_file_exits_two_naming_path(self, tmp_path, capsys):
        labels = tmp_path / "labels.csv"
        labels.write_text("sample_id,label\na,0\n", encoding="utf-8")
        code = main(["evaluate", "--scores", str(tmp_path / "absent.csv"),
                     "--labels", str(labels)])
        assert code == 2
        assert "absent.csv" in capsys.readouterr().err

    def test_domain_error_exits_one(self, tmp_path, capsys):
        scores = tmp_path / "m.csv"
        labels = tmp_path / "labels.csv"
        scores.write_text("sample_id,class_0,class_1\na,0.9,0.3\n", encoding="utf-8")
        labels.write_text("sample_id,label\na,0\n", encoding="utf-8")
        code = main(["evaluate", "--scores", str(scores), "--labels", str(labels)])
        assert code == 1
        assert "sums" in capsys.readouterr().err

    @pytest.mark.parametrize("label", ["9223372036854775808", "9223372036854775809",
                                       "18446744073709551616"])
    @pytest.mark.parametrize("first", [True, False], ids=["first", "second"])
    def test_label_past_int64_exits_one_at_its_line_without_a_report(self, tmp_path, capsys,
                                                                     label, first):
        scores = tmp_path / "m.csv"
        labels = tmp_path / "labels.csv"
        scores.write_text("sample_id,class_0,class_1\na,0.9,0.1\nb,0.2,0.8\n",
                          encoding="utf-8")
        rows = [f"a,{label}", "b,1"] if first else ["a,0", f"b,{label}"]
        labels.write_text("sample_id,label\n" + "\n".join(rows) + "\n", encoding="utf-8")
        out = tmp_path / "report.csv"
        code = main(["evaluate", "--scores", str(scores), "--labels", str(labels),
                     "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 1
        line = 2 if first else 3
        assert captured.err == (f"error: {labels}:{line}: labels must be class indices "
                                f"int64 can hold, got {label}\n")
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("big_in", ["scores", "labels"])
    def test_a_field_over_the_csv_limit_exits_one_without_a_report(self, tmp_path, capsys,
                                                                  big_in):
        big = "x" * 131073
        ids = {name: ["a", f'"{big}"' if name == big_in else "b"]
               for name in ("scores", "labels")}
        scores, labels = tmp_path / "m.csv", tmp_path / "labels.csv"
        scores.write_text("sample_id,class_0,class_1\n{},0.9,0.1\n{},0.2,0.8\n".format(
            *ids["scores"]), encoding="utf-8")
        labels.write_text("sample_id,label\n{},0\n{},1\n".format(*ids["labels"]),
                          encoding="utf-8")
        out = tmp_path / "report.csv"
        code = main(["evaluate", "--scores", str(scores), "--labels", str(labels),
                     "--out", str(out)])
        captured = capsys.readouterr()
        path = scores if big_in == "scores" else labels
        assert code == 1
        assert captured.err == f"error: {path}:3: field larger than field limit (131072)\n"
        assert captured.out == ""
        assert not out.exists()

    def test_constructed_confusion_profile_row(self, tmp_path, capsys):
        # Score file realizing tp=3, fp=1, fn=1, tn=5 with respect to class 1,
        # so the report row must read P=R=F1=0.75 and accuracy 0.8.
        rows = (
            [("p", 1, 1)] * 3 + [("q", 0, 1)] + [("r", 1, 0)] + [("s", 0, 0)] * 5
        )
        score_lines = ["sample_id,class_0,class_1"]
        label_lines = ["sample_id,label"]
        for i, (tag, label, predicted) in enumerate(rows):
            sid = f"{tag}{i}"
            score = "0.1,0.9" if predicted == 1 else "0.9,0.1"
            score_lines.append(f"{sid},{score}")
            label_lines.append(f"{sid},{label}")
        (tmp_path / "m.csv").write_text("\n".join(score_lines) + "\n", encoding="utf-8")
        (tmp_path / "labels.csv").write_text("\n".join(label_lines) + "\n",
                                             encoding="utf-8")
        out = tmp_path / "report.csv"
        code = main(["evaluate", "--scores", str(tmp_path / "m.csv"),
                     "--labels", str(tmp_path / "labels.csv"), "--out", str(out)])
        assert code == 0
        assert out.read_text().splitlines()[1] == \
            "m,0.750000,0.750000,0.750000,0.800000,,"

    def test_multiple_models_one_row_each(self, tmp_path, capsys):
        for name in ("m1", "m2"):
            (tmp_path / f"{name}.csv").write_text(
                "sample_id,class_0,class_1\na,0.9,0.1\n", encoding="utf-8")
        (tmp_path / "labels.csv").write_text("sample_id,label\na,0\n", encoding="utf-8")
        out = tmp_path / "report.csv"
        code = main(["evaluate", "--scores", str(tmp_path / "m1.csv"),
                     "--scores", str(tmp_path / "m2.csv"),
                     "--labels", str(tmp_path / "labels.csv"), "--out", str(out)])
        assert code == 0
        rows = out.read_text().splitlines()
        assert [r.split(",")[0] for r in rows[1:]] == ["m1", "m2"]

    def test_files_with_different_class_counts_each_get_their_row(self, tmp_path, capsys):
        # Each file is scored on its own, so a K=2 and a K=3 file may sit in
        # one evaluate, where fuse would reject the pair.
        (tmp_path / "k2.csv").write_text(
            "sample_id,class_0,class_1\na,0.9,0.1\nb,0.6,0.4\nc,0.3,0.7\n", encoding="utf-8")
        (tmp_path / "k3.csv").write_text(
            "sample_id,class_0,class_1,class_2\nc,0.1,0.8,0.1\na,0.2,0.5,0.3\n"
            "b,0.2,0.3,0.5\n", encoding="utf-8")
        labels = tmp_path / "labels.csv"
        labels.write_text("sample_id,label\na,0\nb,1\nc,1\n", encoding="utf-8")
        single = {}
        for name in ("k2", "k3"):
            assert main(["evaluate", "--scores", str(tmp_path / f"{name}.csv"),
                         "--labels", str(labels), "--out", str(tmp_path / f"{name}.out")]) == 0
            single[name] = capsys.readouterr().out
        out = tmp_path / "report.csv"
        assert main(["evaluate", "--scores", str(tmp_path / "k2.csv"),
                     "--scores", str(tmp_path / "k3.csv"),
                     "--labels", str(labels), "--out", str(out)]) == 0
        assert capsys.readouterr().out == single["k2"] + single["k3"]
        rows = out.read_text(encoding="utf-8").splitlines()
        assert rows[1:] == [(tmp_path / f"{name}.out").read_text(encoding="utf-8").splitlines()[1]
                            for name in ("k2", "k3")]
        assert rows[1] == "k2,1.000000,0.500000,0.666667,0.666667,,"
        assert main(["fuse", "--scores", str(tmp_path / "k2.csv"),
                     "--scores", str(tmp_path / "k3.csv"), "--labels", str(labels),
                     "--weights", "1,1", "--out", str(tmp_path / "fused.csv")]) == 1
        assert capsys.readouterr().err == "error: model 'k3' has 3 classes, model 'k2' has 2\n"


class TestFuse:
    def test_writes_loadable_fused_csv(self, tmp_path, capsys):
        (tmp_path / "m1.csv").write_text(
            "sample_id,class_0,class_1\na,0.8,0.2\nb,0.4,0.6\n", encoding="utf-8")
        (tmp_path / "m2.csv").write_text(
            "sample_id,class_0,class_1\na,0.2,0.8\nb,0.6,0.4\n", encoding="utf-8")
        (tmp_path / "labels.csv").write_text("sample_id,label\na,0\nb,1\n",
                                             encoding="utf-8")
        out = tmp_path / "fused.csv"
        code = main(["fuse", "--scores", str(tmp_path / "m1.csv"),
                     "--scores", str(tmp_path / "m2.csv"),
                     "--labels", str(tmp_path / "labels.csv"),
                     "--weights", "1,1", "--out", str(out)])
        assert code == 0
        fused = load_scores(out)
        assert fused.model_id == "fused"
        np.testing.assert_allclose(fused.scores, [[0.5, 0.5], [0.5, 0.5]],
                                   rtol=0, atol=1e-12)

    def test_a_fused_score_rounded_past_one_is_written_as_one(self, tmp_path, capsys):
        # These weights' exact_simplex entries sum, left to right, to
        # 1.0000000000000002, and so does the fused score of class_0.
        scores = []
        for m in range(3):
            scores += ["--scores", str(tmp_path / f"m{m}.csv")]
            (tmp_path / f"m{m}.csv").write_text("sample_id,class_0,class_1\na,1.0,0.0\n",
                                                encoding="utf-8")
        (tmp_path / "labels.csv").write_text("sample_id,label\na,0\n", encoding="utf-8")
        out = tmp_path / "fused.csv"
        assert main(["fuse", *scores, "--labels", str(tmp_path / "labels.csv"), "--weights",
                     "0.3496275081022046,0.5966239869061449,0.05374850499165053",
                     "--out", str(out)]) == 0
        assert out.read_text(encoding="utf-8").splitlines()[1] == "a,1.0,0.0"

    def test_weight_count_mismatch_exits_one(self, tmp_path, capsys):
        (tmp_path / "m1.csv").write_text(
            "sample_id,class_0,class_1\na,0.8,0.2\n", encoding="utf-8")
        (tmp_path / "labels.csv").write_text("sample_id,label\na,0\n", encoding="utf-8")
        code = main(["fuse", "--scores", str(tmp_path / "m1.csv"),
                     "--labels", str(tmp_path / "labels.csv"),
                     "--weights", "1,2", "--out", str(tmp_path / "f.csv")])
        assert code == 1


    def test_weight_count_mismatch_names_the_model_count(self, tmp_path, capsys):
        (tmp_path / "m1.csv").write_text(
            "sample_id,class_0,class_1\na,0.8,0.2\n", encoding="utf-8")
        (tmp_path / "labels.csv").write_text("sample_id,label\na,0\n", encoding="utf-8")
        code = main(["fuse", "--scores", str(tmp_path / "m1.csv"),
                     "--labels", str(tmp_path / "labels.csv"),
                     "--weights", "1,2", "--out", str(tmp_path / "f.csv")])
        assert code == 1
        assert capsys.readouterr().err == "error: got 2 weights for 1 models\n"
        assert not (tmp_path / "f.csv").exists()

    @pytest.mark.parametrize("weights, code, message", [
        ("1e308,1e308", 1, "cannot normalize vector: its sum overflows float64"),
        ("0.5,x", 2, "could not parse --weights value '0.5,x'"),
        ("1_0,2", 2, "could not parse --weights value '1_0,2'"),
        ("\u0967,2", 2, "could not parse --weights value '\u0967,2'"),
    ], ids=["sum-overflows", "not-a-number", "underscore", "non-ascii-digit"])
    def test_bad_weights_exit_with_one_error_line_and_no_output(self, tmp_path, capsys,
                                                                weights, code, message):
        for name, rows in (("m1", "a,0.8,0.2\nb,0.4,0.6\n"), ("m2", "a,0.2,0.8\nb,0.6,0.4\n")):
            (tmp_path / f"{name}.csv").write_text("sample_id,class_0,class_1\n" + rows,
                                                  encoding="utf-8")
        (tmp_path / "labels.csv").write_text("sample_id,label\na,0\nb,1\n", encoding="utf-8")
        out = tmp_path / "f.csv"
        assert main(["fuse", "--scores", str(tmp_path / "m1.csv"),
                     "--scores", str(tmp_path / "m2.csv"),
                     "--labels", str(tmp_path / "labels.csv"),
                     "--weights", weights, "--out", str(out)]) == code
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""
        assert not out.exists()

    # The weights are parsed and counted before any file is read, so their
    # fault is reported over a fault in the files.
    @pytest.mark.parametrize("weights, code, message", [
        ("abc", 2, "could not parse --weights value 'abc'"),
        ("1,2,3", 1, "got 3 weights for 2 models"),
    ], ids=["unparsable", "count"])
    def test_a_weights_fault_comes_before_a_file_fault(self, tmp_path, capsys, weights, code,
                                                       message):
        (tmp_path / "m1.csv").write_text("sample_id,class_0,class_1\na,0.9,0.3\n",
                                         encoding="utf-8")
        (tmp_path / "labels.csv").write_text("sample_id,label\na,0\n", encoding="utf-8")
        out = tmp_path / "f.csv"
        for second in ("m1.csv", "absent.csv"):
            assert main(["fuse", "--scores", str(tmp_path / "m1.csv"),
                         "--scores", str(tmp_path / second),
                         "--labels", str(tmp_path / "labels.csv"),
                         "--weights", weights, "--out", str(out)]) == code
            captured = capsys.readouterr()
            assert captured.err == f"error: {message}\n"
            assert captured.out == ""
            assert not out.exists()


class TestOptimize:
    def test_equal_method_reports_equal_weights(self, tmp_path, capsys):
        manifest = _write_corpus(tmp_path / "c", tiered_dataset(7, n_samples=40),
                                 manifest_extra={"method": "equal"})
        out = tmp_path / "r.csv"
        code = main(["optimize", "--manifest", str(manifest), "--out", str(out)])
        assert code == 0
        payload = json.loads((tmp_path / "r.json").read_text())
        assert payload["method"] == "equal"
        assert payload["evaluations"] == 1
        np.testing.assert_allclose(payload["best_weights"], [1 / 3] * 3,
                                   rtol=0, atol=1e-12)

    def test_bf_recovers_perfect_model_with_perfect_test_f1(self, tmp_path, capsys):
        manifest = _perfect_vs_broken(tmp_path)
        out = tmp_path / "r.csv"
        code = main(["optimize", "--manifest", str(manifest), "--out", str(out)])
        assert code == 0
        payload = json.loads((tmp_path / "r.json").read_text())
        assert payload["best_weights"] == [1.0, 0.0]
        assert payload["best_error"] == 0.0
        row = out.read_text().splitlines()[1].split(",")
        assert row[0] == "bf"
        assert row[3] == "1.000000"  # test-split F1

    def test_stochastic_rerun_is_byte_identical(self, tmp_path, capsys):
        manifest = _write_corpus(tmp_path / "c", tiered_dataset(9, n_samples=50),
                                 manifest_extra={"method": "pso",
                                                 "params": {"swarm_size": 8,
                                                            "iterations": 10}})
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["optimize", "--manifest", str(manifest), "--out", str(out_a)]) == 0
        assert main(["optimize", "--manifest", str(manifest), "--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_stochastic_method_without_seed_exits_two(self, tmp_path, capsys):
        ds = tiered_dataset(3, n_samples=30)
        root = tmp_path / "c"
        manifest_path = _write_corpus(root, ds, manifest_extra={"method": "pso"})
        body = json.loads(manifest_path.read_text())
        del body["seed"]
        manifest_path.write_text(json.dumps(body), encoding="utf-8")
        code = main(["optimize", "--manifest", str(manifest_path)])
        assert code == 2
        assert "seed" in capsys.readouterr().err

    def test_cli_overrides_manifest_method(self, tmp_path, capsys):
        manifest = _write_corpus(tmp_path / "c", tiered_dataset(5, n_samples=40))
        out = tmp_path / "r.csv"
        code = main(["optimize", "--manifest", str(manifest), "--method", "equal",
                     "--out", str(out)])
        assert code == 0
        assert out.read_text().splitlines()[1].startswith("equal,")

    def test_score_mass_objective_variant(self, tmp_path, capsys):
        manifest = _write_corpus(tmp_path / "c", tiered_dataset(5, n_samples=40))
        out = tmp_path / "r.csv"
        code = main(["optimize", "--manifest", str(manifest),
                     "--objective", "score_mass", "--out", str(out)])
        assert code == 0
        payload = json.loads((tmp_path / "r.json").read_text())
        # score-mass error is continuous, not a multiple of 1/n_samples
        assert 0.0 < payload["best_error"] < 1.0


class TestCompare:
    def _run(self, tmp_path, name, seed=None):
        manifest = _write_corpus(
            tmp_path / "corpus", tiered_dataset(7, n_samples=60),
            validation_ids=[f"s{i:04d}" for i in range(40)],
            manifest_extra={"params": {}},
        )
        out = tmp_path / name
        argv = ["compare", "--manifest", str(manifest), "--out", str(out)]
        if seed is not None:
            argv += ["--seed", str(seed)]
        assert main(argv) == 0
        return out

    def test_six_rows_in_fixed_order(self, tmp_path, capsys):
        out = self._run(tmp_path, "cmp.csv")
        rows = out.read_text().splitlines()
        assert [r.split(",")[0] for r in rows[1:]] == [
            "equal", "pso", "ga", "bf", "powell", "nelder-mead"]

    def test_bf_dominates_equal_on_validation_objective(self, tmp_path, capsys):
        out = self._run(tmp_path, "cmp.csv")
        rows = {r.split(",")[0]: r.split(",") for r in out.read_text().splitlines()[1:]}
        assert float(rows["bf"][5]) <= float(rows["equal"][5])

    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        a = self._run(tmp_path, "a.csv")
        b = self._run(tmp_path, "b.csv")
        assert a.read_bytes() == b.read_bytes()

    def test_seed_change_only_moves_stochastic_rows(self, tmp_path, capsys):
        a = self._run(tmp_path, "a.csv", seed=42)
        b = self._run(tmp_path, "b.csv", seed=43)
        rows_a = {r.split(",")[0]: r for r in a.read_text().splitlines()[1:]}
        rows_b = {r.split(",")[0]: r for r in b.read_text().splitlines()[1:]}
        for method in ("equal", "bf", "nelder-mead"):
            assert rows_a[method] == rows_b[method]

    def test_method_failure_aborts_with_context(self, tmp_path, capsys):
        manifest = _write_corpus(
            tmp_path / "corpus", tiered_dataset(2, n_samples=30),
            manifest_extra={"grid_step": 0.001})
        code = main(["compare", "--manifest", str(manifest),
                     "--out", str(tmp_path / "x.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert "bf" in err and "budget" in err


class TestRunner:
    def test_compare_builds_the_objective_once(self, tmp_path, capsys, monkeypatch):
        import fusionopt.cli as cli

        calls = []
        real = cli.make_objective

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "make_objective", counting)
        manifest = _write_corpus(tmp_path / "c", tiered_dataset(7, n_samples=40))
        assert main(["compare", "--manifest", str(manifest),
                     "--out", str(tmp_path / "r.csv")]) == 0
        assert len(calls) == 1

    def test_stdout_line_and_csv_row_have_the_same_cells(self, tmp_path, capsys):
        manifest = _write_corpus(tmp_path / "c", tiered_dataset(7, n_samples=40))
        out = tmp_path / "r.csv"
        assert main(["compare", "--manifest", str(manifest), "--out", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        header, *rows = [r.split(",") for r in out.read_text().splitlines()]
        assert len(lines) == len(rows) == 6
        for line, cells in zip(lines, rows):
            assert line == f"{cells[0]}: " + " ".join(
                f"{name}={cell}" for name, cell in zip(header[1:], cells[1:]))

    def test_compare_without_seed_stops_before_any_row(self, tmp_path, capsys):
        manifest = _write_corpus(tmp_path / "c", tiered_dataset(3, n_samples=30))
        body = json.loads(manifest.read_text())
        del body["seed"]
        manifest.write_text(json.dumps(body), encoding="utf-8")
        code = main(["compare", "--manifest", str(manifest),
                     "--out", str(tmp_path / "r.csv")])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: method 'pso' is stochastic and requires an explicit seed\n")
        assert captured.err.count("'pso'") == 1
        assert list(tmp_path.glob("r*")) == []

    def test_compare_checks_the_bf_grid_before_running_pso(self, tmp_path, capsys):
        manifest = _write_corpus(tmp_path / "c", tiered_dataset(3, n_samples=30),
                                 manifest_extra={"method": "pso", "grid_step": 0.3})
        code = main(["compare", "--manifest", str(manifest),
                     "--out", str(tmp_path / "r.csv")])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: method 'bf': grid_step 0.3 must divide 1 into a whole number of steps\n")
        assert list(tmp_path.glob("r*")) == []

    @pytest.mark.parametrize("command", [["compare"],
                                         ["optimize", "--method", "bf"]])
    def test_config_error_comes_before_reading_any_score_file(self, tmp_path, capsys,
                                                              command):
        manifest = _write_corpus(tmp_path / "c", tiered_dataset(3, n_samples=30),
                                 manifest_extra={"method": "pso", "grid_step": 0.3})
        # Unreadable as a score table: reading it would raise a data error.
        (manifest.parent / "m0.csv").write_text("not,a,score\ntable\n", encoding="utf-8")
        code = main([*command, "--manifest", str(manifest),
                     "--out", str(tmp_path / "r.csv")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: method 'bf': grid_step 0.3 ")

    @pytest.mark.parametrize("where", ["flag", "manifest"])
    def test_a_report_on_the_result_json_path_exits_two_before_reading_scores(
            self, tmp_path, capsys, where):
        root = tmp_path / "c"
        manifest = _write_corpus(root, tiered_dataset(3, n_samples=30),
                                 manifest_extra={"output": "run.json"})
        # Unreadable as a score table: reading it would raise a data error.
        (root / "m0.csv").write_text("not,a,score\ntable\n", encoding="utf-8")
        out = tmp_path / "run.json" if where == "flag" else root / "run.json"
        flag = ["--out", str(out)] if where == "flag" else []
        assert main(["optimize", "--manifest", str(manifest), *flag]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: report path '{out}' is also the result JSON of method 'bf'\n")
        assert not out.exists()

    def test_optimize_search_error_names_its_method(self, tmp_path, capsys):
        manifest = _write_corpus(tmp_path / "c", tiered_dataset(2, n_samples=30),
                                 manifest_extra={"method": "equal", "grid_step": 0.001})
        code = main(["optimize", "--manifest", str(manifest), "--method", "bf",
                     "--out", str(tmp_path / "r.csv")])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: method 'bf': brute-force search holds ")
        assert list(tmp_path.glob("r*")) == []


# Manifest settings the runner rejects, each with its exit code and error line.
BAD_SETTINGS = {
    "seedless-pso": ({"method": "pso", "seed": None}, 2,
                     "method 'pso' is stochastic and requires an explicit seed"),
    "unknown-method": ({"method": "annealing"}, 1,
                       "unknown method 'annealing'; expected one of "
                       "equal, pso, ga, bf, powell, nelder-mead"),
    "small-swarm": ({"method": "pso", "params": {"swarm_size": 1}}, 1,
                    "method 'pso': swarm_size must be at least 2"),
    "foreign-param": ({"params": {"inertia": 0.5}}, 1,
                      "method 'bf' does not accept parameter(s): inertia"),
    "params-list": ({"params": [1]}, 1,
                    "params must map parameter names to values, got [1]"),
    "grid-step-true": ({"grid_step": True}, 1, "grid_step must lie in (0, 1], got True"),
    "grid-step-0.3": ({"grid_step": 0.3}, 1,
                      "method 'bf': grid_step 0.3 must divide 1 into a whole number of steps"),
    "negative-seed": ({"seed": -1}, 1, "seed must be an unsigned 64-bit integer"),
    "grid-over-budget": ({"grid_step": 0.001}, 1,
                         "method 'bf': brute-force search holds 501502 candidates, "
                         "exceeding the evaluation budget of 100000"),
    "unknown-objective": ({"objective": "recall"}, 1,
                          "unknown objective variant 'recall'; expected one of "
                          "fused_accuracy, score_mass"),
}


def _module_env(**extra):
    """The environment for ``python -m fusionopt`` on this checkout's source."""
    src = Path(fusionopt.__file__).resolve().parents[1]
    return {**os.environ, **extra, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}


def _manifest_with(root, settings, n_samples=30):
    """A bf corpus whose manifest takes ``settings``; a None value drops its key."""
    manifest = _write_corpus(root, tiered_dataset(3, n_samples=n_samples))
    body = json.loads(manifest.read_text())
    body.update(settings)
    manifest.write_text(json.dumps({k: v for k, v in body.items() if v is not None}),
                        encoding="utf-8")
    return manifest


class TestRunSettings:
    @pytest.mark.parametrize("command", [["optimize"], ["compare"],
                                         ["optimize", "--method", "equal"]],
                             ids=["optimize", "compare", "optimize-equal"])
    @pytest.mark.parametrize("case", BAD_SETTINGS)
    def test_bad_setting_stops_the_run_before_reading_any_file(self, tmp_path, capsys,
                                                               command, case):
        settings, code, message = BAD_SETTINGS[case]
        manifest = _manifest_with(tmp_path / "c", settings)
        # Unreadable as a score table: reading it would raise a data error.
        (manifest.parent / "m0.csv").write_text("not,a,score\ntable\n", encoding="utf-8")
        assert main([*command, "--manifest", str(manifest),
                     "--out", str(tmp_path / "r.csv")]) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
        assert list(tmp_path.glob("r*")) == []

    def test_numeric_output_is_a_config_error(self, tmp_path, capsys):
        # str(5) used to name the report "5", written beside the manifest.
        manifest = _manifest_with(tmp_path / "c", {"output": 5})
        assert main(["compare", "--manifest", str(manifest)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {manifest}: 'output' must be a string, got 5\n"
        assert list((tmp_path / "c").glob("5*")) == []

    @pytest.mark.parametrize("command", ["optimize", "compare"])
    def test_seed_flag_rescues_a_seedless_stochastic_manifest(self, tmp_path, capsys,
                                                              command):
        manifest = _manifest_with(tmp_path / "c", {
            "method": "pso", "seed": None, "params": {"swarm_size": 6, "iterations": 5}})
        out = tmp_path / "r.csv"
        assert main([command, "--manifest", str(manifest), "--seed", "7",
                     "--out", str(out)]) == 0
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == (1 if command == "optimize" else 6)
        result = tmp_path / ("r.json" if command == "optimize" else "r.pso.json")
        assert json.loads(result.read_text())["seed"] == 7

    @pytest.mark.parametrize("listed", [False, True], ids=["no-list", "full-list"])
    def test_reused_test_split_warns_once_on_stderr(self, tmp_path, listed):
        ds = tiered_dataset(4, n_samples=30)
        manifest = _write_corpus(tmp_path / "c", ds,
                                 validation_ids=list(ds.sample_ids) if listed else None,
                                 manifest_extra={"method": "equal"})
        run = subprocess.run([sys.executable, "-m", "fusionopt", "optimize",
                              "--manifest", str(manifest), "--out", str(tmp_path / "r.csv")],
                             capture_output=True, text=True, env=_module_env(), timeout=120)
        assert run.returncode == 0
        assert run.stderr == (
            "the test split is the validation split; test metrics are not held out\n")


class TestThreadedBlas:
    def test_compare_is_byte_identical_on_one_and_two_blas_threads(self, tmp_path):
        # 4 models x 8 rivals x 16,000 validation samples make a margin table
        # of 512,000 entries, above the size (about 460,000 in OpenBLAS 0.3.31)
        # from which OpenBLAS splits ``sgemv`` over threads, which may change
        # the order of its sums. The screen's bound holds in any order, so
        # every count, and so every output, must stay the same.
        ds = random_dataset(np.random.default_rng(5), n_models=4, n_samples=16_400,
                            n_classes=9)
        manifest = _write_corpus(
            tmp_path / "corpus", ds, validation_ids=list(ds.sample_ids[:16_000]),
            manifest_extra={"method": "pso", "grid_step": 0.25,
                            "params": {"swarm_size": 4, "iterations": 10}})
        runs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            run = subprocess.run([sys.executable, "-m", "fusionopt", "compare",
                                  "--manifest", str(manifest), "--out", str(out / "cmp.csv")],
                                 capture_output=True, text=True, timeout=300,
                                 env=_module_env(OPENBLAS_NUM_THREADS=threads))
            assert run.returncode == 0, run.stderr
            runs.append((run.stdout, {p.name: p.read_bytes() for p in out.iterdir()}))
        assert len(runs[0][1]) == 7
        assert runs[0] == runs[1]


BUNDLED_MANIFEST = Path(__file__).resolve().parents[1] / "data" / "synthetic" / "manifest.json"


def _search_pids(monkeypatch, tmp_path):
    """Record the process each search runs in; returns a call that reads ``{method: pid}``.

    A forked search cannot append to a list here, so each appends a line to
    a file.
    """
    record, real = tmp_path / "search-pids.txt", cli.optimize

    def optimize(objective, n_models, config):
        with open(record, "a", encoding="utf-8") as fh:
            fh.write(f"{config.method} {os.getpid()}\n")
        return real(objective, n_models, config)

    monkeypatch.setattr(cli, "optimize", optimize)

    def read():
        lines = record.read_text(encoding="utf-8").split() if record.exists() else []
        record.unlink(missing_ok=True)
        return {method: int(pid) for method, pid in zip(lines[::2], lines[1::2])}

    return read


def _in_children(pids) -> list:
    """The methods whose searches ran in a process other than this one, each in its own."""
    children = [m for m in COMPARISON_ORDER if m in pids and pids[m] != os.getpid()]
    assert len({pids[m] for m in children}) == len(children)
    return children


def _compare_outputs(main_argv, out, capsys):
    code = main(main_argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err, {
        p.name: p.read_bytes() for p in sorted(out.parent.iterdir())}


@pytest.mark.skipif(not (sys.platform == "linux" and cli._openblas_threads()),
                    reason="searches fork only on Linux, with numpy on OpenBLAS")
class TestForkedSearches:
    """Searches forked one per method give what an in-process run gives, byte for byte."""

    @pytest.mark.parametrize("corpus", ["bundled", "k3"])
    def test_forked_and_in_process_outputs_are_byte_identical(self, tmp_path, capsys,
                                                              monkeypatch, corpus):
        if corpus == "bundled":
            manifest = BUNDLED_MANIFEST
        else:
            ds = random_dataset(np.random.default_rng(3), n_models=3, n_samples=150,
                                n_classes=3)
            manifest = _write_corpus(tmp_path / "corpus", ds,
                                     validation_ids=list(ds.sample_ids[:100]))
        pids = _search_pids(monkeypatch, tmp_path)
        runs = []
        for cpus, forked in ((2, list(COMPARISON_ORDER[1:])), (1, [])):
            set_cpus(monkeypatch, cpus)
            out = tmp_path / f"cpus{cpus}" / "cmp.csv"
            out.parent.mkdir()
            runs.append(_compare_outputs(
                ["compare", "--manifest", str(manifest), "--out", str(out)], out, capsys))
            ran = pids()
            assert sorted(ran) == sorted(COMPARISON_ORDER)
            assert _in_children(ran) == forked
        assert runs[0][0] == 0
        assert len(runs[0][3]) == 7
        assert runs[0] == runs[1]
        assert no_children_left()

    def test_optimize_runs_its_one_search_in_process(self, tmp_path, capsys, monkeypatch):
        pids = _search_pids(monkeypatch, tmp_path)
        set_cpus(monkeypatch, 2)
        assert main(["optimize", "--manifest", str(BUNDLED_MANIFEST),
                     "--out", str(tmp_path / "r.csv")]) == 0
        assert pids() == {"bf": os.getpid()}

    def test_compare_runs_in_process_where_blas_threads_cannot_be_set(
            self, tmp_path, capsys, monkeypatch):
        pids = _search_pids(monkeypatch, tmp_path)
        set_cpus(monkeypatch, 2)
        monkeypatch.setattr(cli, "_openblas_threads", lambda: [])
        assert main(["compare", "--manifest", str(BUNDLED_MANIFEST),
                     "--out", str(tmp_path / "r.csv")]) == 0
        assert pids() == dict.fromkeys(COMPARISON_ORDER, os.getpid())

    def test_a_returned_result_keeps_read_only_weights(self, tmp_path, monkeypatch):
        from fusionopt.objective import make_objective
        from fusionopt.optimizers import OptimizerConfig
        from fusionopt.scoreio import load_manifest, load_manifest_splits

        set_cpus(monkeypatch, 2)
        validation, _ = load_manifest_splits(load_manifest(BUNDLED_MANIFEST))
        configs = [OptimizerConfig(method=m, seed=1) for m in ("equal", "pso")]
        with cli._searches(make_objective(validation), validation.num_models,
                           configs) as outcomes:
            results = [outcome() for outcome in outcomes]
        assert [r.method for r in results] == ["equal", "pso"]
        for result in results:
            assert not result.best_weights.values.flags.writeable
        assert no_children_left()

    def test_a_budget_cut_off_warns_once_on_one_and_two_cpus(self, tmp_path):
        # Run as a program, so that the warning reaches stderr as it does for
        # a user. A swarm one larger than the default budget of 100,000 cuts
        # pso off, which runs in a child on two CPUs.
        corpus = tmp_path / "corpus"
        shutil.copytree(BUNDLED_MANIFEST.parent, corpus)
        manifest = corpus / "manifest.json"
        body = json.loads(manifest.read_text(encoding="utf-8"))
        body.update(method="pso", params={"swarm_size": 100_001, "iterations": 1})
        manifest.write_text(json.dumps(body), encoding="utf-8")
        program = (
            "import os, sys\n"
            "import fusionopt.cli as cli\n"
            "os.sched_getaffinity = lambda pid: set(range(int(sys.argv[1])))\n"
            "print('unflushed before the searches')\n"
            "raise SystemExit(cli.main(sys.argv[2:]))\n"
        )
        runs = []
        for cpus in ("2", "1"):
            out = tmp_path / f"cpus{cpus}" / "cmp.csv"
            run = subprocess.run(
                [sys.executable, "-c", program, cpus, "compare",
                 "--manifest", str(manifest), "--out", str(out)],
                capture_output=True, text=True, timeout=120, env=_module_env())
            assert run.returncode == 0, run.stderr
            runs.append((run.stdout, run.stderr,
                         {p.name: p.read_bytes() for p in out.parent.iterdir()}))
        assert runs[0][1] == (
            "method 'pso' stopped at max_evaluations=100000 before its search finished\n")
        assert runs[0][0].count("unflushed before the searches") == 1
        assert len(runs[0][2]) == 7
        assert runs[0] == runs[1]

    def test_one_thread_searches_match_threaded_in_process_ones(self, tmp_path):
        # Forked searches run OpenBLAS on one thread; in-process ones here on
        # two, which split the ``sgemv`` (see TestThreadedBlas). Every output
        # must be the same.
        ds = random_dataset(np.random.default_rng(5), n_models=4, n_samples=16_400,
                            n_classes=9)
        manifest = _write_corpus(
            tmp_path / "corpus", ds, validation_ids=list(ds.sample_ids[:16_000]),
            manifest_extra={"method": "pso", "grid_step": 0.25,
                            "params": {"swarm_size": 4, "iterations": 10}})
        program = (
            "import os, sys\n"
            "import fusionopt.cli as cli\n"
            "os.sched_getaffinity = lambda pid: set(range(int(sys.argv[1])))\n"
            "raise SystemExit(cli.main(sys.argv[2:]))\n"
        )
        runs = []
        for cpus in ("2", "1"):
            out = tmp_path / f"cpus{cpus}"
            run = subprocess.run(
                [sys.executable, "-c", program, cpus, "compare",
                 "--manifest", str(manifest), "--out", str(out / "cmp.csv")],
                capture_output=True, text=True, timeout=300,
                env=_module_env(OPENBLAS_NUM_THREADS="2"))
            assert run.returncode == 0, run.stderr
            runs.append((run.stdout, {p.name: p.read_bytes() for p in out.iterdir()}))
        assert len(runs[0][1]) == 7
        assert runs[0] == runs[1]

    def test_each_row_is_printed_once_to_a_pipe(self, tmp_path):
        run = subprocess.run([sys.executable, "-m", "fusionopt", "compare",
                              "--manifest", str(BUNDLED_MANIFEST),
                              "--out", str(tmp_path / "cmp.csv")],
                             capture_output=True, text=True, timeout=120, env=_module_env())
        assert run.returncode == 0, run.stderr
        assert run.stderr == ""
        lines = run.stdout.splitlines()
        assert [line.split(":")[0] for line in lines] == list(COMPARISON_ORDER)

    @staticmethod
    def _failing_search(monkeypatch, failures):
        real = cli.optimize

        def optimize(objective, n_models, config):
            failure = failures.get(config.method)
            if failure is None:
                return real(objective, n_models, config)
            return failure()

        monkeypatch.setattr(cli, "optimize", optimize)

    @pytest.mark.parametrize("cpus", [2, 1])
    def test_the_first_failing_method_in_order_is_reported(self, tmp_path, capsys,
                                                           monkeypatch, cpus):
        def ga():
            raise ConfigError("ga went wrong")

        def powell():
            raise InvalidWeightsError("powell went wrong")

        self._failing_search(monkeypatch, {"ga": ga, "powell": powell})
        set_cpus(monkeypatch, cpus)
        out = tmp_path / "out" / "cmp.csv"
        code = main(["compare", "--manifest", str(BUNDLED_MANIFEST), "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == "error: method 'ga': ga went wrong\n"
        assert [line.split(":")[0] for line in captured.out.splitlines()] == ["equal", "pso"]
        assert not out.parent.exists()
        assert no_children_left()

    @pytest.mark.parametrize("death, ended", [
        (lambda: os.kill(os.getpid(), signal.SIGKILL),
         f"killed by signal {int(signal.SIGKILL)}"),
        (lambda: os._exit(3), "exited with status 3"),
        (lambda: os._exit(0), "exited with status 0"),
    ], ids=["sigkill", "exit", "exit-0"])
    def test_a_search_process_that_dies_is_named_and_reaped(self, tmp_path, capsys,
                                                            monkeypatch, death, ended):
        parent = os.getpid()

        def ga():
            assert os.getpid() != parent, "the search must run in a child"
            death()

        self._failing_search(monkeypatch, {"ga": ga})
        set_cpus(monkeypatch, 2)
        out = tmp_path / "out" / "cmp.csv"
        code = main(["compare", "--manifest", str(BUNDLED_MANIFEST), "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == (
            f"error: method 'ga': search process {ended} before it sent a result\n")
        assert [line.split(":")[0] for line in captured.out.splitlines()] == ["equal", "pso"]
        assert not out.parent.exists()
        assert no_children_left()

    def test_an_interrupt_in_the_parent_kills_the_running_searches(self, tmp_path, capsys,
                                                                   monkeypatch):
        def bf():
            time.sleep(60)

        def interrupted(row):
            raise KeyboardInterrupt

        self._failing_search(monkeypatch, {"bf": bf})
        monkeypatch.setattr(cli, "_print_row", interrupted)
        set_cpus(monkeypatch, 2)
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            main(["compare", "--manifest", str(BUNDLED_MANIFEST),
                  "--out", str(tmp_path / "cmp.csv")])
        assert time.monotonic() - start < 30
        assert no_children_left()

    def test_a_signal_just_after_a_reap_kills_no_stranger(self, tmp_path, capsys,
                                                            monkeypatch):
        # The signal lands between reaping a child and unlisting it; the
        # reaped pid must not be signalled, for it may be reused by then.
        real_waitpid, real_kill = os.waitpid, os.kill
        reaped, killed = [], []

        def waitpid(pid, options):
            result = real_waitpid(pid, options)
            if options == 0 and not reaped:
                reaped.append(pid)
                raise KeyboardInterrupt
            return result

        monkeypatch.setattr(os, "waitpid", waitpid)
        monkeypatch.setattr(os, "kill", lambda pid, sig: (killed.append(pid), real_kill(pid, sig)))
        set_cpus(monkeypatch, 2)
        with pytest.raises(KeyboardInterrupt):
            main(["compare", "--manifest", str(BUNDLED_MANIFEST),
                  "--out", str(tmp_path / "cmp.csv")])
        assert len(reaped) == 1 and reaped[0] not in killed
        assert no_children_left()

    def test_sigterm_to_the_parent_kills_the_running_searches(self, tmp_path):
        # A job scheduler's timeout sends SIGTERM; no search may outlive compare.
        program = (
            "import os, sys, time\n"
            "import fusionopt.cli as cli\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "real = cli.optimize\n"
            "def optimize(objective, n_models, config):\n"
            "    if config.method == 'bf':\n"
            "        open(sys.argv[1], 'w').write(str(os.getpid()))\n"
            "        time.sleep(60)\n"
            "    return real(objective, n_models, config)\n"
            "cli.optimize = optimize\n"
            "raise SystemExit(cli.main(sys.argv[2:]))\n"
        )
        pid_file = tmp_path / "bf.pid"
        proc = subprocess.Popen(
            [sys.executable, "-c", program, str(pid_file), "compare",
             "--manifest", str(BUNDLED_MANIFEST), "--out", str(tmp_path / "out" / "cmp.csv")],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_module_env())
        try:
            deadline = time.monotonic() + 60
            while not pid_file.exists() or not pid_file.read_text():
                assert proc.poll() is None and time.monotonic() < deadline
                time.sleep(0.05)
            search = int(pid_file.read_text())
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=30) == 128 + signal.SIGTERM
        finally:
            proc.kill()
            proc.communicate()
        with pytest.raises(ProcessLookupError):
            os.kill(search, 0)
        assert not (tmp_path / "out").exists()

    def test_sigterm_to_another_thread_kills_the_running_searches(self, tmp_path):
        # A signal that reaches another thread, such as an OpenBLAS worker,
        # runs its handler only once the main thread is back in the
        # interpreter; waiting on a search's pipe must not keep it away.
        program = (
            "import os, signal, sys, threading, time\n"
            "import fusionopt.cli as cli\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "real = cli.optimize\n"
            "def optimize(objective, n_models, config):\n"
            "    if config.method == 'pso':\n"
            "        open(sys.argv[1], 'w').write(str(os.getpid()))\n"
            "        time.sleep(60)\n"
            "    return real(objective, n_models, config)\n"
            "cli.optimize = optimize\n"
            "def helper():\n"
            "    while not os.path.exists(sys.argv[1]) or not open(sys.argv[1]).read():\n"
            "        time.sleep(0.05)\n"
            "    time.sleep(1)  # so that the main thread waits on pso's pipe\n"
            "    signal.pthread_kill(threading.get_ident(), signal.SIGTERM)\n"
            "threading.Thread(target=helper, daemon=True).start()\n"
            "raise SystemExit(cli.main(sys.argv[2:]))\n"
        )
        pid_file = tmp_path / "pso.pid"
        proc = subprocess.Popen(
            [sys.executable, "-c", program, str(pid_file), "compare",
             "--manifest", str(BUNDLED_MANIFEST), "--out", str(tmp_path / "out" / "cmp.csv")],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_module_env())
        try:
            deadline = time.monotonic() + 60
            while not pid_file.exists() or not pid_file.read_text():
                assert proc.poll() is None and time.monotonic() < deadline
                time.sleep(0.05)
            search = int(pid_file.read_text())
            assert proc.wait(timeout=10) == 128 + signal.SIGTERM
        finally:
            proc.kill()
            proc.communicate()
        with pytest.raises(ProcessLookupError):
            os.kill(search, 0)
        assert not (tmp_path / "out").exists()

    # The first fork is the score-file reader's; the second and fourth are searches'.
    @pytest.mark.parametrize("fork", [1, 2, 4])
    def test_sigterm_during_a_fork_is_honoured(self, tmp_path, fork):
        # CPython may run the handler inside an after-fork hook, such as
        # logging's, and drops what the hook raises; compare must still stop.
        program = (
            "import os, signal, sys, threading\n"
            "import fusionopt.cli as cli\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "forks = []\n"
            "def after_in_parent():\n"
            "    forks.append(None)\n"
            "    if len(forks) == int(sys.argv[1]):\n"
            "        signal.pthread_kill(threading.main_thread().ident, signal.SIGTERM)\n"
            "os.register_at_fork(after_in_parent=after_in_parent)\n"
            "raise SystemExit(cli.main(sys.argv[2:]))\n"
        )
        run = subprocess.run(
            [sys.executable, "-c", program, str(fork), "compare",
             "--manifest", str(BUNDLED_MANIFEST), "--out", str(tmp_path / "out" / "cmp.csv")],
            capture_output=True, text=True, timeout=60, env=_module_env())
        assert run.returncode == 128 + signal.SIGTERM, run.stderr
        assert not (tmp_path / "out").exists()

    def test_sigterm_handler_is_restored(self, tmp_path, capsys, monkeypatch):
        set_cpus(monkeypatch, 2)

        def handler(signum, frame):
            pass

        before = signal.signal(signal.SIGTERM, handler)
        try:
            assert main(["compare", "--manifest", str(BUNDLED_MANIFEST),
                         "--out", str(tmp_path / "cmp.csv")]) == 0
            assert signal.getsignal(signal.SIGTERM) is handler
        finally:
            signal.signal(signal.SIGTERM, before)

    # The bundled corpus's three score files take one reader fork and pipe
    # first; the second fork or pipe is the first search's.
    @pytest.mark.parametrize("call, failing, forked", [
        ("fork", 2, []), ("fork", 4, ["pso", "ga"]), ("pipe", 2, [])],
        ids=["first-search-fork", "third-search-fork", "first-search-pipe"])
    def test_searches_that_cannot_fork_run_in_process(self, tmp_path, capsys, monkeypatch,
                                                      call, failing, forked):
        # A process or descriptor limit makes fork or pipe fail with EAGAIN
        # or EMFILE; the searches not yet started then run in the parent.
        out = tmp_path / "in-process" / "cmp.csv"
        out.parent.mkdir()
        set_cpus(monkeypatch, 1)
        expected = _compare_outputs(
            ["compare", "--manifest", str(BUNDLED_MANIFEST), "--out", str(out)], out, capsys)
        set_cpus(monkeypatch, 2)
        pids = _search_pids(monkeypatch, tmp_path)
        calls, real = [], getattr(os, call)

        def limited():
            calls.append(1)
            if len(calls) >= failing:
                raise OSError(errno.EAGAIN, "Resource temporarily unavailable")
            return real()

        monkeypatch.setattr(os, call, limited)
        out = tmp_path / "limited" / "cmp.csv"
        out.parent.mkdir()
        descriptors = sorted(os.listdir("/proc/self/fd"))
        got = _compare_outputs(
            ["compare", "--manifest", str(BUNDLED_MANIFEST), "--out", str(out)], out, capsys)
        assert got == expected
        assert sorted(os.listdir("/proc/self/fd")) == descriptors
        assert _in_children(pids()) == forked
        assert no_children_left()

    def test_compare_from_another_thread_runs_in_process(self, tmp_path, capsys, monkeypatch):
        set_cpus(monkeypatch, 2)
        forks = count_forks(monkeypatch)
        codes = []
        thread = threading.Thread(target=lambda: codes.append(main(
            ["compare", "--manifest", str(BUNDLED_MANIFEST), "--out", str(tmp_path / "c.csv")])))
        thread.start()
        thread.join()
        assert codes == [0]
        assert forks == []

    def test_a_search_runs_openblas_on_one_thread(self, tmp_path, capsys, monkeypatch):
        # One thread, and no thread pool started in the child, whose idle
        # thread would spin; the parent is left on one thread too.
        def ga():
            tasks = len(os.listdir("/proc/self/task"))
            threads = [get() for get, _ in cli._openblas_threads()]
            raise ConfigError(f"openblas threads {threads}, tasks {tasks}")

        self._failing_search(monkeypatch, {"ga": ga})
        set_cpus(monkeypatch, 2)
        # Two threads in the parent, whatever this host's CPU count.
        controls = cli._openblas_threads()
        threads = [get() for get, _ in controls]
        for _, set_threads in controls:
            set_threads(2)
        try:
            assert main(["compare", "--manifest", str(BUNDLED_MANIFEST),
                         "--out", str(tmp_path / "cmp.csv")]) == 1
            assert [get() for get, _ in controls] == [1] * len(controls)
        finally:
            for (_, set_threads), count in zip(controls, threads):
                set_threads(count)
        assert capsys.readouterr().err == (
            f"error: method 'ga': openblas threads {[1] * len(controls)}, tasks 1\n")
        assert no_children_left()

    def test_an_unexpected_error_keeps_the_search_traceback(self, tmp_path, capsys,
                                                            monkeypatch):
        def ga():
            return [][0]

        self._failing_search(monkeypatch, {"ga": ga})
        set_cpus(monkeypatch, 2)
        with pytest.raises(IndexError) as info:
            main(["compare", "--manifest", str(BUNDLED_MANIFEST),
                  "--out", str(tmp_path / "cmp.csv")])
        cause = str(info.value.__cause__)
        assert "Traceback (most recent call last)" in cause
        assert "in ga\n    return [][0]" in cause
        assert no_children_left()

    def test_an_error_that_cannot_be_pickled_is_named(self, tmp_path, capsys, monkeypatch):
        class Local(Exception):
            pass

        def ga():
            raise Local("not importable")

        self._failing_search(monkeypatch, {"ga": ga})
        set_cpus(monkeypatch, 2)
        with pytest.raises(RuntimeError) as info:
            main(["compare", "--manifest", str(BUNDLED_MANIFEST),
                  "--out", str(tmp_path / "cmp.csv")])
        assert str(info.value) == (
            "method 'ga': search raised Local('not importable'), which cannot be pickled")
        assert "in ga\n    raise Local" in str(info.value.__cause__)
        assert not (tmp_path / "cmp.csv").exists()
        assert no_children_left()


class TestManifestEdges:
    def test_validation_ids_covering_everything_reuse_samples_as_test(self, tmp_path, capsys):
        ds = tiered_dataset(4, n_samples=30)
        manifest = _write_corpus(tmp_path / "c", ds,
                                 validation_ids=list(ds.sample_ids))
        out = tmp_path / "r.csv"
        assert main(["optimize", "--manifest", str(manifest), "--out", str(out)]) == 0
        row = out.read_text().splitlines()[1].split(",")
        # with the splits identical, test accuracy is 1 - validation error
        assert float(row[4]) == pytest.approx(1.0 - float(row[5]), abs=1e-9)

    def test_compare_applies_params_to_matching_method_only(self, tmp_path, capsys):
        manifest = _write_corpus(
            tmp_path / "c", tiered_dataset(6, n_samples=40),
            manifest_extra={"method": "pso",
                            "params": {"swarm_size": 6, "iterations": 5}})
        out = tmp_path / "cmp.csv"
        assert main(["compare", "--manifest", str(manifest), "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 7

    @pytest.mark.parametrize("command", ["optimize", "compare"])
    @pytest.mark.parametrize("value", ["fast", None])
    def test_non_numeric_param_exits_one_naming_it(self, tmp_path, capsys, command, value):
        manifest = _write_corpus(
            tmp_path / "c", tiered_dataset(6, n_samples=20),
            manifest_extra={"method": "pso", "params": {"inertia": value}})
        code = main([command, "--manifest", str(manifest), "--out", str(tmp_path / "r.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "inertia" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["optimize", "compare"])
    @pytest.mark.parametrize("name,value", [("velocity_clamp", float("inf")),
                                            ("cognitive", float("inf")),
                                            ("social", float("nan"))])
    def test_non_finite_param_exits_one_naming_it(self, tmp_path, capsys, command, name, value):
        manifest = _write_corpus(
            tmp_path / "c", tiered_dataset(6, n_samples=20),
            manifest_extra={"method": "pso", "params": {name: value}})
        assert ("Infinity" if value > 0 else "NaN") in manifest.read_text()
        code = main([command, "--manifest", str(manifest), "--out", str(tmp_path / "r.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert f"parameter '{name}' must be finite, got {value!r}" in err
        assert "Traceback" not in err
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("where", ["flag", "manifest"])
    def test_subnormal_grid_step_exits_one_naming_it(self, tmp_path, capsys, where):
        extra = {"grid_step": 5e-324} if where == "manifest" else None
        manifest = _write_corpus(tmp_path / "c", tiered_dataset(6, n_samples=20),
                                 manifest_extra=extra)
        argv = ["optimize", "--manifest", str(manifest), "--method", "bf",
                "--out", str(tmp_path / "r.csv")]
        if where == "flag":
            argv += ["--grid-step", "5e-324"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "grid_step" in err
        assert "Traceback" not in err
        assert not (tmp_path / "r.csv").exists()

    def test_optimize_defaults_to_manifest_output_path(self, tmp_path, capsys):
        root = tmp_path / "c"
        manifest = _write_corpus(root, tiered_dataset(8, n_samples=30),
                                 manifest_extra={"method": "equal"})
        assert main(["optimize", "--manifest", str(manifest)]) == 0
        assert (root / "report.csv").exists()
        assert (root / "report.json").exists()


def _snapshot(root):
    return {path: path.read_bytes() for path in sorted(root.rglob("*"))}


class TestOutputOverInput:
    """An output path that names an input file: exit 2, with nothing read or written.

    Each corpus has a score file no reader accepts, so reading it would exit 1.
    """

    def _corpus(self, tmp_path, **manifest_extra):
        root = tmp_path / "c"
        manifest = _write_corpus(root, tiered_dataset(3, n_samples=30),
                                 validation_ids=[f"s{i:04d}" for i in range(20)],
                                 manifest_extra=manifest_extra)
        (root / "m1.csv").write_text("not,a,score\ntable\n", encoding="utf-8")
        return root, manifest

    def _refused(self, argv, root, capsys, out, source):
        before = _snapshot(root)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: output path '{out}' would overwrite the input '{source}'\n"
        assert _snapshot(root) == before

    @pytest.mark.parametrize("target", ["m0.csv", "labels.csv"])
    def test_fuse(self, tmp_path, capsys, target):
        root, _ = self._corpus(tmp_path)
        source = root / target
        out = root / "sub" / ".." / target  # the same file once resolved
        argv = ["fuse", "--scores", str(root / "m0.csv"), "--scores", str(root / "m1.csv"),
                "--labels", str(root / "labels.csv"), "--weights", "1,1", "--out", str(out)]
        self._refused(argv, root, capsys, out, source)

    @pytest.mark.parametrize("target", ["m1.csv", "labels.csv"])
    def test_evaluate(self, tmp_path, capsys, target, monkeypatch):
        root, _ = self._corpus(tmp_path)
        monkeypatch.chdir(root)
        argv = ["evaluate", "--scores", "m1.csv", "--labels", str(root / "labels.csv"),
                "--out", target]
        self._refused(argv, root, capsys, target, "m1.csv" if target == "m1.csv" else
                      str(root / "labels.csv"))

    @pytest.mark.parametrize("report, target", [
        ("labels.csv", "labels.csv"),
        ("validation_ids.txt", "validation_ids.txt"),
        ("manifest.csv", "manifest.json"),  # the result JSON onto the manifest
    ])
    def test_optimize(self, tmp_path, capsys, report, target):
        root, manifest = self._corpus(tmp_path, method="equal")
        argv = ["optimize", "--manifest", str(manifest), "--out", str(root / report)]
        source = manifest if target == "manifest.json" else root / target
        self._refused(argv, root, capsys, root / target, source)

    @pytest.mark.parametrize("where", ["flag", "manifest"])
    def test_compare(self, tmp_path, capsys, where):
        root, manifest = self._corpus(tmp_path, output="m0.csv")
        flag = ["--out", str(root / "m0.csv")] if where == "flag" else []
        argv = ["compare", "--manifest", str(manifest), *flag]
        self._refused(argv, root, capsys, root / "m0.csv", root / "m0.csv")

    def test_compare_result_json_onto_a_score_file(self, tmp_path, capsys):
        root, manifest = self._corpus(tmp_path)
        (root / "m0.csv").rename(root / "r.pso.json")
        text = manifest.read_text(encoding="utf-8").replace('"m0.csv"', '"r.pso.json"')
        manifest.write_text(text, encoding="utf-8")
        argv = ["compare", "--manifest", str(manifest), "--out", str(root / "r.csv")]
        self._refused(argv, root, capsys, root / "r.pso.json", root / "r.pso.json")

    @pytest.mark.parametrize("command, options", [
        ("clean", []), ("balance", ["--seed", "7"]), ("augment", [])])
    @pytest.mark.parametrize("out", ["s.jsonl", "sub/../s.jsonl"])
    def test_prep(self, tmp_path, capsys, monkeypatch, command, options, out):
        root = tmp_path / "c"
        write_samples([TextSample("a", "Ciao @amica!!", 1, "it"),
                       TextSample("b", "water", 0, "en")], root / "s.jsonl")
        monkeypatch.chdir(root)
        argv = ["prep", command, "s.jsonl", *options, "--out", out]
        self._refused(argv, root, capsys, out, "s.jsonl")


class TestValidationTestSeparation:
    def test_altering_test_scores_never_changes_weights(self, tmp_path, capsys):
        ds = tiered_dataset(13, n_samples=60)
        val_ids = [f"s{i:04d}" for i in range(40)]
        root_a = tmp_path / "a"
        manifest_a = _write_corpus(root_a, ds, validation_ids=val_ids)

        # same corpus with every test-split row of one model overwritten
        root_b = tmp_path / "b"
        manifest_b = _write_corpus(root_b, ds, validation_ids=val_ids)
        path = root_b / "m0.csv"
        lines = path.read_text().splitlines()
        val_set = set(val_ids)
        edited = [lines[0]]
        for line in lines[1:]:
            sid = line.split(",")[0]
            edited.append(f"{sid},0.5,0.5" if sid not in val_set else line)
        path.write_text("\n".join(edited) + "\n", encoding="utf-8")

        out_a, out_b = tmp_path / "ra.csv", tmp_path / "rb.csv"
        assert main(["optimize", "--manifest", str(manifest_a), "--out", str(out_a)]) == 0
        assert main(["optimize", "--manifest", str(manifest_b), "--out", str(out_b)]) == 0
        weights_a = json.loads((tmp_path / "ra.json").read_text())["best_weights"]
        weights_b = json.loads((tmp_path / "rb.json").read_text())["best_weights"]
        assert weights_a == weights_b


class TestPrep:
    def _jsonl(self, tmp_path, samples):
        path = tmp_path / "in.jsonl"
        write_samples(samples, path)
        return path

    def test_clean_preserves_line_count(self, tmp_path, capsys):
        samples = [
            TextSample("a", "Check https://t.co/abc @user water!!", 1, "en"),
            TextSample("b", "l'acqua \U0001F4A7", 0, "it"),
        ]
        src = self._jsonl(tmp_path, samples)
        out = tmp_path / "out.jsonl"
        assert main(["prep", "clean", str(src), "--out", str(out)]) == 0
        cleaned = read_samples(out)
        assert len(cleaned) == 2
        assert cleaned[0].text == "Check water"
        assert cleaned[1].text == "l'acqua"

    def test_balance_is_deterministic(self, tmp_path, capsys):
        samples = [TextSample(f"t{i}", f"x {i}", int(i < 7), "en") for i in range(10)]
        src = self._jsonl(tmp_path, samples)
        out_a, out_b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert main(["prep", "balance", str(src), "--out", str(out_a), "--seed", "7"]) == 0
        assert main(["prep", "balance", str(src), "--out", str(out_b), "--seed", "7"]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    @pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
    def test_balance_bad_seed_exits_one_without_output(self, tmp_path, capsys, seed):
        samples = [TextSample(f"t{i}", f"x {i}", int(i < 7), "en") for i in range(10)]
        src = self._jsonl(tmp_path, samples)
        out = tmp_path / "b.jsonl"
        assert main(["prep", "balance", str(src), "--out", str(out), "--seed", seed]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: seed must be an unsigned 64-bit integer\n"
        assert not out.exists()

    def test_augment_grows_by_source_language_count(self, tmp_path, capsys):
        samples = [TextSample(f"t{i}", "acqua", 1, "it") for i in range(3)]
        samples += [TextSample(f"e{i}", "water", 0, "en") for i in range(5)]
        src = self._jsonl(tmp_path, samples)
        out = tmp_path / "out.jsonl"
        assert main(["prep", "augment", str(src), "--out", str(out),
                     "--source-lang", "it", "--target-lang", "en"]) == 0
        assert len(read_samples(out)) == 11

    def test_repeated_sample_id_exits_one_naming_both_lines(self, tmp_path, capsys):
        src = tmp_path / "in.jsonl"
        line = '{{"sample_id": "{}", "text": "x", "label": 0, "lang": "en"}}\n'
        src.write_text(line.format("a") + "\n" + line.format("b") + line.format("a"),
                       encoding="utf-8")
        out = tmp_path / "o.jsonl"
        assert main(["prep", "clean", str(src), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {src}:4: duplicate sample_id 'a' (first seen at line 1)\n")
        assert not out.exists()

    def test_augment_onto_an_existing_id_exits_one_without_output(self, tmp_path, capsys):
        src = self._jsonl(tmp_path, [TextSample("a", "acqua", 1, "it"),
                                     TextSample("a-bt", "water", 0, "en")])
        out = tmp_path / "out.jsonl"
        assert main(["prep", "augment", str(src), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {out}: duplicate sample_id 'a-bt'\n"
        assert not out.exists()

    def test_write_samples_rejects_a_repeated_id_before_opening_the_file(self, tmp_path):
        out = tmp_path / "new" / "out.jsonl"
        samples = [TextSample(sid, "x", 0, "en") for sid in ("a", "b", "b")]
        with pytest.raises(DataError, match=rf"^{re.escape(str(out))}: duplicate sample_id 'b'$"):
            write_samples(samples, out)
        assert not out.parent.exists()

    def test_non_string_values_exit_one_without_output(self, tmp_path, capsys):
        # Each of sample_id, text and lang is wrong; sample_id is checked first.
        src = tmp_path / "in.jsonl"
        src.write_text('{"sample_id": null, "text": 5, "label": 1, "lang": ["it"]}\n',
                       encoding="utf-8")
        out = tmp_path / "o.jsonl"
        assert main(["prep", "clean", str(src), "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {src}:1: 'sample_id' must be a string, got null\n"
        assert not out.exists()

    def test_parse_error_exits_one_with_line(self, tmp_path, capsys):
        src = tmp_path / "in.jsonl"
        src.write_text("nonsense\n", encoding="utf-8")
        code = main(["prep", "clean", str(src), "--out", str(tmp_path / "o.jsonl")])
        assert code == 1
        assert "in.jsonl:1" in capsys.readouterr().err


class TestInputEncoding:
    """Every input file is UTF-8, with an optional byte order mark."""

    # file name inside the corpus -> the command that reads it
    READERS = {
        "score CSV": ("m1.csv", ["evaluate", "--scores", "{c}/m1.csv",
                                 "--labels", "{c}/labels.csv"]),
        "labels CSV": ("labels.csv", ["evaluate", "--scores", "{c}/m1.csv",
                                      "--labels", "{c}/labels.csv"]),
        "id list": ("validation_ids.txt", ["optimize", "--manifest", "{c}/manifest.json",
                                           "--out", "{c}/r.csv"]),
        "manifest": ("manifest.json", ["optimize", "--manifest", "{c}/manifest.json",
                                       "--out", "{c}/r.csv"]),
        "JSONL": ("in.jsonl", ["prep", "clean", "{c}/in.jsonl", "--out", "{c}/o.jsonl"]),
    }

    @pytest.mark.parametrize("reader", READERS)
    def test_a_byte_that_is_not_utf8_exits_one_naming_the_file(self, tmp_path, capsys,
                                                               reader):
        ds = tiered_dataset(5, n_samples=20)
        corpus = tmp_path / "c"
        _write_corpus(corpus, ds, validation_ids=list(ds.sample_ids[:10]))
        write_samples([TextSample("a", "water!", 0, "en")], corpus / "in.jsonl")
        name, argv = self.READERS[reader]
        target = corpus / name
        data = target.read_bytes()
        target.write_bytes(data[:len(data) // 2] + b"\xff" + data[len(data) // 2:])
        assert main([arg.format(c=corpus) for arg in argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {target}: not valid UTF-8 (invalid start byte)\n"
        assert not (corpus / "r.csv").exists() and not (corpus / "o.jsonl").exists()

    def test_jsonl_byte_order_mark_is_ignored(self, tmp_path, capsys):
        plain, marked = tmp_path / "plain.jsonl", tmp_path / "marked.jsonl"
        write_samples([TextSample("a", "water!!", 0, "en")], plain)
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        for src in (plain, marked):
            out = tmp_path / f"out-{src.name}"
            assert main(["prep", "clean", str(src), "--out", str(out)]) == 0
        assert (tmp_path / "out-marked.jsonl").read_bytes() == \
            (tmp_path / "out-plain.jsonl").read_bytes()
        assert read_samples(tmp_path / "out-marked.jsonl")[0].text == "water"


class TestWarnings:
    def test_commands_on_the_bundled_corpus_raise_no_warning(self, tmp_path):
        # Under -W error a warning, such as a numpy deprecation or a
        # RuntimeWarning from the arithmetic, becomes an exception and exit 1.
        data = tmp_path / "synthetic"
        shutil.copytree(Path(__file__).resolve().parents[1] / "data" / "synthetic", data)
        ids = [line.split(",")[0] for line in (data / "labels.csv").read_text().splitlines()[1:]]
        write_samples([TextSample(sid, f"Post {sid} @user https://t.co/x!!", i % 2, "en")
                       for i, sid in enumerate(ids)], data / "posts.jsonl")
        models = [str(data / f"model_{name}.csv") for name in ("strong", "mid", "weak")]
        labels = str(data / "labels.csv")
        commands = [
            ["compare", "--manifest", str(data / "manifest.json"), "--out", str(data / "c.csv")],
            ["fuse", *(a for m in models for a in ("--scores", m)), "--labels", labels,
             "--weights", "2,1,1", "--out", str(data / "fused.csv")],
            ["evaluate", *(a for m in models for a in ("--scores", m)), "--labels", labels,
             "--out", str(data / "e.csv")],
            ["prep", "clean", str(data / "posts.jsonl"), "--out", str(data / "clean.jsonl")],
        ]
        for argv in commands:
            run = subprocess.run([sys.executable, "-W", "error", "-m", "fusionopt", *argv],
                                 env=_module_env(), capture_output=True, text=True, check=False)
            assert run.returncode == 0, (argv[0], run.stderr)


class TestUsage:
    def test_unknown_flag_exits_two(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["evaluate", "--nope"])
        assert excinfo.value.code == 2

    def test_unknown_command_exits_two(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2
