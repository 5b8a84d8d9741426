import contextlib
import csv
import io
import logging
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fusionopt import scoreio
from fusionopt.errors import ConfigError, DataError
from fusionopt.objective import make_objective
from fusionopt.scoreio import (
    MANIFEST_KEYS,
    LabelVector,
    ReportRow,
    ScoreMatrix,
    align,
    load_labels,
    load_manifest,
    load_manifest_splits,
    load_scores,
    read_id_list,
    subset,
    write_labels,
    write_report,
    write_scores,
)

from synthdata import random_dataset


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadScores:
    def test_basic_two_rows(self, tmp_path):
        path = _write(tmp_path, "m.csv",
                      "sample_id,class_0,class_1\ns1,0.8,0.2\ns2,0.3,0.7\n")
        matrix = load_scores(path)
        assert matrix.model_id == "m"
        assert matrix.sample_ids == ("s1", "s2")
        assert matrix.num_classes == 2
        np.testing.assert_array_equal(matrix.scores, [[0.8, 0.2], [0.3, 0.7]])

    def test_explicit_model_id(self, tmp_path):
        path = _write(tmp_path, "m.csv", "sample_id,class_0,class_1\ns1,0.5,0.5\n")
        assert load_scores(path, model_id="alpha").model_id == "alpha"

    def test_row_sum_violation_names_line(self, tmp_path):
        path = _write(tmp_path, "m.csv",
                      "sample_id,class_0,class_1\ns1,0.8,0.2\ns2,0.4,0.5\n")
        with pytest.raises(DataError, match=r"m\.csv:3.*sums"):
            load_scores(path)

    def test_empty_file_is_a_missing_header(self, tmp_path):
        path = _write(tmp_path, "m.csv", "")
        with pytest.raises(DataError, match=rf"^{re.escape(str(path))}:1: missing header$"):
            load_scores(path)

    def test_header_only_is_no_samples(self, tmp_path):
        path = _write(tmp_path, "m.csv", "sample_id,class_0,class_1\n")
        with pytest.raises(DataError, match="no samples"):
            load_scores(path)

    def test_malformed_header(self, tmp_path):
        path = _write(tmp_path, "m.csv", "id,c0,c1\ns1,0.5,0.5\n")
        with pytest.raises(DataError, match=r"m\.csv:1.*header"):
            load_scores(path)

    def test_single_class_header_rejected(self, tmp_path):
        path = _write(tmp_path, "m.csv", "sample_id,class_0\ns1,1.0\n")
        with pytest.raises(DataError, match="header"):
            load_scores(path)

    def test_non_numeric_cell_names_line_and_column(self, tmp_path):
        path = _write(tmp_path, "m.csv",
                      "sample_id,class_0,class_1\ns1,0.8,0.2\ns2,oops,0.7\n")
        with pytest.raises(DataError, match=r"m\.csv:3.*'oops'.*class_0"):
            load_scores(path)

    def test_duplicate_sample_id_names_both_lines(self, tmp_path):
        path = _write(tmp_path, "m.csv",
                      "sample_id,class_0,class_1\ns1,0.8,0.2\ns1,0.3,0.7\n")
        with pytest.raises(DataError, match=r"m\.csv:3.*duplicate.*line 2"):
            load_scores(path)

    def test_value_out_of_range(self, tmp_path):
        path = _write(tmp_path, "m.csv", "sample_id,class_0,class_1\ns1,1.2,-0.2\n")
        with pytest.raises(DataError, match=r"outside \[0, 1\]"):
            load_scores(path)

    # Faults come in three tiers: text faults (field count, duplicate id,
    # non-numeric cell), then range faults, then row-sum faults. Record
    # order decides only within a tier.
    def test_text_fault_outranks_an_earlier_range_fault(self, tmp_path):
        path = _write(tmp_path, "m.csv",
                      "sample_id,class_0,class_1\ns0,0.5,0.5\ns1,1.2,-0.2\ns2,oops,0.5\n")
        with pytest.raises(DataError, match=r"m\.csv:4: non-numeric value 'oops'"):
            load_scores(path)

    def test_range_fault_outranks_an_earlier_row_sum_fault(self, tmp_path):
        path = _write(tmp_path, "m.csv",
                      "sample_id,class_0,class_1\ns0,0.5,0.5\ns1,0.5,0.4\ns2,1.2,-0.2\n")
        with pytest.raises(DataError, match=r"m\.csv:4: value 1\.2 outside \[0, 1\]"):
            load_scores(path)

    # A blank line sits before the bad row, so its line number is not its
    # row index plus a fixed offset.
    @pytest.mark.parametrize("cell", ["nan", "1.5", "-0.5", "inf"])
    def test_value_errors_name_their_line(self, tmp_path, cell):
        path = _write(tmp_path, "m.csv",
                      f"sample_id,class_0,class_1\ns1,0.8,0.2\n\ns2,0.3,{cell}\n")
        with pytest.raises(DataError,
                           match=r"m\.csv:4: value .* outside \[0, 1\] in column 'class_1'"):
            load_scores(path)

    # Line numbers count CSV records from the header as line 1, blank
    # records included; the first fault in record order is the one reported.
    def test_duplicate_reported_before_later_short_row(self, tmp_path):
        path = _write(tmp_path, "m.csv", "sample_id,class_0,class_1\n"
                      "s1,0.8,0.2\ns1,0.3,0.7\ns2,0.5,0.5\ns3,0.5\n")
        with pytest.raises(DataError, match=r"^.*m\.csv:3: duplicate sample_id 's1' "
                                            r"\(first seen at line 2\)$"):
            load_scores(path)

    def test_short_row_reported_before_later_non_numeric_cell(self, tmp_path):
        path = _write(tmp_path, "m.csv", "sample_id,class_0,class_1\n"
                      "s1,0.8,0.2\ns2,0.3\ns3,oops,0.5\n")
        with pytest.raises(DataError, match=r"m\.csv:3: expected 3 fields, found 2$"):
            load_scores(path)

    def test_row_sum_error_after_blank_line_names_its_line(self, tmp_path):
        path = _write(tmp_path, "m.csv", "sample_id,class_0,class_1\n"
                      "s1,0.8,0.2\n\ns2,0.5,0.5\ns3,0.4,0.5\n")
        with pytest.raises(DataError, match=r"m\.csv:5: row sums to 0\.9, expected 1 "
                                            r"within 1e-06$"):
            load_scores(path)

    # Python's float reads these two, numpy's reader does not; neither path
    # of the loader does. A quoted id sends the file to the csv walk.
    @pytest.mark.parametrize("cell", ["0.7_5", "\u0966.75"], ids=["underscore", "devanagari-zero"])
    @pytest.mark.parametrize("sid", ["s2", '"s2"'], ids=["plain", "quoted"])
    def test_number_grammar_rejection(self, tmp_path, cell, sid):
        path = _write(tmp_path, "m.csv", f"sample_id,class_0,class_1\ns1,0.5,0.5\n{sid},{cell},0.25\n")
        with pytest.raises(DataError) as excinfo:
            load_scores(path)
        assert str(excinfo.value) == f"{path}:3: non-numeric value {cell!r} in column 'class_0'"

    @pytest.mark.parametrize("sid", ["s2", '"s2"'], ids=["plain", "quoted"])
    def test_whitespace_around_a_number_is_allowed(self, tmp_path, sid):
        path = _write(tmp_path, "m.csv",
                      f"sample_id,class_0,class_1\ns1,0.5,0.5\n{sid}, 0.25\t,\u00a00.75\u2003\n")
        assert load_scores(path).scores.tolist() == [[0.5, 0.5], [0.25, 0.75]]

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_scores(tmp_path / "absent.csv")

    def test_rows_within_tolerance_are_renormalized_exactly(self, tmp_path):
        path = _write(tmp_path, "m.csv",
                      "sample_id,class_0,class_1\ns1,0.6000004,0.4\n")
        matrix = load_scores(path)
        assert math.fsum(matrix.scores[0].tolist()) == 1.0


class TestRoundTrip:
    def test_load_write_load_is_bit_identical(self, tmp_path):
        first = _write(tmp_path, "m.csv",
                       "sample_id,class_0,class_1\ns1,0.6000004,0.4\ns2,0.25,0.75\n")
        a = load_scores(first)
        out1 = tmp_path / "out1.csv"
        write_scores(a, out1)
        b = load_scores(out1, model_id=a.model_id)
        np.testing.assert_array_equal(a.scores, b.scores)
        out2 = tmp_path / "out2.csv"
        write_scores(b, out2)
        assert out1.read_bytes() == out2.read_bytes()

    def test_sample_id_with_comma_and_quote_round_trips(self, tmp_path):
        ids = ('a,"b"', "plain")
        matrix = ScoreMatrix("m", ids, [[0.25, 0.75], [0.5, 0.5]])
        out = tmp_path / "m.csv"
        write_scores(matrix, out)
        assert out.read_text(encoding="utf-8").splitlines()[1] == '"a,""b""",0.25,0.75'
        back = load_scores(out)
        assert back.sample_ids == ids
        np.testing.assert_array_equal(back.scores, matrix.scores)

    # Each example writes to a distinct file, so reusing tmp_path is safe.
    @settings(max_examples=50, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(seed=st.integers(0, 2 ** 32 - 1), n_classes=st.integers(2, 5),
           n_samples=st.integers(1, 8))
    def test_roundtrip_random_matrices(self, tmp_path, seed, n_classes, n_samples):
        rng = np.random.default_rng(seed)
        raw = rng.random((n_samples, n_classes)) + 1e-3
        matrix = ScoreMatrix(
            "m", tuple(f"s{i}" for i in range(n_samples)),
            raw / raw.sum(axis=1, keepdims=True),
        )
        out = tmp_path / f"{seed}.csv"
        write_scores(matrix, out)
        back = load_scores(out, model_id="m")
        np.testing.assert_array_equal(matrix.scores, back.scores)
        assert matrix.sample_ids == back.sample_ids


class TestScoreMatrixInvariants:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(DataError, match="duplicate"):
            ScoreMatrix("m", ("a", "a"), np.array([[0.5, 0.5], [0.5, 0.5]]))

    def test_empty_rejected(self):
        with pytest.raises(DataError, match="no samples"):
            ScoreMatrix("m", (), np.empty((0, 2)))

    @pytest.mark.parametrize("ids, scores, message", [
        (("a",), [0.5, 0.5], "model 'm': scores must be a 2-D table"),
        (("a",), [[1.0]], "model 'm': need at least 2 classes, found 1"),
        (("a", "b"), [[0.5, 0.5]], "model 'm': 2 sample ids for 1 score rows"),
    ], ids=["1-D", "one-class", "id-count"])
    def test_table_shape_errors(self, ids, scores, message):
        with pytest.raises(DataError, match=rf"^{re.escape(message)}$"):
            ScoreMatrix("m", ids, np.array(scores))

    def test_all_zero_row_reports_its_sum(self):
        message = "model 'm', sample 'b': row sums to 0.0, expected 1 within 1e-06"
        with pytest.raises(DataError, match=rf"^{re.escape(message)}$"):
            ScoreMatrix("m", ("a", "b"), np.array([[0.5, 0.5], [0.0, 0.0]]))

    def test_rows_are_exact_simplex_after_construction(self):
        rng = np.random.default_rng(0)
        raw = rng.random((20, 3)) + 1e-3
        matrix = ScoreMatrix("m", tuple(f"s{i}" for i in range(20)),
                             raw / raw.sum(axis=1, keepdims=True))
        for row in matrix.scores:
            assert math.fsum(row.tolist()) == 1.0


class TestAlign:
    def _pair(self):
        ids = ("a", "b", "c")
        m1 = ScoreMatrix("m1", ids, np.array([[0.9, 0.1], [0.8, 0.2], [0.7, 0.3]]))
        m2 = ScoreMatrix("m2", ("c", "a", "b"),
                         np.array([[0.1, 0.9], [0.2, 0.8], [0.3, 0.7]]))
        labels = LabelVector(("b", "c", "a"), np.array([1, 0, 1]))
        return m1, m2, labels

    def test_reorders_to_label_order(self):
        m1, m2, labels = self._pair()
        ds = align([m1, m2], labels)
        assert ds.sample_ids == ("b", "c", "a")
        np.testing.assert_array_equal(ds.matrices[0].scores,
                                      [[0.8, 0.2], [0.7, 0.3], [0.9, 0.1]])
        np.testing.assert_array_equal(ds.matrices[1].scores,
                                      [[0.3, 0.7], [0.1, 0.9], [0.2, 0.8]])

    def test_missing_id_names_model_and_sample(self):
        ids = ("a", "b")
        m1 = ScoreMatrix("m1", ids, np.array([[0.9, 0.1], [0.8, 0.2]]))
        labels = LabelVector(("a", "b", "s3"), np.array([0, 1, 1]))
        with pytest.raises(DataError, match="'m1'.*'s3'"):
            align([m1], labels)

    def test_extra_id_is_an_error_not_an_intersection(self):
        m1 = ScoreMatrix("m1", ("a", "b", "zz"),
                         np.array([[0.9, 0.1], [0.8, 0.2], [0.7, 0.3]]))
        labels = LabelVector(("a", "b"), np.array([0, 1]))
        with pytest.raises(DataError, match="'m1'.*'zz'"):
            align([m1], labels)

    def test_same_count_with_one_id_swapped_names_the_missing_id(self):
        m1 = ScoreMatrix("m1", ("b", "zz"), np.array([[0.9, 0.1], [0.8, 0.2]]))
        labels = LabelVector(("a", "b"), np.array([0, 1]))
        with pytest.raises(DataError) as info:
            align([m1], labels)
        assert str(info.value) == (
            "model 'm1' is missing sample_id 'a' present in the labels (1 missing in total)")

    def test_shuffled_extra_ids_are_counted(self):
        m1 = ScoreMatrix("m1", ("zz", "b", "yy", "a"),
                         np.array([[0.9, 0.1], [0.8, 0.2], [0.7, 0.3], [0.6, 0.4]]))
        labels = LabelVector(("a", "b"), np.array([0, 1]))
        with pytest.raises(DataError) as info:
            align([m1], labels)
        assert str(info.value) == (
            "model 'm1' has sample_id 'zz' absent from the labels (2 extra in total)")

    def test_id_faults_come_before_class_count_faults(self):
        m1 = ScoreMatrix("m1", ("a", "b"), np.array([[0.9, 0.1], [0.8, 0.2]]))
        m2 = ScoreMatrix("m2", ("a", "b"), np.array([[0.2, 0.3, 0.5]] * 2))
        m3 = ScoreMatrix("m3", ("b",), np.array([[0.9, 0.1]]))
        labels = LabelVector(("a", "b"), np.array([0, 1]))
        with pytest.raises(DataError, match="^model 'm3' is missing sample_id 'a'"):
            align([m1, m2, m3], labels)

    def test_mismatched_class_counts(self):
        m1 = ScoreMatrix("m1", ("a",), np.array([[0.9, 0.1]]))
        m2 = ScoreMatrix("m2", ("a",), np.array([[0.2, 0.3, 0.5]]))
        labels = LabelVector(("a",), np.array([0]))
        with pytest.raises(DataError, match="classes"):
            align([m1, m2], labels)

    def test_no_matrices(self):
        labels = LabelVector(("a",), np.array([0]))
        with pytest.raises(DataError):
            align([], labels)

    def test_label_out_of_range(self):
        m1 = ScoreMatrix("m1", ("a",), np.array([[0.9, 0.1]]))
        labels = LabelVector(("a",), np.array([2]))
        with pytest.raises(DataError, match="out of range"):
            align([m1], labels)

    def test_align_is_idempotent(self):
        ds = random_dataset(np.random.default_rng(3), n_models=2, n_samples=10)
        again = align(ds.matrices, ds.labels, ds.split)
        assert again.sample_ids == ds.sample_ids
        for before, after in zip(ds.matrices, again.matrices):
            np.testing.assert_array_equal(before.scores, after.scores)


class TestSubset:
    def test_selects_and_tags(self):
        ds = random_dataset(np.random.default_rng(5), n_samples=10)
        sub = subset(ds, ("s0003", "s0001"), "test")
        assert sub.split == "test"
        assert sub.sample_ids == ("s0003", "s0001")
        np.testing.assert_array_equal(sub.matrices[0].scores[0], ds.matrices[0].scores[3])

    def test_unknown_id(self):
        ds = random_dataset(np.random.default_rng(5), n_samples=4)
        with pytest.raises(DataError, match="nope"):
            subset(ds, ("nope",), "test")

    @pytest.mark.parametrize("ids, message", [
        ((), "labels must be a non-empty 1-D vector"),
        (("s0001", "s0002", "s0001"), "duplicate sample_id 's0001' in labels"),
    ], ids=["empty", "repeated"])
    def test_its_labels_reject_empty_and_repeated_ids(self, ids, message):
        ds = random_dataset(np.random.default_rng(5), n_samples=4)
        with pytest.raises(DataError, match=rf"^{re.escape(message)}$"):
            subset(ds, ids, "test")


class TestLabels:
    def test_basic(self, tmp_path):
        path = _write(tmp_path, "labels.csv", "sample_id,label\na,0\nb,1\n")
        labels = load_labels(path)
        assert labels.sample_ids == ("a", "b")
        np.testing.assert_array_equal(labels.labels, [0, 1])

    def test_non_integer_label(self, tmp_path):
        path = _write(tmp_path, "labels.csv", "sample_id,label\na,1.5\n")
        with pytest.raises(DataError, match=r"labels\.csv:2"):
            load_labels(path)

    def test_non_integer_label_after_blank_line_names_its_line(self, tmp_path):
        path = _write(tmp_path, "labels.csv", "sample_id,label\na,0\n\nb,1\nc,x\n")
        with pytest.raises(DataError, match=r"labels\.csv:5: non-integer label 'x'$"):
            load_labels(path)

    @pytest.mark.parametrize("label", ["1_0", "\uff11"], ids=["underscore", "fullwidth-one"])
    @pytest.mark.parametrize("sid", ["b", '"b"'], ids=["plain", "quoted"])
    def test_number_grammar_rejection(self, tmp_path, label, sid):
        path = _write(tmp_path, "labels.csv", f"sample_id,label\na,0\n{sid},{label}\n")
        with pytest.raises(DataError) as excinfo:
            load_labels(path)
        assert str(excinfo.value) == f"{path}:3: non-integer label {label!r}"

    def test_negative_label(self, tmp_path):
        path = _write(tmp_path, "labels.csv", "sample_id,label\na,-1\n")
        with pytest.raises(DataError, match="negative"):
            load_labels(path)

    def test_duplicate_id(self, tmp_path):
        path = _write(tmp_path, "labels.csv", "sample_id,label\na,0\na,1\n")
        with pytest.raises(DataError, match="duplicate"):
            load_labels(path)

    def test_malformed_header(self, tmp_path):
        path = _write(tmp_path, "labels.csv", "id,label\na,0\n")
        message = f"{path}:1: malformed header ['id', 'label']; expected 'sample_id,label'"
        with pytest.raises(DataError, match=rf"^{re.escape(message)}$"):
            load_labels(path)

    @pytest.mark.parametrize("ids, labels, message", [
        ((), [], "labels must be a non-empty 1-D vector"),
        (("a", "b"), [0], "2 sample ids for 1 labels"),
        (("a", "a"), [0, 1], "duplicate sample_id 'a' in labels"),
    ], ids=["empty", "id-count", "repeated"])
    def test_vector_shape_errors(self, ids, labels, message):
        with pytest.raises(DataError, match=rf"^{re.escape(message)}$"):
            LabelVector(ids, labels)

    def test_labels_must_be_whole_and_nonnegative(self):
        with pytest.raises(DataError, match=r"^labels must be whole class indices, got 0\.5$"):
            LabelVector(("a", "b"), [0.5, 1.7])
        with pytest.raises(DataError, match=r"^labels must be nonnegative class indices$"):
            LabelVector(("a", "b"), [0, -1])
        np.testing.assert_array_equal(LabelVector(("a", "b"), [0.0, 1.0]).labels, [0, 1])

    @pytest.mark.parametrize("labels, shown", [
        ([float("inf")], "inf"),
        ([float("inf"), 10 ** 400], "inf"),
        ([float("-inf"), 10 ** 400], "-inf"),
    ], ids=["alone", "beside-huge-int", "negative-beside-huge-int"])
    def test_infinite_label_is_not_a_whole_index(self, labels, shown):
        with pytest.raises(DataError, match=rf"^labels must be whole class indices, got {shown}$"):
            LabelVector(tuple("ab"[:len(labels)]), labels)

    @pytest.mark.parametrize("labels, named", [
        ([2 ** 63], 2 ** 63),
        ([2 ** 64], 2 ** 64),
        ([0, 2 ** 63], 2 ** 63),
        ([0, 2 ** 63 + 1], 2 ** 63 + 1),
        ([2 ** 64, 0], 2 ** 64),
        (np.array([1, 2 ** 63], dtype=np.uint64), 2 ** 63),
        ([0.0, 1e19], 10 ** 19),
        ([10 ** 400, 1], 10 ** 400),
    ], ids=["uint64", "object", "float64", "float64-rounded", "object-first", "uint64-array",
            "float", "huge"])
    def test_labels_past_int64_are_rejected_by_value(self, labels, named):
        # Cast to int64 these would wrap to negative or arbitrary labels.
        ids = tuple("ab"[:len(labels)])
        with pytest.raises(DataError, match=(
                rf"^labels must be class indices int64 can hold, got {named}$")):
            LabelVector(ids, labels)

    @pytest.mark.parametrize("labels", [[2 ** 63 - 1], [0, 2 ** 60 + 1], [0, 2 ** 63 - 1]],
                             ids=["alone", "past-float64", "beside-zero"])
    def test_largest_int64_label_is_kept(self, tmp_path, labels):
        # float64 would round 2**60 + 1 and 2**63 - 1; both must load as written.
        ids = tuple("ab"[:len(labels)])
        assert LabelVector(ids, labels).labels.tolist() == labels
        path = _write(tmp_path, "labels.csv", "sample_id,label\n" + "".join(
            f"{sid},{label}\n" for sid, label in zip(ids, labels)))
        assert load_labels(path).labels.tolist() == labels


class TestIdList:
    def test_basic(self, tmp_path):
        path = _write(tmp_path, "ids.txt", "a\n\nb\nc\n")
        assert read_id_list(path) == ("a", "b", "c")

    def test_only_line_ends_split_ids(self, tmp_path):
        path = _write(tmp_path, "ids.txt", "p\u2028q\r\nr\rs\x85t\n")
        assert read_id_list(path) == ("p\u2028q", "r", "s\x85t")

    def test_duplicates_rejected(self, tmp_path):
        path = _write(tmp_path, "ids.txt", "a\nb\na\n")
        with pytest.raises(DataError, match="duplicate"):
            read_id_list(path)

    def test_blank_lines_only_is_no_ids(self, tmp_path):
        path = _write(tmp_path, "ids.txt", "\n \n\n")
        with pytest.raises(DataError, match=rf"^{re.escape(str(path))}: no sample ids$"):
            read_id_list(path)


class TestByteOrderMark:
    """A UTF-8 BOM, as some spreadsheet exports write it, changes nothing."""

    def _pair(self, tmp_path, name, text):
        plain = _write(tmp_path, name, text)
        marked = tmp_path / f"bom-{name}"
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        return plain, marked

    def test_score_csv(self, tmp_path):
        plain, marked = self._pair(tmp_path, "m.csv",
                                   "sample_id,class_0,class_1\ns1,0.8,0.2\ns2,0.3,0.7\n")
        a, b = load_scores(plain, model_id="m"), load_scores(marked, model_id="m")
        assert a.sample_ids == b.sample_ids
        np.testing.assert_array_equal(a.scores, b.scores)

    def test_labels_csv(self, tmp_path):
        plain, marked = self._pair(tmp_path, "labels.csv", "sample_id,label\ns1,0\ns2,1\n")
        a, b = load_labels(plain), load_labels(marked)
        assert a.sample_ids == b.sample_ids
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_id_list(self, tmp_path):
        plain, marked = self._pair(tmp_path, "ids.txt", "s1\ns2\n")
        assert read_id_list(marked) == read_id_list(plain) == ("s1", "s2")

    def test_manifest(self, tmp_path):
        import json
        _manifest_files(tmp_path)
        body = json.dumps({"models": [{"id": "m1", "scores_path": "m1.csv"}],
                           "labels_path": "labels.csv", "method": "bf",
                           "output": "report.csv"})
        plain, marked = self._pair(tmp_path, "manifest.json", body)
        assert load_manifest(marked) == load_manifest(plain)


def _count_opens(monkeypatch):
    """From now on, record the name of every file opened through ``Path.open``."""
    opened = []
    real = Path.open
    monkeypatch.setattr(Path, "open", lambda self, *args, **kwargs:
                        opened.append(self.name) or real(self, *args, **kwargs))
    return opened


# The last row of "header, s1, blank record, row" and the error it gives;
# "" marks a clean file.
FAULTY_SCORES = {
    "clean": ("s2,0.3,0.7", ""),
    "short row": ("s2,0.3", "m.csv:4: expected 3 fields, found 2"),
    "duplicate": ("s1,0.3,0.7", "m.csv:4: duplicate sample_id 's1' (first seen at line 2)"),
    "non-numeric": ("s2,oops,0.7", "m.csv:4: non-numeric value 'oops' in column 'class_0'"),
    "range": ("s2,1.5,-0.5", "m.csv:4: value 1.5 outside [0, 1] in column 'class_0'"),
    "row sum": ("s2,0.5,0.4", "m.csv:4: row sums to 0.9, expected 1 within 1e-06"),
}


class TestSingleRead:
    """A CSV is opened once; its first fault is found among the records already read."""

    @pytest.mark.parametrize("case", FAULTY_SCORES)
    def test_a_score_csv_is_opened_once(self, tmp_path, monkeypatch, case):
        row, message = FAULTY_SCORES[case]
        path = _write(tmp_path, "m.csv", f"sample_id,class_0,class_1\ns1,0.8,0.2\n\n{row}\n")
        opened = _count_opens(monkeypatch)
        if message:
            with pytest.raises(DataError) as excinfo:
                load_scores(path)
            assert str(excinfo.value) == f"{tmp_path}/{message}"
        else:
            assert load_scores(path).sample_ids == ("s1", "s2")
        assert opened == ["m.csv"]

    @pytest.mark.parametrize("label, message", [
        ("1", ""), ("x", "labels.csv:4: non-integer label 'x'"),
        ("-2", "labels.csv:4: negative label -2")], ids=["clean", "non-integer", "negative"])
    def test_a_labels_csv_is_opened_once(self, tmp_path, monkeypatch, label, message):
        path = _write(tmp_path, "labels.csv", f"sample_id,label\na,0\n\nb,{label}\n")
        opened = _count_opens(monkeypatch)
        if message:
            with pytest.raises(DataError) as excinfo:
                load_labels(path)
            assert str(excinfo.value) == f"{tmp_path}/{message}"
        else:
            assert load_labels(path).labels.tolist() == [0, 1]
        assert opened == ["labels.csv"]

    # Each example rewrites the same file, so reusing tmp_path is safe.
    @pytest.mark.parametrize("kind", ["short", "long", "text", "range", "sum", "duplicate"])
    @settings(max_examples=40, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_fault_line_counts_csv_records(self, tmp_path, kind, data):
        n = data.draw(st.integers(2, 8), label="rows")
        ids = [f"s{i}{suffix}" for i, suffix in enumerate(data.draw(st.lists(
            st.sampled_from(["", ",x", "\ny", '"q"', "\r\nz,w"]), min_size=n, max_size=n)))]
        rows = [[sid, "0.25", "0.75"] for sid in ids]
        bad = data.draw(st.integers(int(kind == "duplicate"), n - 1), label="faulty row")
        first = data.draw(st.integers(0, bad - 1), label="first seen") if bad else 0
        rows[bad] = {
            "short": rows[bad][:2], "long": rows[bad] + ["0"],
            "text": [ids[bad], "oops", "0.75"], "range": [ids[bad], "1.5", "-0.5"],
            "sum": [ids[bad], "0.5", "0.4"], "duplicate": [ids[first], "0.25", "0.75"],
        }[kind]
        blanks = data.draw(st.lists(st.integers(0, 2), min_size=n + 1, max_size=n + 1),
                           label="blank records before each row")
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["sample_id", "class_0", "class_1"])
        for gap, row in zip(blanks, rows + [None]):
            out.write("\n" * gap)
            if row is not None:
                writer.writerow(row)
        text = out.getvalue()
        path = tmp_path / "m.csv"
        path.write_text(text, encoding="utf-8", newline="")

        lines = [line for line, record in
                 enumerate(csv.reader(io.StringIO(text, newline="")), 1)
                 if line > 1 and record]
        reason = {
            "short": "expected 3 fields, found 2", "long": "expected 3 fields, found 4",
            "text": "non-numeric value 'oops' in column 'class_0'",
            "range": "value 1.5 outside [0, 1] in column 'class_0'",
            "sum": "row sums to 0.9, expected 1 within 1e-06",
            "duplicate": f"duplicate sample_id '{ids[first]}' "
                         f"(first seen at line {lines[first]})",
        }[kind]
        with pytest.raises(DataError) as excinfo:
            load_scores(path)
        assert str(excinfo.value) == f"{path}:{lines[bad]}: {reason}"


# Rows for the differential tests: good rows in several spellings, then odd
# ones. Each odd score row would sum to 1 if Python's float read it; some
# hold a cell only float takes, or an ASCII separator that numpy's reader
# strips as whitespace. Odd labels run past int64.
SCORE_ROWS = (
    [("0.25", "0.75"), ("0.5", "0.5"), (" 0.5", "5e-1\t"), ("+.5", "\u00a00.5"), ("1e-1", ".9")],
    [("0.7_5", "0.25"), ("\u0966.75", "0.25"), ("\uff11", "0"), ("0.5\x1c", "0.5"),
     ("nan", "1"), ("1.5", "-0.5"), ("0.5", "0.4"), ("oops", "0.5"), ("", "1")],
)
LABEL_ROWS = (
    [("0",), ("1",), ("2",), (" 1",), ("+1",), ("-0",), ("9223372036854775807",)],
    [(label,) for label in ["-1", "1.0", "x", "", "1_0", "\uff11", "\u0967", "1\x1c",
                            "9223372036854775808", "-9223372036854775809"]],
)
ODD_IDS = ["", " s1", "é", '"s2"', '"a,b"', '"c""d"', "x\ufeff", "s0"]


def _outcome(load, path):
    """What loading ``path`` gives: ids and value bits, or the error message."""
    try:
        got = load(path)
    except DataError as exc:
        return str(exc)
    values = got.scores if isinstance(got, ScoreMatrix) else got.labels
    return got.sample_ids, values.view(np.int64).tolist()


def _table_text(data, header, rows):
    """A drawn CSV text of good rows with at most one of each oddity.

    The oddities: a row, an id, a short or long record, a blank or
    whitespace-only record, a line end, a missing final line end, a BOM.
    """
    good, odd = rows
    n = data.draw(st.integers(1, 6), label="rows")
    cells = [list(data.draw(st.sampled_from(good))) for _ in range(n)]
    ids = [f"s{i}" for i in range(n)]

    def maybe(label, choices):  # one time in four
        if not data.draw(st.sampled_from([False, False, False, True]), label=label):
            return None, None
        return data.draw(st.sampled_from(choices)), data.draw(st.integers(0, n - 1))

    row, i = maybe("odd row", odd)
    if row is not None:
        cells[i] = list(row)
    sid, i = maybe("odd id", ODD_IDS)
    if sid is not None:
        ids[i] = sid
    change, i = maybe("width change", [-1, 1])
    if change is not None:
        cells[i] = cells[i][:-1] if change < 0 else cells[i] + ["0"]
    records = [",".join([sid, *row]) for sid, row in zip(ids, cells)]
    blank, i = maybe("blank record", ["", " "])
    if blank is not None:
        records.insert(i + 1, blank)
    end = data.draw(st.sampled_from(["\n", "\n", "\r\n", "\r"]), label="line end")
    text = end.join([header, *records])
    if data.draw(st.booleans(), label="final line end"):
        text += end
    return ("\ufeff" if data.draw(st.booleans(), label="BOM") else "") + text


class TestNumpyReader:
    """numpy's reader takes plain files; it gives what the csv walk gives, bit for bit."""

    @pytest.mark.parametrize("text, plain", [
        ("s1,0.5,0.5\ns2,0.25,0.75\n", True),
        ("s1,0.5,0.5\ns2,0.25,0.75", True),
        ('"s1",0.5,0.5\ns2,0.25,0.75\n', False),
        ("s1,0.5,0.5\r\ns2,0.25,0.75\r\n", True),
        ("s1,0.5,0.5\rs2,0.25,0.75\r", True),
        ("s1,0.5,0.5\n\ns2,0.25,0.75\n", False),
        ("s1,0.5,0.5\r\n\r\ns2,0.25,0.75\r\n", False),
        ("s1,0.5,0.5\r\rs2,0.25,0.75\r", False),
        ("s1,0.5,0.5\ns2,0.25,0.75,0\n", False),
        ("s1,0.5\ns2,0.25,0.75,0\n", False),
        ("s1,0.5,0.5\ns2,0.7_5,0.25\n", False),
    ], ids=["plain", "no-final-line-end", "quoted", "crlf", "cr", "blank-record",
            "crlf-blank-record", "cr-blank-record", "long-row", "short-beside-long",
            "underscore"])
    def test_which_files_take_numpy(self, tmp_path, monkeypatch, text, plain):
        real, taken = scoreio._numpy_table, []

        def spy(*args):
            table = real(*args)
            taken.append(table is not None)
            return table

        monkeypatch.setattr(scoreio, "_numpy_table", spy)
        path = _write(tmp_path, "m.csv", "sample_id,class_0,class_1\n" + text)
        with contextlib.suppress(DataError):
            load_scores(path)
        assert taken == [plain]

    # numpy's reader ignores fields past usecols and skips blank lines; the
    # loader may do neither, even where the file's comma count adds up.
    @pytest.mark.parametrize("load, text, message", [
        (load_scores, "s1,0.5,0.5\ns2,0.25,0.75,0\n", "3: expected 3 fields, found 4"),
        (load_scores, "s1,0.5\ns2,0.25,0.75,0\n", "2: expected 3 fields, found 2"),
        (load_scores, "s1,0.5,0.5,0\ns2,0.25\n", "2: expected 3 fields, found 4"),
        (load_labels, "a,0\n\nb,1,0\n", "4: expected 2 fields, found 3"),
        (load_labels, "a,0,1\n\nb,1\n", "2: expected 2 fields, found 3"),
    ], ids=["long", "short-then-long", "long-then-short", "blank-then-long", "long-then-blank"])
    def test_unquoted_field_counts_are_checked(self, tmp_path, load, text, message):
        header = "sample_id,class_0,class_1\n" if load is load_scores else "sample_id,label\n"
        path = _write(tmp_path, "t.csv", header + text)
        with pytest.raises(DataError) as excinfo:
            load(path)
        assert str(excinfo.value) == f"{path}:{message}"

    # Each example rewrites the same file, so reusing tmp_path is safe.
    @pytest.mark.parametrize("load, header, rows", [
        (load_scores, "sample_id,class_0,class_1", SCORE_ROWS),
        (load_labels, "sample_id,label", LABEL_ROWS),
    ], ids=["scores", "labels"])
    @settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_numpy_reader_matches_the_csv_walk(self, tmp_path, load, header, rows, data):
        path = tmp_path / "t.csv"
        path.write_text(_table_text(data, header, rows), encoding="utf-8", newline="")
        fast = _outcome(load, path)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(scoreio, "_numpy_table", lambda *args: None)
            assert fast == _outcome(load, path)


class TestFieldSizeLimit:
    """A field over ``csv``'s size limit is a fault at its line, not a ``csv.Error``."""

    LIMIT = 131072  # csv's default, which the loader leaves as it is
    BIG = "x" * (LIMIT + 1)
    LOADERS = pytest.mark.parametrize("load, header, cells", [
        (load_scores, "sample_id,class_0,class_1", "0.25,0.75"),
        (load_labels, "sample_id,label", "1"),
    ], ids=["scores", "labels"])

    @LOADERS
    def test_a_quoted_field_over_the_limit_names_its_record(self, tmp_path, load, header,
                                                            cells):
        path = _write(tmp_path, "t.csv", f'{header}\na,{cells}\n\n"{self.BIG}",{cells}\n')
        with pytest.raises(DataError) as excinfo:
            load(path)
        assert str(excinfo.value) == f"{path}:4: field larger than field limit ({self.LIMIT})"
        assert csv.field_size_limit() == self.LIMIT

    @LOADERS
    def test_an_earlier_fault_comes_first(self, tmp_path, load, header, cells):
        path = _write(tmp_path, "t.csv", f'{header}\na,{cells}\na,{cells}\n"{self.BIG}",{cells}\n')
        with pytest.raises(DataError) as excinfo:
            load(path)
        assert str(excinfo.value) == f"{path}:3: duplicate sample_id 'a' (first seen at line 2)"

    @LOADERS
    def test_a_header_over_the_limit_is_line_one(self, tmp_path, load, header, cells):
        path = _write(tmp_path, "t.csv", f'{header},"{self.BIG}"\na,{cells}\n')
        with pytest.raises(DataError) as excinfo:
            load(path)
        assert str(excinfo.value) == f"{path}:1: field larger than field limit ({self.LIMIT})"


class TestWriter:
    # Each example writes the same files, so reusing tmp_path is safe.
    @settings(max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(ids=st.lists(st.text(alphabet=[",", '"', "\r", "\n", " ", "é", "字", "a", "0"],
                                max_size=4), min_size=1, max_size=6, unique=True))
    def test_ids_round_trip_in_csv_writer_bytes(self, tmp_path, ids):
        """Every id loads back; with no CR in any id the bytes are ``csv.writer``'s."""
        matrix = ScoreMatrix("m", ids, [[0.25, 0.75]] * len(ids))
        labels = LabelVector(ids, range(len(ids)))
        write_scores(matrix, tmp_path / "m.csv")
        write_labels(labels, tmp_path / "labels.csv")
        assert load_scores(tmp_path / "m.csv").sample_ids == tuple(ids)
        back = load_labels(tmp_path / "labels.csv")
        assert (back.sample_ids, back.labels.tolist()) == (tuple(ids), list(range(len(ids))))
        if any("\r" in sid for sid in ids):
            return
        for name, header, rows in [
            ("m.csv", ["sample_id", "class_0", "class_1"], [(s, 0.25, 0.75) for s in ids]),
            ("labels.csv", ["sample_id", "label"], list(zip(ids, range(len(ids))))),
        ]:
            out = io.StringIO()
            writer = csv.writer(out, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
            assert (tmp_path / name).read_bytes() == out.getvalue().encode("utf-8")

    @pytest.mark.parametrize("sid", ["a\rb", "\r", "a\r\nb"])
    def test_an_id_with_a_cr_is_quoted(self, tmp_path, sid):
        write_scores(ScoreMatrix("m", (sid, "c"), [[0.25, 0.75], [0.5, 0.5]]), tmp_path / "m.csv")
        text = (tmp_path / "m.csv").read_bytes().decode("utf-8")
        assert text.split("\n", 1)[1].startswith(f'"{sid}",0.25,0.75\n')
        assert load_scores(tmp_path / "m.csv").sample_ids == (sid, "c")


def _manifest_files(tmp_path):
    _write(tmp_path, "m1.csv", "sample_id,class_0,class_1\ns1,0.8,0.2\ns2,0.3,0.7\n")
    _write(tmp_path, "labels.csv", "sample_id,label\ns1,0\ns2,1\n")


class TestManifest:
    def _base(self, **overrides):
        manifest = {
            "models": [{"id": "m1", "scores_path": "m1.csv"}],
            "labels_path": "labels.csv",
            "method": "bf",
            "output": "report.csv",
        }
        manifest.update(overrides)
        return manifest

    def test_valid_with_defaults(self, tmp_path):
        import json
        _manifest_files(tmp_path)
        path = _write(tmp_path, "manifest.json", json.dumps(self._base()))
        manifest = load_manifest(path)
        assert manifest.method == "bf"
        assert manifest.grid_step == 0.05
        assert manifest.objective == "fused_accuracy"
        assert manifest.seed is None
        assert manifest.validation_ids_path is None
        assert manifest.labels_path == tmp_path / "labels.csv"

    def test_unknown_key_rejected(self, tmp_path):
        import json
        _manifest_files(tmp_path)
        path = _write(tmp_path, "manifest.json",
                      json.dumps(self._base(grd_step=0.1)))
        with pytest.raises(ConfigError, match="grd_step"):
            load_manifest(path)

    def test_missing_required_key(self, tmp_path):
        import json
        _manifest_files(tmp_path)
        body = self._base()
        del body["labels_path"]
        path = _write(tmp_path, "manifest.json", json.dumps(body))
        with pytest.raises(ConfigError, match="labels_path"):
            load_manifest(path)

    def test_missing_referenced_file(self, tmp_path):
        import json
        _write(tmp_path, "labels.csv", "sample_id,label\ns1,0\n")
        path = _write(tmp_path, "manifest.json", json.dumps(self._base()))
        with pytest.raises(FileNotFoundError, match="m1.csv"):
            load_manifest(path)

    def test_model_entry_keys_are_exact(self, tmp_path):
        import json
        _manifest_files(tmp_path)
        body = self._base(models=[{"id": "m1", "scores_path": "m1.csv", "extra": 1}])
        path = _write(tmp_path, "manifest.json", json.dumps(body))
        with pytest.raises(ConfigError, match="model entry"):
            load_manifest(path)

    @pytest.mark.parametrize("text, message", [
        ("{", "invalid JSON: Expecting property name enclosed in double quotes"),
        ("[]", "manifest must be a JSON object"),
        ({"models": []}, "'models' must be a non-empty array"),
        ({"models": [{"id": "x", "scores_path": "a.csv"}, {"id": "x", "scores_path": "b.csv"}]},
         "duplicate model id 'x'"),
    ], ids=["not-json", "not-an-object", "no-models", "repeated-model"])
    def test_shape_errors_name_the_file(self, tmp_path, text, message):
        import json
        if isinstance(text, dict):
            text = json.dumps(self._base(**text))
        path = _write(tmp_path, "manifest.json", text)
        with pytest.raises(ConfigError, match=rf"^{re.escape(f'{path}: {message}')}"):
            load_manifest(path)

    def test_readme_manifest_bullet_names_exactly_the_manifest_keys(self):
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        bullet = text.split("- **Manifest (JSON)**", 1)[1].split("\n- **", 1)[0]
        # Parenthesized asides describe a key's value, not further keys.
        while re.search(r"\([^()]*\)", bullet):
            bullet = re.sub(r"\([^()]*\)", "", bullet)
        named = re.findall(r"`([^`]+)`", bullet)
        assert sorted(named) == sorted(MANIFEST_KEYS)


def _split_manifest(tmp_path, ds, val_ids):
    """Write ``ds`` and a manifest over it; ``val_ids`` None means no id list."""
    import json
    for matrix in ds.matrices:
        write_scores(matrix, tmp_path / f"{matrix.model_id}.csv")
    write_labels(ds.labels, tmp_path / "labels.csv")
    body = {"models": [{"id": m, "scores_path": f"{m}.csv"} for m in ds.model_ids],
            "labels_path": "labels.csv", "method": "equal", "output": "report.csv"}
    if val_ids is not None:
        _write(tmp_path, "val.txt", "\n".join(val_ids) + "\n")
        body["validation_ids_path"] = "val.txt"
    return load_manifest(_write(tmp_path, "manifest.json", json.dumps(body)))


class TestLoadManifestSplits:
    @pytest.mark.parametrize("listed", [False, True], ids=["no-list", "full-list"])
    def test_reused_test_split_is_the_validation_data_retagged(self, tmp_path, caplog, listed):
        ds = random_dataset(np.random.default_rng(9), n_models=2, n_samples=6)
        val_ids = ds.sample_ids[::-1] if listed else None
        manifest = _split_manifest(tmp_path, ds, val_ids)
        with caplog.at_level(logging.WARNING, logger="fusionopt.scoreio"):
            validation, test = load_manifest_splits(manifest)
        assert [r.getMessage() for r in caplog.records] == [
            "the test split is the validation split; test metrics are not held out"]
        assert validation.sample_ids == (val_ids or ds.sample_ids)
        assert (validation.split, test.split) == ("validation", "test")
        assert np.shares_memory(test.stack, validation.stack)
        assert test.labels is validation.labels
        with pytest.raises(DataError, match="validation split"):
            make_objective(test)

    def test_held_out_test_split_does_not_warn(self, tmp_path, caplog):
        ds = random_dataset(np.random.default_rng(9), n_models=2, n_samples=6)
        manifest = _split_manifest(tmp_path, ds, ds.sample_ids[:4])
        with caplog.at_level(logging.WARNING, logger="fusionopt.scoreio"):
            validation, test = load_manifest_splits(manifest)
        assert caplog.records == []
        assert test.sample_ids == ds.sample_ids[4:]
        assert not np.shares_memory(test.stack, validation.stack)

    def test_each_score_row_is_checked_once(self, tmp_path, monkeypatch):
        import json
        rng = np.random.default_rng(8)
        ds = random_dataset(rng, n_models=3, n_samples=12)
        for j, matrix in enumerate(ds.matrices):
            order = rng.permutation(ds.num_samples)
            write_scores(ScoreMatrix(matrix.model_id, np.array(ds.sample_ids)[order],
                                     matrix.scores[order]), tmp_path / f"m{j}.csv")
        write_labels(ds.labels, tmp_path / "labels.csv")
        val_ids = ds.sample_ids[5:] + ds.sample_ids[:2]
        (tmp_path / "val.txt").write_text("\n".join(val_ids) + "\n", encoding="utf-8")
        body = {"models": [{"id": f"m{j}", "scores_path": f"m{j}.csv"} for j in range(3)],
                "labels_path": "labels.csv", "validation_ids_path": "val.txt",
                "method": "equal", "output": "report.csv"}
        manifest = load_manifest(_write(tmp_path, "manifest.json", json.dumps(body)))

        built = []
        post_init = ScoreMatrix.__post_init__
        monkeypatch.setattr(ScoreMatrix, "__post_init__",
                            lambda self: built.append(self.model_id) or post_init(self))
        validation, test = load_manifest_splits(manifest)
        monkeypatch.undo()
        assert built == ["m0", "m1", "m2"]

        full = align([load_scores(tmp_path / f"m{j}.csv") for j in range(3)], ds.labels)
        np.testing.assert_array_equal(full.stack, ds.stack)
        assert validation.sample_ids == val_ids
        assert test.sample_ids == ds.sample_ids[2:5]
        np.testing.assert_array_equal(test.stack, ds.stack[:, 2:5])
        for dataset in (full, validation, test):
            assert not dataset.stack.flags.writeable
            assert dataset.stack.flags.c_contiguous


class TestReport:
    def test_single_row(self, tmp_path):
        out = tmp_path / "report.csv"
        write_report([ReportRow("alpha", 0.75, 0.5, 0.6, 0.8)], out)
        lines = out.read_text().splitlines()
        assert lines[0] == "method,precision,recall,f1,accuracy,objective,weights"
        assert lines[1] == "alpha,0.750000,0.500000,0.600000,0.800000,,"

    def test_comparison_rows_preserve_order(self, tmp_path):
        rows = [
            ReportRow(m, 0.8, 0.8, 0.8, 0.8, objective=0.2, weights=(0.5, 0.5))
            for m in ("equal", "pso", "ga", "bf", "powell", "nelder-mead")
        ]
        out = tmp_path / "report.csv"
        write_report(rows, out)
        lines = out.read_text().splitlines()
        assert len(lines) == 7
        assert [line.split(",")[0] for line in lines[1:]] == [
            "equal", "pso", "ga", "bf", "powell", "nelder-mead"]
        assert lines[1].endswith("0.200000,0.500000;0.500000")

    def test_empty_comparison_is_header_only(self, tmp_path):
        out = tmp_path / "report.csv"
        write_report([], out)
        assert out.read_text() == "method,precision,recall,f1,accuracy,objective,weights\n"
