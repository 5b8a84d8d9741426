"""Forked and in-process score-file reads and CSV writes give the same bits and messages.

On Linux with more than one usable CPU, ``load_aligned`` splits the score
files between forked readers and ``write_scores`` its row blocks between
forked formatters; on one CPU the same code runs in-process. Each test runs
both, by setting the CPU affinity the package sees.
"""

import errno
import json
import os
import signal
import sys

import numpy as np
import pytest

from fusionopt import scoreio
from fusionopt.cli import main
from fusionopt.errors import DataError
from fusionopt.scoreio import (
    ScoreMatrix,
    align,
    load_aligned,
    load_labels,
    load_scores,
    write_labels,
    write_scores,
)

from conftest import count_forks, no_children_left, set_cpus
from synthdata import random_dataset

pytestmark = pytest.mark.skipif(sys.platform != "linux", reason="reads and writes fork on Linux")


def _corpus(root, n_models=3, n_samples=40, n_classes=3, seed=0, in_order=()):
    """Score files that each list the samples in an order of their own, and labels.

    The files of the models in ``in_order`` follow the labels' order.
    """
    rng = np.random.default_rng(seed)
    ds = random_dataset(rng, n_models=n_models, n_samples=n_samples, n_classes=n_classes)
    root.mkdir(parents=True, exist_ok=True)
    paths = []
    for m, matrix in enumerate(ds.matrices):
        order = np.arange(n_samples) if m in in_order else rng.permutation(n_samples)
        paths.append(root / f"{matrix.model_id}.csv")
        write_scores(ScoreMatrix(matrix.model_id, np.array(ds.sample_ids)[order],
                                 matrix.scores[order]), paths[-1])
    write_labels(ds.labels, root / "labels.csv")
    return ds, paths, root / "labels.csv"


def _fuse(paths, labels, out):
    return ["fuse", *(arg for path in paths for arg in ("--scores", str(path))),
            "--labels", str(labels), "--weights", ",".join("1" * len(paths)), "--out", str(out)]


def _run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.err


@pytest.mark.parametrize("n_models", [1, 2, 3, 5])
def test_forked_and_in_process_loads_are_bit_identical(tmp_path, monkeypatch, n_models):
    ds, paths, labels = _corpus(tmp_path, n_models=n_models, in_order=(1,))
    models = [(f"model {m}", path) for m, path in enumerate(paths)]
    public = align([load_scores(path, mid) for mid, path in models], load_labels(labels))
    forks = count_forks(monkeypatch)
    for cpus in (1, 2, 3):
        set_cpus(monkeypatch, cpus)
        got = load_aligned(models, labels)
        assert len(forks) == min(n_models, cpus) - 1
        forks.clear()
        assert got.model_ids == public.model_ids
        assert got.sample_ids == ds.sample_ids
        assert got.stack.tobytes() == public.stack.tobytes()
        assert got.stack.shape == public.stack.shape
        assert got.split == "validation"
        assert not got.stack.flags.writeable
    assert no_children_left()


def test_a_model_id_of_none_is_the_file_stem(tmp_path, monkeypatch):
    _, paths, labels = _corpus(tmp_path)
    set_cpus(monkeypatch, 2)
    assert load_aligned([(None, path) for path in paths], labels).model_ids == (
        "m0", "m1", "m2")


def _fault(case, text):
    """``text`` of a 3-class score file with one fault of kind ``case``."""
    lines = text.splitlines(keepends=True)
    if case == "header":
        lines[0] = "sample_id,class_0,klass_1,class_2\n"
    elif case == "cell":
        sid, _, rest = lines[5].partition(",")
        lines[5] = f"{sid},abc,{rest.partition(',')[2]}"
    elif case == "duplicate":
        lines[6] = lines[3].partition(",")[0] + "," + lines[6].partition(",")[2]
    elif case == "missing":
        del lines[7]
    elif case == "extra":
        lines.append("zzz,0.2,0.3,0.5\n")
    elif case == "classes":
        lines = [line.rstrip("\n") + (",class_3\n" if i == 0 else ",0.0\n")
                 for i, line in enumerate(lines)]
    elif case == "row-sum":
        lines[4] = lines[4].partition(",")[0] + ",0.5,0.3,0.1\n"
    return "".join(lines)


FAULTS = ["header", "cell", "duplicate", "missing", "extra", "classes", "row-sum"]


@pytest.mark.parametrize("case", FAULTS)
def test_a_fault_in_a_later_file_reads_the_same_on_both_paths(tmp_path, capsys, monkeypatch,
                                                               case):
    # On two CPUs the parent reads m0 and a forked reader m1 and m2.
    _, paths, labels = _corpus(tmp_path / "corpus")
    paths[2].write_text(_fault(case, paths[2].read_text(encoding="utf-8")), encoding="utf-8")
    with pytest.raises(DataError) as expected:
        align([load_scores(path) for path in paths], load_labels(labels))
    forks = count_forks(monkeypatch)
    runs = []
    for cpus in (1, 2):
        set_cpus(monkeypatch, cpus)
        out = tmp_path / f"cpus{cpus}" / "fused.csv"
        runs.append(_run(_fuse(paths, labels, out), capsys))
        assert not out.exists()
    assert forks == [1]
    assert runs == [(1, f"error: {expected.value}\n")] * 2
    assert no_children_left()


# A read fault in a later file comes before an id fault in an earlier one,
# and every id fault before a class count, as when all the files were read
# before any was aligned.
@pytest.mark.parametrize("cases", [
    ["missing", "classes", "extra", "cell"],
    ["missing", "classes", "extra", None],
    [None, "classes", "extra", None],
    [None, "classes", None, None],
], ids=["read", "first-id", "later-id", "classes"])
def test_faults_in_several_files_come_in_file_order(tmp_path, capsys, monkeypatch, cases):
    _, paths, labels = _corpus(tmp_path / "corpus", n_models=4)
    for path, case in zip(paths, cases):
        if case:
            path.write_text(_fault(case, path.read_text(encoding="utf-8")), encoding="utf-8")
    with pytest.raises(DataError) as expected:
        align([load_scores(path) for path in paths], load_labels(labels))
    for cpus in (1, 2):
        set_cpus(monkeypatch, cpus)
        assert _run(_fuse(paths, labels, tmp_path / "f.csv"), capsys) == (
            1, f"error: {expected.value}\n")


def _evaluate(paths, labels, out):
    return ["evaluate", *(arg for path in paths for arg in ("--scores", str(path))),
            "--labels", str(labels), "--out", str(out)]


def test_evaluate_of_several_files_is_the_same_on_one_and_two_cpus(tmp_path, capsys,
                                                                    monkeypatch):
    _, paths, labels = _corpus(tmp_path / "corpus")
    forks = count_forks(monkeypatch)
    runs = []
    for cpus in (1, 2):
        set_cpus(monkeypatch, cpus)
        out = tmp_path / f"cpus{cpus}" / "report.csv"
        assert main(_evaluate(paths, labels, out)) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        runs.append((captured.out, out.read_bytes()))
    assert forks == [1]
    assert runs[1] == runs[0]
    assert [line.split(":")[0] for line in runs[0][0].splitlines()] == ["m0", "m1", "m2"]
    assert no_children_left()


@pytest.mark.parametrize("case", [case for case in FAULTS if case != "classes"])
def test_a_fault_in_the_third_file_of_evaluate_reads_the_same_on_both_paths(
        tmp_path, capsys, monkeypatch, case):
    # On two CPUs the parent reads m0 and a forked reader m1 and m2.
    _, paths, labels = _corpus(tmp_path / "corpus")
    paths[2].write_text(_fault(case, paths[2].read_text(encoding="utf-8")), encoding="utf-8")
    with pytest.raises(DataError) as expected:
        align([load_scores(paths[2])], load_labels(labels))
    forks = count_forks(monkeypatch)
    for cpus in (1, 2):
        set_cpus(monkeypatch, cpus)
        out = tmp_path / f"cpus{cpus}" / "report.csv"
        assert main(_evaluate(paths, labels, out)) == 1
        assert capsys.readouterr() == ("", f"error: {expected.value}\n")
        assert not out.exists()
    assert forks == [1]
    assert no_children_left()


def test_labels_are_read_before_the_score_files(tmp_path, capsys, monkeypatch):
    # compare and optimize now read the labels first, as fuse always did,
    # so a labels fault is reported before a score file's.
    _, paths, labels = _corpus(tmp_path / "corpus")
    paths[1].write_text(_fault("cell", paths[1].read_text(encoding="utf-8")), encoding="utf-8")
    labels.write_text(labels.read_text(encoding="utf-8") + "zzz,-1\n", encoding="utf-8")
    manifest = tmp_path / "corpus" / "manifest.json"
    manifest.write_text(json.dumps({
        "models": [{"id": p.stem, "scores_path": p.name} for p in paths],
        "labels_path": "labels.csv", "method": "equal", "seed": 1, "output": "report.csv"}),
        encoding="utf-8")
    expected = f"error: {labels}:42: negative label -1\n"
    for cpus in (1, 2):
        set_cpus(monkeypatch, cpus)
        for argv in (["optimize", "--manifest", str(manifest)],
                     ["compare", "--manifest", str(manifest)],
                     _fuse(paths, labels, tmp_path / "f.csv")):
            assert _run(argv, capsys) == (1, expected)


def _fail_allocation(monkeypatch, shape, message):
    real = np.empty

    def empty(want, *args, **kwargs):
        if tuple(want) == shape:
            raise MemoryError(message)
        return real(want, *args, **kwargs)

    monkeypatch.setattr(np, "empty", empty)


def test_out_of_memory_in_a_reader_is_one_error_line(tmp_path, capsys, monkeypatch):
    # m0 follows the labels' order and needs no new rows; m1 is the first
    # file whose rows are placed, in the parent on one CPU and in a forked
    # reader on two.
    _, paths, labels = _corpus(tmp_path / "corpus", in_order=(0,))
    _fail_allocation(monkeypatch, (40, 3), "cannot allocate 40 x 3")
    forks = count_forks(monkeypatch)
    for cpus in (1, 2):
        set_cpus(monkeypatch, cpus)
        assert _run(_fuse(paths, labels, tmp_path / "f.csv"), capsys) == (
            2, f"error: out of memory reading {paths[1]}: cannot allocate 40 x 3\n")
    assert forks == [1]
    assert no_children_left()


def _fail_loadtxt(monkeypatch, dtype, message):
    real = np.loadtxt

    def loadtxt(*args, **kwargs):
        if kwargs.get("dtype") is dtype:
            raise MemoryError(message)
        return real(*args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", loadtxt)


def test_out_of_memory_reading_the_labels_names_them_in_every_command(tmp_path, capsys,
                                                                      monkeypatch):
    _, paths, labels = _corpus(tmp_path / "corpus")
    manifest = tmp_path / "corpus" / "manifest.json"
    manifest.write_text(json.dumps({
        "models": [{"id": p.stem, "scores_path": p.name} for p in paths],
        "labels_path": "labels.csv", "method": "equal", "seed": 1, "output": "report.csv"}),
        encoding="utf-8")
    _fail_loadtxt(monkeypatch, np.int64, "cannot allocate 40 x 1")
    expected = (2, f"error: out of memory reading {labels}: cannot allocate 40 x 1\n")
    for cpus in (1, 2):
        set_cpus(monkeypatch, cpus)
        for argv in (["evaluate", "--scores", str(paths[0]), "--labels", str(labels)],
                     _fuse(paths, labels, tmp_path / "f.csv"),
                     ["optimize", "--manifest", str(manifest)],
                     ["compare", "--manifest", str(manifest)]):
            assert _run(argv, capsys) == expected
    assert not (tmp_path / "f.csv").exists()
    assert no_children_left()


@pytest.mark.parametrize("where", ["parse", "placement", "stack"])
def test_out_of_memory_reading_a_score_file_in_evaluate_names_it(tmp_path, capsys,
                                                                 monkeypatch, where):
    # As in fuse: parsing the file or placing its rows in label order is
    # reading it, and the stack allocation names itself.
    _, paths, labels = _corpus(tmp_path / "corpus")
    if where == "parse":
        _fail_loadtxt(monkeypatch, np.float64, "")
        expected = f"out of memory reading {paths[0]}"
    elif where == "placement":
        _fail_allocation(monkeypatch, (40, 3), "cannot allocate 40 x 3")
        expected = f"out of memory reading {paths[0]}: cannot allocate 40 x 3"
    else:
        _fail_allocation(monkeypatch, (1, 40, 3), "")
        expected = "out of memory allocating the (M, N, K) = (1, 40, 3) score stack"
    argv = ["evaluate", "--scores", str(paths[0]), "--labels", str(labels)]
    assert _run(argv, capsys) == (2, f"error: {expected}\n")


def test_out_of_memory_for_the_stack_names_its_shape(tmp_path, capsys, monkeypatch):
    _, paths, labels = _corpus(tmp_path / "corpus")
    matrices, label_vector = [load_scores(path) for path in paths], load_labels(labels)
    _fail_allocation(monkeypatch, (3, 40, 3), "")
    message = "out of memory allocating the (M, N, K) = (3, 40, 3) score stack"
    for cpus in (1, 2):
        set_cpus(monkeypatch, cpus)
        assert _run(_fuse(paths, labels, tmp_path / "f.csv"), capsys) == (
            2, f"error: {message}\n")
    with pytest.raises(MemoryError) as caught:
        align(matrices, label_vector)
    assert str(caught.value) == message
    assert no_children_left()


def test_a_reader_that_dies_is_named_and_reaped(tmp_path, capsys, monkeypatch):
    _, paths, labels = _corpus(tmp_path / "corpus")
    parent, real = os.getpid(), scoreio.load_scores

    def load_scores(path, model_id=None):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return real(path, model_id)

    monkeypatch.setattr(scoreio, "load_scores", load_scores)
    set_cpus(monkeypatch, 2)
    assert _run(_fuse(paths, labels, tmp_path / "f.csv"), capsys) == (2, (
        f"error: {paths[1]}: reader process killed by signal {int(signal.SIGKILL)} "
        "before it sent a result\n"))
    assert no_children_left()


@pytest.mark.parametrize("call", ["fork", "pipe"])
def test_a_failed_fork_or_pipe_reads_and_writes_in_process(tmp_path, monkeypatch, call):
    _, paths, labels = _corpus(tmp_path / "corpus", n_samples=3 * scoreio._WRITE_ROWS)
    models = [(None, path) for path in paths]
    set_cpus(monkeypatch, 1)
    expected = load_aligned(models, labels)
    write_scores(expected.matrices[0], tmp_path / "in-process.csv")
    set_cpus(monkeypatch, 2)
    forks = count_forks(monkeypatch)

    def limited(*args):
        raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

    monkeypatch.setattr(os, call, limited)
    descriptors = sorted(os.listdir("/proc/self/fd"))
    got = load_aligned(models, labels)
    write_scores(got.matrices[0], tmp_path / "limited.csv")
    assert sorted(os.listdir("/proc/self/fd")) == descriptors
    assert forks == []
    assert got.stack.tobytes() == expected.stack.tobytes()
    assert (tmp_path / "limited.csv").read_bytes() == (tmp_path / "in-process.csv").read_bytes()
    assert no_children_left()


@pytest.mark.parametrize("sid", ["a,b", "c\rd", 'q"uote', "line\nend"])
def test_a_quoted_id_in_a_forked_block_is_written_the_same(tmp_path, monkeypatch, sid):
    n = 3 * scoreio._WRITE_ROWS + 5
    ids = [f"s{i}" for i in range(n)]
    ids[n - 3] = sid
    scores = np.random.default_rng(1).dirichlet(np.ones(3), n)
    matrix = ScoreMatrix("m", ids, scores)
    forks = count_forks(monkeypatch)
    written = []
    for cpus in (1, 2, 3):
        set_cpus(monkeypatch, cpus)
        path = tmp_path / f"cpus{cpus}.csv"
        write_scores(matrix, path)
        written.append(path.read_bytes())
    assert len(forks) == 1 + 2
    assert written[1] == written[0] and written[2] == written[0]
    back = load_scores(tmp_path / "cpus2.csv")
    assert back.sample_ids == matrix.sample_ids
    assert back.scores.tobytes() == matrix.scores.tobytes()
    assert no_children_left()
