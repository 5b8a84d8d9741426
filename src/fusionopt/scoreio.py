"""Score-matrix, label, and manifest I/O with strict validation.

File formats
------------
Score CSV      header ``sample_id,class_0,...,class_{K-1}``, one row per
               sample, UTF-8, ``.`` decimal separator. Values are written
               with ``repr`` so a load/write/load cycle is bit-identical.
Labels CSV     header ``sample_id,label``.
Id list        plain text, one sample_id per line (validation split).
Manifest       JSON object; unknown keys are rejected to catch typos.
Report CSV     header ``method,precision,recall,f1,accuracy,objective,weights``
               with ``weights`` a ``;``-joined list at fixed 6 decimals.

Score and label CSVs share one number grammar: a value is what Python's
``float`` (``int`` for labels) reads, less underscores and non-ASCII
digits. So ``0.7_5``, ``1_0`` and a Devanagari zero before ``.75`` are
rejected; whitespace around a value is allowed. A file with no quote,
NUL or ASCII separator (0x1C-0x1F) takes numpy's C reader
(``np.loadtxt``), whatever its line ends (LF, CRLF or CR). Any other
file, and any file that reader rejects, is read by ``csv``, which also
words every fault.

:func:`load_aligned` and :func:`load_each`, the loaders of every command,
read the labels and then split the score files between forked readers; a
CSV of more than ``_WRITE_ROWS`` rows is formatted by forked formatters
(:mod:`fusionopt._fork`). Both give the bytes, values and messages of one
process.
"""

from __future__ import annotations

import csv
import json
import logging
import warnings
from bisect import bisect_right
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace
from functools import cached_property, partial
from pathlib import Path

import numpy as np

from ._fork import forked, usable_cpus
from .errors import ConfigError, DataError
from .fusion import class_indices, exact_simplex_rows
from .optimizers.common import DEFAULT_GRID_STEP

ROW_SUM_TOLERANCE = 1e-6
SPLITS = ("validation", "test")
REPORT_HEADER = ("method", "precision", "recall", "f1", "accuracy", "objective", "weights")

logger = logging.getLogger(__name__)


@dataclass(frozen=True, eq=False)
class ScoreMatrix:
    """Per-model probability table, one row per sample.

    Rows must lie on the probability simplex within ``ROW_SUM_TOLERANCE``
    (classifier exports are rarely exact) and are renormalized on
    construction so downstream arithmetic sees rows that sum to exactly 1.0
    under compensated summation. This is the one place score values are
    checked; a failing row raises a :class:`DataError` carrying its index.
    """

    model_id: str
    sample_ids: tuple[str, ...]
    scores: np.ndarray

    def __post_init__(self):
        ids = tuple(map(str, self.sample_ids))
        arr = np.array(self.scores, dtype=np.float64, copy=True)
        if arr.ndim != 2:
            raise DataError(f"model '{self.model_id}': scores must be a 2-D table")
        n, k = arr.shape
        if n == 0:
            raise DataError(f"model '{self.model_id}': no samples")
        if k < 2:
            raise DataError(f"model '{self.model_id}': need at least 2 classes, found {k}")
        if len(ids) != n:
            raise DataError(
                f"model '{self.model_id}': {len(ids)} sample ids for {n} score rows"
            )
        repeat = _first_repeat(ids)
        if repeat is not None:
            raise DataError(f"model '{self.model_id}': duplicate sample_id '{ids[repeat[0]]}'")
        outside = ~((arr >= 0.0) & (arr <= 1.0))  # also catches nan
        if outside.any():
            i, j = (int(x) for x in np.argwhere(outside)[0])
            reason = f"value {float(arr[i, j])!r} outside [0, 1] in column 'class_{j}'"
            raise self._row_error(ids, i, reason)
        sums = exact_simplex_rows(arr)
        too_far = np.abs(sums - 1.0) > ROW_SUM_TOLERANCE
        if too_far.any():
            i = int(np.argmax(too_far))
            raise self._row_error(
                ids, i, f"row sums to {float(sums[i])!r}, expected 1 within {ROW_SUM_TOLERANCE}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "sample_ids", ids)
        object.__setattr__(self, "scores", arr)

    def _row_error(self, ids, row: int, reason: str) -> DataError:
        return DataError(
            f"model '{self.model_id}', sample '{ids[row]}': {reason}", row=row, reason=reason
        )

    @property
    def num_samples(self) -> int:
        return int(self.scores.shape[0])

    @property
    def num_classes(self) -> int:
        return int(self.scores.shape[1])


@dataclass(frozen=True, eq=False)
class LabelVector:
    """Ground-truth class index per sample (0-based)."""

    sample_ids: tuple[str, ...]
    labels: np.ndarray

    def __post_init__(self):
        ids = tuple(map(str, self.sample_ids))
        arr = class_indices(self.labels, DataError, "labels")
        if arr.ndim != 1 or arr.size == 0:
            raise DataError("labels must be a non-empty 1-D vector")
        if len(ids) != arr.size:
            raise DataError(f"{len(ids)} sample ids for {arr.size} labels")
        repeat = _first_repeat(ids)
        if repeat is not None:
            raise DataError(f"duplicate sample_id '{ids[repeat[0]]}' in labels")
        arr.setflags(write=False)
        object.__setattr__(self, "sample_ids", ids)
        object.__setattr__(self, "labels", arr)

    def __len__(self) -> int:
        return int(self.labels.size)

    @cached_property
    def positions(self) -> dict:
        """The position of each sample_id: the one id index of these labels."""
        return {s: i for i, s in enumerate(self.sample_ids)}


@dataclass(frozen=True, eq=False)
class FusionDataset:
    """Model scores stacked as (M, N, K) over one sample_id sequence, plus labels.

    :func:`align` and :func:`subset` build one, and a reused test split re-tags
    one, so ``stack`` holds checked rows aligned with the labels; it is read-only.
    """

    model_ids: tuple[str, ...]
    stack: np.ndarray = field(repr=False)
    labels: LabelVector
    split: str

    def __post_init__(self):
        if self.split not in SPLITS:
            raise DataError(f"split must be one of {SPLITS}, got {self.split!r}")
        expected = (self.num_models, self.num_samples)
        if self.stack.ndim != 3 or self.stack.shape[:2] != expected:
            raise DataError(f"score stack of shape {self.stack.shape} does not fit "
                            f"(models, samples) = {expected}")
        top, k = int(self.labels.labels.max()), self.num_classes
        if top >= k:
            raise DataError(f"label {top} out of range for {k} classes")
        self.stack.setflags(write=False)

    @property
    def matrices(self) -> tuple[ScoreMatrix, ...]:
        """One :class:`ScoreMatrix` per model, rebuilt from the stack."""
        return tuple(
            ScoreMatrix(mid, self.sample_ids, table)
            for mid, table in zip(self.model_ids, self.stack)
        )

    @property
    def num_models(self) -> int:
        return len(self.model_ids)

    @property
    def num_samples(self) -> int:
        return len(self.labels)

    @property
    def num_classes(self) -> int:
        return int(self.stack.shape[2])

    @property
    def sample_ids(self) -> tuple[str, ...]:
        return self.labels.sample_ids

    @property
    def y(self) -> np.ndarray:
        return self.labels.labels


def _first_repeat(ids) -> tuple[int, int] | None:
    """``(row, first)`` for the first id that repeats the one at row ``first``; else None.

    The one duplicate rule: tables, labels, id lists and manifests all ask it.
    """
    if len(set(ids)) == len(ids):
        return None
    seen: dict = {}
    for row, sid in enumerate(ids):
        first = seen.setdefault(sid, row)
        if first != row:
            return row, first


@contextmanager
def open_input(path, error=DataError, newline=None):
    """Open an input file as UTF-8 less a leading BOM; a non-UTF-8 byte raises ``error``."""
    try:
        with path.open(encoding="utf-8-sig", newline=newline) as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not valid UTF-8 ({exc.reason})") from None


def _needs_quotes(text: str) -> bool:
    return "," in text or '"' in text or "\n" in text or "\r" in text


def _csv_field(text: str) -> str:
    return '"' + text.replace('"', '""') + '"' if _needs_quotes(text) else text


_WRITE_ROWS = 4096  # rows formatted per write, so memory stays small for any N


def _csv_block(columns, start: int) -> str:
    """The CSV text of the ``_WRITE_ROWS`` rows of ``columns`` from row ``start``."""
    block = [list(map(str, col[start:start + _WRITE_ROWS])) for col in columns]
    block = [map(_csv_field, col) if _needs_quotes("".join(col)) else col for col in block]
    return "\n".join(map(",".join, zip(*block))) + "\n"


def _write_csv(path, header, columns) -> None:
    """Write ``header`` and the rows of ``columns`` as UTF-8 CSV; make the folder.

    The bytes are ``csv.writer``'s with ``lineterminator="\\n"``: each value
    as ``str`` (``repr`` for a float), a field quoted, its quotes doubled,
    only if it holds a comma, a quote, an LF or a CR. Some Python versions'
    ``csv.writer`` leaves a lone CR unquoted, which does not read back.

    The file is opened first. Its blocks of rows are then formatted by
    forked formatters, at most one process per usable CPU, this one
    included (:func:`_fork.forked`), and written here in order.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(map(_csv_field, header)) + "\n")
        starts = range(0, len(columns[0]) if columns else 0, _WRITE_ROWS)
        with forked([partial(_csv_block, columns, start) for start in starts],
                    [f"{path}: formatter"] * len(starts), usable_cpus()) as blocks:
            for block in blocks:
                fh.write(block())


# Characters that keep a file from numpy's reader: csv's quote, NUL, and
# the ASCII separators numpy strips as whitespace around a number where
# Python's float and int do not.
_CSV_ONLY = '"\0\x1c\x1d\x1e\x1f'
_DTYPES = {float: np.float64, int: np.int64}


def _number(cell: str, kind):
    """``kind(cell)`` for ``kind`` float or int, under the one number grammar.

    A number is what ``kind`` reads, less underscores and non-ASCII digits:
    numpy's reader takes neither, so neither path does.
    """
    if "_" in cell or not (cell.isascii() or cell.strip().isascii()):
        raise ValueError(f"{cell!r} is not a number")
    return kind(cell)


def _numpy_table(lines, width: int, kind):
    """The ids and flat values of a plain table by numpy's C reader; None if not plain.

    Plain: no character of ``_CSV_ONLY``, no blank record, and ``width``
    fields in every record. ``lines`` split at every LF, CRLF and CR, as
    ``csv`` does, so each line is one record. The reader skips blank lines
    and ignores fields past ``usecols``, so those two are checked here; it
    rejects a short record, a bad cell and an int past int64. numpy 1.24
    reads "1.0" as an int with only a warning, so any warning is a
    rejection too.
    """
    text = "".join(lines)
    if (any(c in text for c in _CSV_ONLY)
            or text.count(",") != len(lines) * (width - 1)):
        return None
    records = lines[1:]
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = np.loadtxt(records, dtype=_DTYPES[kind], delimiter=",", comments=None,
                                usecols=range(1, width), ndmin=2)
    except (ValueError, Warning):
        return None
    if len(values) != len(records):  # a blank record was skipped
        return None
    return [record.partition(",")[0] for record in records], values.reshape(-1)


def _csv_records(records, width: int):
    """Ids, flat other cells and blank-record positions, up to the first unreadable record.

    The last item is None, or why that record is unreadable: a wrong field
    count, or an error of ``csv`` such as a field over its size limit.
    """
    ids: list[str] = []
    cells: list[str] = []
    blanks: list[int] = []  # len(ids) at each blank record
    try:
        for row in records:
            if len(row) == width:
                ids.append(row[0])
                cells += row[1:]
            elif row:
                return ids, cells, blanks, f"expected {width} fields, found {len(row)}"
            else:
                blanks.append(len(ids))
    except csv.Error as exc:
        return ids, cells, blanks, str(exc)
    return ids, cells, blanks, None


def _read_table(path, check_header, kind, cell_fault, build):
    """Read a sample_id-keyed CSV, once, and ``build(ids, values)`` its object.

    A plain file (:func:`_numpy_table`) takes numpy's reader; any other, or
    one it rejects, is read by ``csv``, its cells by :func:`_number`. If
    that read or ``build`` fails, the first fault in record order is found
    in memory: per record a repeated id, then ``cell_fault(cells)`` (a
    reason or None); then a record of the wrong width, or one ``csv``
    cannot read (a field over its size limit). With none of those,
    ``build``'s error stands, at ``path:line`` if it names a row. A line is
    a CSV record's number: header 1, blank records counted.

    The text is freed before ``build`` runs: once every cell has parsed,
    only a value can be at fault, and ``str`` of each value is read the
    same way as its cell.
    """
    with open_input(path, newline="") as fh:  # so quoted line breaks reach csv intact
        lines = fh.readlines()  # split at LF, CRLF and CR, each line end kept
    records = csv.reader(lines)
    try:
        header = next(records, None)
    except csv.Error as exc:
        raise DataError(f"{path}:1: {exc}") from None
    if header is None:
        raise DataError(f"{path}:1: missing header")
    check_header(header)
    width = len(header)
    table = _numpy_table(lines, width, kind)
    if table is None:
        # csv takes the records off a stack, popped from the end, so each
        # line is freed once read; a header that passed is the first line.
        stack = [None, *lines[:0:-1]]
        del lines, records
        ids, cells, blanks, bad = _csv_records(csv.reader(iter(stack.pop, None)), width)
        values = None
        if bad is None:
            try:
                values = [_number(cell, kind) for cell in cells]
                # An array holds the values in a quarter of the list's memory;
                # an int past int64 stays a Python int, for the build to name.
                values = np.array(values, dtype=_DTYPES[kind])
            except (ValueError, OverflowError):
                pass
    else:
        del lines, records
        (ids, values), cells, blanks, bad = table, None, [], None

    def line(i: int) -> int:
        return i + 2 + bisect_right(blanks, i)

    if not ids and bad is None:
        raise DataError(f"{path}: no samples")
    error = None
    if values is not None:
        cells = None
        try:
            return build(ids, values)
        except DataError as exc:
            error = exc
        cells = list(map(str, values))
    repeat = _first_repeat(ids)
    step = width - 1
    for i in range(len(ids) if repeat is None else repeat[0]):
        reason = cell_fault(cells[i * step:(i + 1) * step])
        if reason is not None:
            raise DataError(f"{path}:{line(i)}: {reason}")
    if repeat is not None:
        i, first = repeat
        raise DataError(f"{path}:{line(i)}: duplicate sample_id '{ids[i]}' "
                        f"(first seen at line {line(first)})")
    if bad is not None:
        raise DataError(f"{path}:{line(len(ids))}: {bad}")
    if error.row is None:
        raise error
    raise DataError(f"{path}:{line(error.row)}: {error.reason}") from None


def _score_fault(cells) -> str | None:
    for col, cell in enumerate(cells):
        try:
            _number(cell, float)
        except ValueError:
            return f"non-numeric value {cell!r} in column 'class_{col}'"
    return None


def _label_fault(cells) -> str | None:
    try:
        label = _number(cells[0], int)
    except ValueError:
        return f"non-integer label {cells[0]!r}"
    if label < 0:
        return f"negative label {label}"
    return f"labels must be class indices int64 can hold, got {label}" if label >= 2 ** 63 else None


def load_scores(path, model_id: str | None = None) -> ScoreMatrix:
    """Read a score CSV, reporting the offending line on any violation.

    Text-level checks (header, field count, number grammar) happen here;
    id and value checks happen in :class:`ScoreMatrix`. A repeated id is
    restated with both its lines, a row error with the line it was read from.
    """
    path = Path(path)

    def check_header(header):
        expected = ["sample_id"] + [f"class_{i}" for i in range(len(header) - 1)]
        if len(header) < 3 or header != expected:
            raise DataError(
                f"{path}:1: malformed header {header!r}; expected "
                "'sample_id,class_0,...,class_{K-1}' with K >= 2"
            )

    def build(ids, values):
        return ScoreMatrix(model_id if model_id is not None else path.stem, ids,
                           np.reshape(values, (len(ids), -1)))

    return _read_table(path, check_header, float, _score_fault, build)


def write_scores(matrix: ScoreMatrix, path) -> None:
    """Write a score CSV; floats use ``repr`` so they round-trip exactly."""
    _write_csv(path, ["sample_id"] + [f"class_{i}" for i in range(matrix.num_classes)],
               [matrix.sample_ids, *matrix.scores.T.tolist()])


def load_labels(path) -> LabelVector:
    path = Path(path)

    def check_header(header):
        if header != ["sample_id", "label"]:
            raise DataError(
                f"{path}:1: malformed header {header!r}; expected 'sample_id,label'"
            )

    return _read_table(path, check_header, int, _label_fault, LabelVector)


def write_labels(labels: LabelVector, path) -> None:
    _write_csv(path, ["sample_id", "label"], [labels.sample_ids, labels.labels.tolist()])


def read_id_list(path) -> tuple[str, ...]:
    """Read a newline-separated sample_id list; blank lines are skipped."""
    path = Path(path)
    with open_input(path) as fh:
        ids = [line.strip() for line in fh]
    ids = [s for s in ids if s]
    if not ids:
        raise DataError(f"{path}: no sample ids")
    repeat = _first_repeat(ids)
    if repeat is not None:
        raise DataError(f"{path}: duplicate sample_id '{ids[repeat[0]]}'")
    return tuple(ids)


def _in_label_order(matrix: ScoreMatrix, labels: LabelVector):
    """``matrix``'s rows in the labels' order, or the DataError its ids raise.

    Alignment is strict: a sample_id present in the labels but missing from
    the matrix (or vice versa) is an error, never a silent intersection,
    because dropped samples would silently change reported metrics. Ids are
    unique on both sides, so with equal counts the lookup either places
    every row or raises KeyError on an id the labels lack.
    """
    want = labels.sample_ids
    if matrix.sample_ids == want:
        return matrix.scores
    if matrix.num_samples == len(want):
        try:
            order = np.fromiter(map(labels.positions.__getitem__, matrix.sample_ids),
                                np.intp, len(want))
        except KeyError:
            pass
        else:
            rows = np.empty(matrix.scores.shape)
            rows[order] = matrix.scores
            return rows
    have = set(matrix.sample_ids)
    missing = [s for s in want if s not in have]
    if missing:
        return DataError(
            f"model '{matrix.model_id}' is missing sample_id '{missing[0]}' present in "
            f"the labels ({len(missing)} missing in total)"
        )
    extra = [s for s in matrix.sample_ids if s not in labels.positions]
    return DataError(
        f"model '{matrix.model_id}' has sample_id '{extra[0]}' absent from the labels "
        f"({len(extra)} extra in total)"
    )


def align(matrices, labels: LabelVector, split: str = "validation") -> FusionDataset:
    """Stack every matrix in the labels' sample_id order (:func:`_stacked`).

    Rows are only reordered here; :class:`ScoreMatrix` checked them on load.
    """
    mats = tuple(matrices)
    return _stacked([m.model_id for m in mats],
                    [partial(_in_label_order, m, labels) for m in mats], labels, split)


@contextmanager
def _out_of_memory(stage: str):
    """Restate a MemoryError raised inside as one line that names ``stage``."""
    try:
        yield
    except MemoryError as exc:
        raise MemoryError(f"out of memory {stage}" + (f": {exc}" if str(exc) else "")) from None


def _stacked(model_ids, calls, labels: LabelVector, split: str) -> FusionDataset:
    """The (M, N, K) stack of each model's rows, as ``calls[m]()`` gives them in label order.

    A call returns its model's rows or the DataError its ids raise. The
    fault reported is the first such error in model order, then a class
    count that differs from the first model's.
    """
    if not model_ids:
        raise DataError("at least one score matrix is required")
    stack, faults, counts = None, [], []
    for slot, call in enumerate(calls):
        rows = call()
        if isinstance(rows, DataError):
            faults.append(rows)
            continue
        counts.append(rows.shape[1])
        if stack is None:
            shape = (len(model_ids), len(labels), counts[0])
            with _out_of_memory(f"allocating the (M, N, K) = {shape} score stack"):
                stack = np.empty(shape)
        if counts[-1] == counts[0]:
            stack[slot] = rows
    if faults:
        raise faults[0]
    for model_id, k in zip(model_ids, counts):
        if k != counts[0]:
            raise DataError(
                f"model '{model_id}' has {k} classes, model '{model_ids[0]}' has {counts[0]}")
    return FusionDataset(tuple(model_ids), stack, labels, split)


def _read_in_label_order(path: Path, model_id: str, labels: LabelVector):
    """One score file's rows in the labels' order, or the DataError its ids raise.

    Its ids are dropped on return, so only the float rows leave a reader.
    """
    with _out_of_memory(f"reading {path}"):
        return _in_label_order(load_scores(path, model_id), labels)


@contextmanager
def _readers(models, labels_path):
    """A context of the labels, the model ids and one call per file that gives its rows.

    ``models`` holds ``(model_id, path)`` pairs; a None model id is the
    file's stem. The labels are read first, then the files are split between
    forked readers, at most one process per usable CPU, this one included
    (:func:`_fork.forked`); each places a file's rows in label order, and
    only those rows cross back. On leaving, every reader is reaped.
    """
    with _out_of_memory(f"reading {labels_path}"):
        labels = load_labels(labels_path)
    models = [(Path(path).stem if mid is None else mid, Path(path)) for mid, path in models]
    if len(models) > 1:
        labels.positions  # built before the readers fork, so they share it
    readers = [partial(_read_in_label_order, path, mid, labels) for mid, path in models]
    with forked(readers, [f"{path}: reader" for _, path in models], usable_cpus()) as calls:
        yield labels, [mid for mid, _ in models], calls


def load_aligned(models, labels_path) -> FusionDataset:
    """Read the labels, then each score file straight into its slot of a validation stack.

    The fault reported is the one :func:`load_labels`, then
    :func:`load_scores` on each file in order, then :func:`align` would raise.
    """
    with _readers(models, labels_path) as (labels, model_ids, calls):
        return _stacked(model_ids, calls, labels, "validation")


@contextmanager
def load_each(paths, labels_path):
    """A context of one single-model dataset per score file, in order, each built when asked.

    Each is what :func:`align` gives for its file alone, under the file's
    stem, so the files may differ in class count.
    """
    with _readers([(None, path) for path in paths], labels_path) as (labels, model_ids, calls):
        yield (_stacked([mid], [call], labels, "validation")
               for mid, call in zip(model_ids, calls))


def subset(dataset: FusionDataset, sample_ids, split: str) -> FusionDataset:
    """Restrict an aligned dataset to ``sample_ids`` as ``split``; its labels check the ids."""
    wanted = tuple(sample_ids)
    try:
        perm = np.fromiter(map(dataset.labels.positions.__getitem__, wanted), np.intp,
                           len(wanted))
    except KeyError as exc:
        raise DataError(f"sample_id {exc.args[0]!r} not present in the dataset") from None
    return FusionDataset(dataset.model_ids, np.take(dataset.stack, perm, axis=1),
                         LabelVector(wanted, dataset.y[perm]), split)


# --- experiment manifest ------------------------------------------------

MANIFEST_REQUIRED = {"models", "labels_path", "method", "output"}
MODEL_ENTRY_KEYS = {"id", "scores_path"}


@dataclass(frozen=True)
class Manifest:
    """A manifest as read, one field per key; the runner checks its search settings."""

    models: tuple[tuple[str, Path], ...]
    labels_path: Path
    method: str
    output: Path
    params: dict
    seed: int | None
    grid_step: float
    objective: str
    validation_ids_path: Path | None


MANIFEST_KEYS = frozenset(f.name for f in fields(Manifest))


def load_manifest(path) -> Manifest:
    """Read a manifest, checking its shape, keys, model entries and referenced paths."""
    path = Path(path)
    base = path.parent
    try:
        with open_input(path, ConfigError) as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: manifest must be a JSON object")
    unknown = sorted(set(raw) - MANIFEST_KEYS)
    if unknown:
        raise ConfigError(f"{path}: unknown manifest key(s): {', '.join(unknown)}")
    missing = sorted(MANIFEST_REQUIRED - set(raw))
    if missing:
        raise ConfigError(f"{path}: missing manifest key(s): {', '.join(missing)}")

    models_raw = raw["models"]
    if not isinstance(models_raw, list) or not models_raw:
        raise ConfigError(f"{path}: 'models' must be a non-empty array")
    models = []
    for entry in models_raw:
        if not isinstance(entry, dict) or set(entry) != MODEL_ENTRY_KEYS:
            raise ConfigError(
                f"{path}: each model entry must be an object with exactly "
                f"{sorted(MODEL_ENTRY_KEYS)}"
            )
        models.append((str(entry["id"]), base / str(entry["scores_path"])))
    ids = [m[0] for m in models]
    repeat = _first_repeat(ids)
    if repeat is not None:
        raise ConfigError(f"{path}: duplicate model id '{ids[repeat[0]]}'")

    validation_ids_path = raw.get("validation_ids_path")
    if validation_ids_path is not None:
        validation_ids_path = base / str(validation_ids_path)

    manifest = Manifest(
        models=tuple(models),
        labels_path=base / str(raw["labels_path"]),
        method=str(raw["method"]),
        output=base / str(raw["output"]),
        params=raw.get("params", {}),
        seed=raw.get("seed"),
        grid_step=raw.get("grid_step", DEFAULT_GRID_STEP),
        objective=str(raw.get("objective", "fused_accuracy")),
        validation_ids_path=validation_ids_path,
    )
    referenced = [p for _, p in manifest.models] + [manifest.labels_path, validation_ids_path]
    for ref in referenced:
        if ref is not None and not ref.exists():
            raise FileNotFoundError(f"manifest references missing file: {ref}")
    return manifest


def load_manifest_splits(manifest: Manifest) -> tuple[FusionDataset, FusionDataset]:
    """Load, align, and carve a manifest into (validation, test) datasets.

    With a validation id list that leaves samples out, the test split is
    the complement. Without a list, or with one that covers every sample,
    the test split is the validation dataset re-tagged ``"test"``, sharing
    its stack, and a warning says that test metrics are not held out.
    """
    full = validation = load_aligned(manifest.models, manifest.labels_path)
    rest = ()
    if manifest.validation_ids_path is not None:
        val_ids = read_id_list(manifest.validation_ids_path)
        val_set = set(val_ids)
        rest = tuple(s for s in full.sample_ids if s not in val_set)
        validation = subset(full, val_ids, "validation")
    if rest:
        return validation, subset(full, rest, "test")
    logger.warning("the test split is the validation split; test metrics are not held out")
    return validation, replace(validation, split="test")


# --- report CSV ---------------------------------------------------------

@dataclass(frozen=True)
class ReportRow:
    """One report line: a method (or model) with its evaluation metrics.

    ``objective`` is the validation error the weights were chosen on;
    ``weights`` the chosen weight vector. Both are blank for plain
    per-model evaluation rows.
    """

    method: str
    precision: float
    recall: float
    f1: float
    accuracy: float
    objective: float | None = None
    weights: tuple[float, ...] | None = None

    @classmethod
    def from_metrics(cls, method, report, objective=None, weights=None):
        """Build a row from a metrics report plus optional search outcome."""
        return cls(
            method=method,
            precision=report.precision,
            recall=report.recall,
            f1=report.f1,
            accuracy=report.accuracy,
            objective=objective,
            weights=None if weights is None else tuple(float(w) for w in weights),
        )

    def cells(self) -> list[str]:
        """The row's cells in ``REPORT_HEADER`` order; an absent value is blank."""
        numbers = (self.precision, self.recall, self.f1, self.accuracy, self.objective)
        return [self.method, *("" if v is None else f"{v:.6f}" for v in numbers),
                "" if self.weights is None else ";".join(f"{w:.6f}" for w in self.weights)]


def write_report(rows, path) -> None:
    """Write report rows as CSV with a deterministic column order."""
    _write_csv(path, REPORT_HEADER, list(zip(*(r.cells() for r in rows))))
