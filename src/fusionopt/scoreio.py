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
"""

from __future__ import annotations

import csv
import json
import logging
from bisect import bisect_right
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

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
        if len(set(ids)) != n:
            dup = _first_duplicate(ids)
            raise DataError(f"model '{self.model_id}': duplicate sample_id '{dup}'")
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
        if len(set(ids)) != len(ids):
            raise DataError(f"duplicate sample_id '{_first_duplicate(ids)}' in labels")
        arr.setflags(write=False)
        object.__setattr__(self, "sample_ids", ids)
        object.__setattr__(self, "labels", arr)

    def __len__(self) -> int:
        return int(self.labels.size)


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


def _first_duplicate(ids):
    seen = set()
    for s in ids:
        if s in seen:
            return s
        seen.add(s)
    return None


@contextmanager
def open_input(path, error=DataError, newline=None):
    """Open an input file as UTF-8 less a leading BOM; a non-UTF-8 byte raises ``error``."""
    try:
        with path.open(encoding="utf-8-sig", newline=newline) as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not valid UTF-8 ({exc.reason})") from None


def _write_csv(path, header, rows) -> None:
    """Write ``header``, then stream ``rows``, as UTF-8 CSV with LF line ends; make the folder."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _read_table(path, check_header, parse, cell_fault):
    """Read a sample_id-keyed CSV, once, into its header, ids, parsed cells and line map.

    Ids stream into one list and other cells into one flat list, up to a record
    with the wrong field count; ``line(i)`` is row ``i``'s record number (header
    1, blank records counted). If ``parse`` rejects a cell (``ValueError``), a
    count is wrong or an id repeats, the first fault is found in memory, per
    record a duplicate id, then ``cell_fault(cells)`` (a reason or None).
    """
    with open_input(path, newline="") as fh:  # so quoted line breaks reach csv intact
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise DataError(f"{path}:1: missing header")
        check_header(header)
        width = len(header)
        ids: list[str] = []
        cells: list[str] = []
        blanks: list[int] = []  # len(ids) at each blank record
        bad = None
        for row in reader:
            if len(row) == width:
                ids.append(row[0])
                cells += row[1:]
            elif row:
                bad = row
                break
            else:
                blanks.append(len(ids))

    def line(i: int) -> int:
        return i + 2 + bisect_right(blanks, i)

    if bad is None and len(set(ids)) == len(ids):
        if not ids:
            raise DataError(f"{path}: no samples")
        try:
            return header, ids, parse(cells), line
        except ValueError:
            pass
    seen: dict[str, int] = {}
    step = width - 1
    for i, sid in enumerate(ids):
        if sid in seen:
            raise DataError(
                f"{path}:{line(i)}: duplicate sample_id '{sid}' "
                f"(first seen at line {line(seen[sid])})"
            )
        seen[sid] = i
        reason = cell_fault(cells[i * step:(i + 1) * step])
        if reason is not None:
            raise DataError(f"{path}:{line(i)}: {reason}")
    raise DataError(f"{path}:{line(len(ids))}: expected {width} fields, found {len(bad)}")


def _parse_scores(cells) -> np.ndarray:
    return np.array(list(map(float, cells)))


def _score_fault(cells) -> str | None:
    for col, cell in enumerate(cells):
        try:
            float(cell)
        except ValueError:
            return f"non-numeric value {cell!r} in column 'class_{col}'"
    return None


def _parse_labels(cells) -> list[int]:
    labels = list(map(int, cells))
    if min(labels) < 0:
        raise ValueError("negative label")
    return labels


def _label_fault(cells) -> str | None:
    try:
        label = int(cells[0])
    except ValueError:
        return f"non-integer label {cells[0]!r}"
    return f"negative label {label}" if label < 0 else None


def load_scores(path, model_id: str | None = None) -> ScoreMatrix:
    """Read a score CSV, reporting the offending line on any violation.

    Text-level checks (header, field count, numeric parse, duplicate id)
    happen here; value checks happen in :class:`ScoreMatrix`, whose row
    errors are restated with the line they were read from.
    """
    path = Path(path)

    def check_header(header):
        expected = ["sample_id"] + [f"class_{i}" for i in range(len(header) - 1)]
        if len(header) < 3 or header != expected:
            raise DataError(
                f"{path}:1: malformed header {header!r}; expected "
                "'sample_id,class_0,...,class_{K-1}' with K >= 2"
            )

    header, ids, values, line = _read_table(path, check_header, _parse_scores, _score_fault)
    try:
        return ScoreMatrix(
            model_id if model_id is not None else path.stem,
            ids,
            values.reshape(len(ids), len(header) - 1),
        )
    except DataError as exc:
        if exc.row is None:
            raise
        raise DataError(f"{path}:{line(exc.row)}: {exc.reason}") from None


def write_scores(matrix: ScoreMatrix, path) -> None:
    """Write a score CSV; floats use ``repr`` so they round-trip exactly."""
    columns = (map(repr, col) for col in matrix.scores.T.tolist())
    _write_csv(path, ["sample_id"] + [f"class_{i}" for i in range(matrix.num_classes)],
               zip(matrix.sample_ids, *columns))


def load_labels(path) -> LabelVector:
    path = Path(path)

    def check_header(header):
        if header != ["sample_id", "label"]:
            raise DataError(
                f"{path}:1: malformed header {header!r}; expected 'sample_id,label'"
            )

    _, ids, labels, _ = _read_table(path, check_header, _parse_labels, _label_fault)
    return LabelVector(ids, labels)


def write_labels(labels: LabelVector, path) -> None:
    _write_csv(path, ["sample_id", "label"], zip(labels.sample_ids, labels.labels.tolist()))


def read_id_list(path) -> tuple[str, ...]:
    """Read a newline-separated sample_id list; blank lines are skipped."""
    path = Path(path)
    with open_input(path) as fh:
        ids = [line.strip() for line in fh]
    ids = [s for s in ids if s]
    if not ids:
        raise DataError(f"{path}: no sample ids")
    if len(set(ids)) != len(ids):
        raise DataError(f"{path}: duplicate sample_id '{_first_duplicate(ids)}'")
    return tuple(ids)


def align(matrices, labels: LabelVector, split: str = "validation") -> FusionDataset:
    """Stack every matrix in the labels' sample_id order.

    Alignment is strict: a sample_id present in the labels but missing from
    any matrix (or vice versa) is an error, never a silent intersection,
    because dropped samples would silently change reported metrics. Rows
    are only reordered here; :class:`ScoreMatrix` checked them on load.
    """
    mats = tuple(matrices)
    if not mats:
        raise DataError("at least one score matrix is required")
    want = labels.sample_ids
    # Per matrix: None when its rows already follow the labels, else the
    # row of each label id. Ids are unique on both sides, so with equal
    # counts the lookup either succeeds or raises KeyError on a missing id.
    orders = []
    for m in mats:
        if m.sample_ids == want:
            orders.append(None)
            continue
        pos = {s: i for i, s in enumerate(m.sample_ids)}
        if len(pos) == len(want):
            try:
                orders.append(np.fromiter(map(pos.__getitem__, want), np.intp, len(want)))
                continue
            except KeyError:
                pass
        missing = [s for s in want if s not in pos]
        if missing:
            raise DataError(
                f"model '{m.model_id}' is missing sample_id '{missing[0]}' present in "
                f"the labels ({len(missing)} missing in total)"
            )
        want_set = set(want)
        extra = [s for s in m.sample_ids if s not in want_set]
        raise DataError(
            f"model '{m.model_id}' has sample_id '{extra[0]}' absent from the labels "
            f"({len(extra)} extra in total)"
        )
    k = mats[0].num_classes
    for m in mats:
        if m.num_classes != k:
            raise DataError(
                f"model '{m.model_id}' has {m.num_classes} classes, "
                f"model '{mats[0].model_id}' has {k}"
            )
    stack = np.empty((len(mats), len(want), k))
    for table, m, order in zip(stack, mats, orders):
        table[...] = m.scores if order is None else m.scores[order]
    return FusionDataset(tuple(m.model_id for m in mats), stack, labels, split)


def subset(dataset: FusionDataset, sample_ids, split: str) -> FusionDataset:
    """Restrict an aligned dataset to ``sample_ids`` as ``split``; its labels check the ids."""
    wanted = tuple(sample_ids)
    pos = {s: i for i, s in enumerate(dataset.sample_ids)}
    try:
        perm = np.fromiter(map(pos.__getitem__, wanted), np.intp, len(wanted))
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
    if len(set(ids)) != len(ids):
        raise ConfigError(f"{path}: duplicate model id '{_first_duplicate(ids)}'")

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
    matrices = [load_scores(path, model_id=mid) for mid, path in manifest.models]
    labels = load_labels(manifest.labels_path)
    full = validation = align(matrices, labels, split="validation")
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
    _write_csv(path, REPORT_HEADER, (r.cells() for r in rows))
