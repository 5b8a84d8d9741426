import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fusionopt.fusion
from fusionopt.errors import InvalidWeightsError
from fusionopt.fusion import (
    FusedScores,
    Predictions,
    WeightVector,
    _row_fsums,
    equal_weights,
    exact_simplex,
    exact_simplex_rows,
    fuse,
    normalize,
    predict,
)
from fusionopt.objective import OBJECTIVE_VARIANTS, make_objective

from synthdata import random_dataset

weight_arrays = st.lists(
    st.floats(0.0, 1.0, allow_nan=False), min_size=1, max_size=6
).filter(lambda vals: any(v > 0 for v in vals))


class TestNormalize:
    def test_equal_raw_ones(self):
        w = normalize(WeightVector(np.array([1.0, 1.0, 1.0])))
        np.testing.assert_allclose(w.values, [1 / 3, 1 / 3, 1 / 3], rtol=0, atol=1e-15)

    def test_single_positive_entry_becomes_one_hot(self):
        w = normalize(WeightVector(np.array([2.0, 0.0, 0.0])))
        np.testing.assert_array_equal(w.values, [1.0, 0.0, 0.0])

    def test_all_zero_rejected(self):
        with pytest.raises(InvalidWeightsError, match="zero"):
            WeightVector(np.array([0.0, 0.0, 0.0]))

    def test_negative_rejected(self):
        with pytest.raises(InvalidWeightsError, match="negative"):
            WeightVector(np.array([0.5, -0.1]))

    def test_nan_rejected(self):
        with pytest.raises(InvalidWeightsError, match="finite"):
            WeightVector(np.array([0.5, float("nan")]))

    @given(weight_arrays)
    def test_normalized_sum_is_exactly_one(self, vals):
        w = normalize(WeightVector(np.array(vals)))
        assert math.fsum(w.values.tolist()) == 1.0

    @given(weight_arrays)
    def test_normalize_is_idempotent_bitwise(self, vals):
        once = normalize(WeightVector(np.array(vals)))
        twice = normalize(once)
        np.testing.assert_array_equal(once.values, twice.values)

    @given(weight_arrays)
    def test_exact_simplex_preserves_proportions(self, vals):
        out = exact_simplex(np.array(vals))
        total = math.fsum(vals)
        np.testing.assert_allclose(out, np.array(vals) / total, rtol=0, atol=1e-12)


@pytest.mark.parametrize("entry", ["WeightVector", "exact_simplex", *OBJECTIVE_VARIANTS])
@pytest.mark.parametrize("values, message", [
    ([0.5, -0.1], "weights contain negative entries"),
    ([0.5, math.nan], "weights contain non-finite entries"),
    ([math.inf, 1.0], "weights contain non-finite entries"),
    ([0.0, 0.0], "weights are all zero"),
    ([], "weights must form a non-empty 1-D vector"),
    ([[0.5], [0.5]], "weights must form a non-empty 1-D vector"),
], ids=["negative", "nan", "inf", "all-zero", "empty", "2-d"])
def test_every_entry_point_applies_the_one_weight_rule(entry, values, message):
    if entry in OBJECTIVE_VARIANTS:
        apply = make_objective(random_dataset(np.random.default_rng(3), n_models=2), entry)
    else:
        apply = getattr(fusionopt.fusion, entry)
    with pytest.raises(InvalidWeightsError) as caught:
        apply(np.array(values, dtype=np.float64))
    assert str(caught.value) == message


def _per_row_reference(table):
    """What exact_simplex_rows replaces: math.fsum per row, then exact_simplex per row."""
    sums = np.array([math.fsum(row) for row in table.tolist()])
    out = table.copy()
    for i in np.flatnonzero((sums != 1.0) & (sums > 0.0) & np.isfinite(sums)):
        out[i] = exact_simplex(table[i])
    return sums, out


def _assert_same_as_per_row(table):
    sums, rows = _per_row_reference(table)
    got_rows = table.copy()
    got_sums = exact_simplex_rows(got_rows)
    np.testing.assert_array_equal(got_sums.view(np.int64), sums.view(np.int64))
    np.testing.assert_array_equal(got_rows.view(np.int64), rows.view(np.int64))


def _hard_rows(rng, n, k):
    """n rows of k entries: score rows plus the cases that reach each branch."""
    table = rng.dirichlet(np.ones(k), size=n)
    q = n // 8
    # printed to 6 digits, or scaled: sums 1 only within rounding or the load tolerance
    table[:q] = np.round(table[:q], 6)
    table[q:2 * q] *= 1.0 + rng.uniform(-1e-7, 1e-7, size=(q, 1))
    block = table[2 * q:3 * q]
    tiny = rng.random(block.shape) < 0.3
    block[tiny] = rng.random(int(tiny.sum())) * 2.0 ** -1022  # subnormal entries
    block[rng.random(block.shape) < 0.05] = -0.0
    table[3 * q:3 * q + 100] = rng.random((100, k)) * 2.0 ** -1022  # subnormal sums
    special = [
        [0.5, 0.5 - 2.0 ** -54],  # exact sum 1 - 2**-54: halfway, rounds to 1.0
        [0.5, 0.5 + 2.0 ** -53],  # exact sum 1 + 2**-53: halfway, rounds to 1.0
        [0.25, 0.25 + 2.0 ** -54, 0.5 - 2.0 ** -54],
        [1.0, 2.0 ** -60, 2.0 ** -120],  # step errors whose sum rounds: fsum fallback
        [0.5, 0.5, 2.0 ** -60, 2.0 ** -120, 2.0 ** -1074],
        [0.5, 0.4],  # outside the load tolerance, still renormalised
        [0.3, 0.3, 0.3],  # the largest entry is tied
        [0.0, -0.0],  # sum 0: left as it is
    ]
    start = 3 * q + 100
    for i in range(start, start + q):
        entries = special[i % len(special)][:k]
        table[i] = 0.0
        table[i, rng.permutation(k)[:len(entries)]] = entries
    return table


class TestExactSimplexRows:
    @pytest.mark.parametrize("k", range(2, 9))
    def test_matches_fsum_and_exact_simplex_bit_for_bit(self, k, monkeypatch):
        # 7 x 150,000 rows, over a million in all
        table = _hard_rows(np.random.default_rng(900 + k), 150_000, k)
        fallbacks = []

        def counted(values):
            fallbacks.append(1)
            return exact_simplex(values)

        monkeypatch.setattr(fusionopt.fusion, "exact_simplex", counted)
        _assert_same_as_per_row(table)
        if k >= 3:
            assert not _row_fsums(table.T)[1].all()
            assert fallbacks

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 8).flatmap(lambda k: st.lists(
        st.lists(st.one_of(st.floats(0.0, 1.0), st.sampled_from(
            [-0.0, 2.0 ** -1074, 2.0 ** -60, 0.5 - 2.0 ** -54, 0.5 + 2.0 ** -53])),
            min_size=k, max_size=k),
        min_size=1, max_size=20)))
    def test_property_matches_per_row_code(self, rows):
        _assert_same_as_per_row(np.array(rows, dtype=np.float64))

    def test_rows_become_exact_simplex_rows_in_place(self):
        table = np.array([[0.6000004, 0.4], [0.25, 0.75], [0.0, 0.0]])
        sums = exact_simplex_rows(table)
        assert sums.tolist() == [1.0000004, 1.0, 0.0]
        assert [math.fsum(row) for row in table.tolist()] == [1.0, 1.0, 0.0]


def _reference_weight_rule(values):
    """The weight rule as ``WeightVector`` applied it before it moved to ``weight_list``."""
    arr = np.array(values, dtype=np.float64, copy=True)
    if arr.ndim != 1 or arr.size == 0:
        raise InvalidWeightsError("weights must form a non-empty 1-D vector")
    vals = arr.tolist()
    if not all(map(math.isfinite, vals)):
        raise InvalidWeightsError("weights contain non-finite entries")
    if min(vals) < 0.0:
        raise InvalidWeightsError("weights contain negative entries")
    if max(vals) == 0.0:
        raise InvalidWeightsError("weights are all zero")
    return arr


def _reference_exact_simplex(values) -> np.ndarray:
    """``exact_simplex`` as it was before its first-pass exit, verbatim but for the rule."""
    vals = _reference_weight_rule(values).tolist()
    try:
        total = math.fsum(vals)
    except OverflowError:  # finite entries whose sum float64 cannot hold
        raise InvalidWeightsError("cannot normalize vector: its sum overflows float64") from None
    if total == 1.0:
        return np.asarray(vals, dtype=np.float64)
    scaled = [v / total for v in vals]
    for j in sorted(range(len(scaled)), key=lambda i: (-scaled[i], i)):
        rest = math.fsum(scaled[:j] + scaled[j + 1:])
        nudged = 1.0 - rest
        if nudged >= 0.0:
            scaled[j] = nudged
        if math.fsum(scaled) == 1.0:
            break
    return np.asarray(scaled, dtype=np.float64)


def _outcome(function, values):
    """The bits ``function`` returns, or the type and message of what it raises."""
    try:
        return function(values).tobytes()
    except InvalidWeightsError as exc:
        return type(exc), str(exc)


def _weight_vectors(rng, n, m):
    """n vectors of m weights: scales 1e-3 to 1e5, exact ties, zeros, subnormals, overflow."""
    table = rng.random((n, m)) * 10.0 ** rng.uniform(-3.0, 5.0, size=(n, 1))
    part = n // 10
    blocks = [table[i * part:(i + 1) * part] for i in range(9)]
    blocks[0][:] = np.round(blocks[0], 2)  # few distinct values: ties everywhere
    blocks[1][:, -1] = blocks[1].max(axis=1)  # the largest entry tied, lowest index first
    blocks[2][rng.random(blocks[2].shape) < 0.4] = 0.0
    blocks[2][rng.random(blocks[2].shape) < 0.1] = -0.0
    blocks[3][rng.random(blocks[3].shape) < 0.5] *= 2.0 ** -1060  # subnormal entries
    blocks[4][:] *= 2.0 ** -1074 / blocks[4].max(axis=1, keepdims=True).clip(1e-300)
    blocks[5][:] = rng.random(blocks[5].shape) * 1.7976931348623157e308  # sums overflow
    blocks[6][:] = rng.choice([0.1, 0.2, 0.3, 1.0 / 3.0, 0.5, 2.0 ** -54], blocks[6].shape)
    blocks[7][:] = np.where(rng.random(blocks[7].shape) < 0.5, 1.0, 0.0)  # one-hots and all-zero
    bad = rng.random(blocks[8].shape) < 0.05
    blocks[8][bad] = rng.choice([-1.0, -0.0, math.inf, math.nan], int(bad.sum()))
    return table


class TestExactSimplexFirstPass:
    """The first-pass exit and the one weight rule change no bit and no error."""

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 8])
    def test_matches_the_loop_only_code_bit_for_bit(self, m):
        # 5 x 45,000 vectors, 225,000 in all
        table = _weight_vectors(np.random.default_rng(4100 + m), 45_000, m)
        kinds = set()
        for row in table:
            expected = _outcome(_reference_exact_simplex, row)
            assert _outcome(exact_simplex, row) == expected, row.tolist()
            kinds.add(expected[0] if isinstance(expected, tuple) else bytes)
        assert bytes in kinds and InvalidWeightsError in kinds
        # WeightVector keeps the values it is given, and raises the same errors.
        for row in table[::50]:
            expected = _outcome(_reference_weight_rule, row)
            assert _outcome(lambda v: WeightVector(v).values, row) == expected

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 8])
    def test_matches_exact_simplex_rows_row_by_row(self, m):
        table = _weight_vectors(np.random.default_rng(4200 + m), 20_000, m)
        with np.errstate(over="ignore", invalid="ignore"):
            keep = (table >= 0.0).all(axis=1) & np.isfinite(table.sum(axis=1))
        table = table[keep & (table > 0.0).any(axis=1)]
        rows = table.copy()
        exact_simplex_rows(rows)
        for row, got in zip(table, rows):
            assert got.tobytes() == exact_simplex(row).tobytes(), row.tolist()


class TestEqualWeights:
    def test_three_models(self):
        np.testing.assert_array_equal(equal_weights(3).values, [1 / 3, 1 / 3, 1 / 3])

    def test_single_model(self):
        np.testing.assert_array_equal(equal_weights(1).values, [1.0])

    def test_zero_models_rejected(self):
        with pytest.raises(InvalidWeightsError):
            equal_weights(0)


class TestFuse:
    def test_one_hot_recovers_model_bit_identically(self):
        ds = random_dataset(np.random.default_rng(1), n_models=3, n_samples=12, n_classes=3)
        for j in range(3):
            raw = np.zeros(3)
            raw[j] = 1.0
            fused = fuse(ds, WeightVector(raw))
            np.testing.assert_array_equal(fused.fused, ds.matrices[j].scores)

    def test_symmetric_pair_averages(self):
        ds = _two_model_single_row((0.8, 0.2), (0.2, 0.8))
        fused = fuse(ds, WeightVector(np.array([0.5, 0.5])))
        np.testing.assert_allclose(fused.fused[0], [0.5, 0.5], rtol=0, atol=1e-15)

    def test_hand_arithmetic_75_25(self):
        # 0.75*0.8 + 0.25*0.2 = 0.65 ; 0.75*0.2 + 0.25*0.8 = 0.35
        ds = _two_model_single_row((0.8, 0.2), (0.2, 0.8))
        fused = fuse(ds, WeightVector(np.array([0.75, 0.25])))
        np.testing.assert_allclose(fused.fused[0], [0.65, 0.35], rtol=0, atol=1e-15)

    def test_length_mismatch_rejected(self):
        ds = random_dataset(np.random.default_rng(2), n_models=2, n_samples=4)
        with pytest.raises(InvalidWeightsError, match="2 models"):
            fuse(ds, WeightVector(np.array([1.0])))

    def test_unnormalized_weights_fuse_as_their_exact_simplex(self):
        ds = random_dataset(np.random.default_rng(2), n_models=2, n_samples=4)
        for raw in ([1.0, 3.0], [0.1, 0.7], [1e-300, 1e300]):
            fused = fuse(ds, WeightVector(np.array(raw))).fused
            expected = fuse(ds, WeightVector(exact_simplex(raw))).fused
            np.testing.assert_array_equal(fused, expected)
        np.testing.assert_array_equal(
            fuse(ds, WeightVector(np.array([2.0, 6.0]))).fused,
            0.25 * ds.stack[0] + 0.75 * ds.stack[1])

    def test_weights_whose_sum_overflows_rejected(self):
        ds = random_dataset(np.random.default_rng(2), n_models=2, n_samples=4)
        message = r"^cannot normalize vector: its sum overflows float64$"
        with np.errstate(all="raise"), pytest.raises(InvalidWeightsError, match=message):
            fuse(ds, WeightVector(np.array([1e308, 1e308])))


class TestPredict:
    def test_plain_argmax(self):
        ds = _two_model_single_row((0.8, 0.2), (0.2, 0.8))
        fused = fuse(ds, WeightVector(np.array([0.75, 0.25])))
        assert predict(fused).predicted.tolist() == [0]

    def test_tie_breaks_to_lowest_class(self):
        ds = _two_model_single_row((0.8, 0.2), (0.2, 0.8))
        fused = fuse(ds, WeightVector(np.array([0.5, 0.5])))
        assert predict(fused).predicted.tolist() == [0]

    def test_three_class_argmax(self):
        ds = _three_class_single_row((0.2, 0.3, 0.5))
        fused = fuse(ds, WeightVector(np.array([1.0])))
        assert predict(fused).predicted.tolist() == [2]

    def test_predictions_must_be_whole_and_nonnegative(self):
        with pytest.raises(InvalidWeightsError, match=r"whole class indices, got 1\.9$"):
            Predictions(("a", "b"), np.array([0.0, 1.9]))
        with pytest.raises(InvalidWeightsError, match=r"^predictions must be nonnegative"):
            Predictions(("a", "b"), np.array([0, -1]))
        assert Predictions(("a",), [1.0]).predicted.tolist() == [1]


@pytest.mark.parametrize("ids, fused, message", [
    (("a",), [0.5, 0.5], "fused scores must be a 2-D table"),
    (("a", "b"), [[0.5, 0.5]], "2 sample ids for 1 fused rows"),
    (("a",), [[math.nan, 1.0]], "fused scores contain non-finite entries"),
    (("a", "b"), [[0.5, 0.5], [0.25, 0.5]],
     "fused row 1 sums to 0.75; convex combinations must stay on the simplex"),
], ids=["1-D", "id-count", "non-finite", "row-sum"])
def test_fused_scores_errors(ids, fused, message):
    with pytest.raises(InvalidWeightsError, match=rf"^{re.escape(message)}$"):
        FusedScores(ids, np.array(fused))


@pytest.mark.parametrize("ids, predicted", [
    (("a", "b"), [0]),
    (("a",), [0, 1]),
    (("a", "b"), [[0], [1]]),
], ids=["short", "long", "2-D"])
def test_predictions_need_one_class_index_per_sample(ids, predicted):
    with pytest.raises(InvalidWeightsError,
                       match=r"^predictions must be one class index per sample$"):
        Predictions(ids, np.array(predicted))


class TestFusionAlgebra:
    """Fuzzed structural properties of the linear combination."""

    def _random_case(self, seed):
        rng = np.random.default_rng(seed)
        ds = random_dataset(
            rng,
            n_models=int(rng.integers(1, 5)),
            n_samples=int(rng.integers(1, 20)),
            n_classes=int(rng.integers(2, 5)),
        )
        raw = rng.random(ds.num_models) + 1e-6
        return rng, ds, raw

    @settings(max_examples=150)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_convexity_bounds(self, seed):
        _, ds, raw = self._random_case(seed)
        fused = fuse(ds, normalize(WeightVector(raw))).fused
        low = ds.stack.min(axis=0)
        high = ds.stack.max(axis=0)
        assert np.all(fused >= low - 1e-12)
        assert np.all(fused <= high + 1e-12)

    @settings(max_examples=150)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_linearity(self, seed):
        rng, ds, raw = self._random_case(seed)
        other = rng.random(ds.num_models) + 1e-6
        alpha = float(rng.random())
        w1 = normalize(WeightVector(raw)).values
        w2 = normalize(WeightVector(other)).values
        blend = alpha * w1 + (1 - alpha) * w2
        left = fuse(ds, WeightVector(blend)).fused
        right = (alpha * fuse(ds, WeightVector(w1)).fused
                 + (1 - alpha) * fuse(ds, WeightVector(w2)).fused)
        np.testing.assert_allclose(left, right, rtol=0, atol=1e-12)

    @settings(max_examples=150)
    @given(st.integers(0, 2 ** 32 - 1), st.floats(1e-6, 1e6))
    def test_scale_invariance_of_predictions(self, seed, scale):
        _, ds, raw = self._random_case(seed)
        base = predict(fuse(ds, normalize(WeightVector(raw))))
        scaled = predict(fuse(ds, normalize(WeightVector(scale * raw))))
        np.testing.assert_array_equal(base.predicted, scaled.predicted)


def _two_model_single_row(row1, row2):
    from fusionopt.scoreio import LabelVector, ScoreMatrix, align

    m1 = ScoreMatrix("m1", ("s1",), np.array([row1]))
    m2 = ScoreMatrix("m2", ("s1",), np.array([row2]))
    return align([m1, m2], LabelVector(("s1",), np.array([0])))


def _three_class_single_row(row):
    from fusionopt.scoreio import LabelVector, ScoreMatrix, align

    m = ScoreMatrix("m", ("s1",), np.array([row]))
    return align([m], LabelVector(("s1",), np.array([0])))
