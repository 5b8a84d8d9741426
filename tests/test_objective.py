import functools
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fusionopt.errors import ConfigError, DataError, InvalidWeightsError
from fusionopt.fusion import (
    Predictions, WeightVector, combine, exact_simplex, fuse, normalize, predict,
)
from fusionopt import objective
from fusionopt.objective import (
    ConfusionCounts,
    confusion,
    cumulative_accuracy,
    cumulative_error,
    f1_score,
    make_objective,
    metrics,
)
from fusionopt.scoreio import LabelVector, ScoreMatrix, align

from synthdata import hand_dataset, random_dataset


class TestCumulativeAccuracy:
    def test_perfect_single_model(self):
        from fusionopt.scoreio import ScoreMatrix, align

        m = ScoreMatrix("m", ("a", "b"), np.array([[0.9, 0.1], [0.2, 0.8]]))
        ds = align([m], LabelVector(("a", "b"), np.array([0, 1])))
        assert cumulative_accuracy(ds, WeightVector(np.array([1.0]))) == 1.0

    def test_hand_enumerated_one_hot(self):
        # Oracle: m1 is right on s1, s2, s3 and wrong on s4 -> 3/4.
        ds = hand_dataset()
        assert cumulative_accuracy(ds, WeightVector(np.array([1.0, 0.0]))) == 0.75

    def test_hand_enumerated_score_mass(self):
        # Oracle, averaging the fused true-class probability row by row:
        # s1: .55  s2: .45  s3: .75  s4: .45  -> mean 0.55
        ds = hand_dataset()
        value = cumulative_accuracy(
            ds, WeightVector(np.array([0.5, 0.5])), "score_mass")
        assert value == pytest.approx(0.55, abs=1e-12)

    def test_error_is_one_minus_accuracy(self):
        ds = hand_dataset()
        w = WeightVector(np.array([1.0, 0.0]))
        assert cumulative_error(ds, w) == 0.25
        perfect = random_dataset(np.random.default_rng(0), n_models=1, n_samples=5)
        a = cumulative_accuracy(perfect, WeightVector(np.array([1.0])))
        assert cumulative_error(perfect, WeightVector(np.array([1.0]))) == 1.0 - a

    def test_all_zero_weights_propagate_error(self):
        ds = hand_dataset()
        with pytest.raises(InvalidWeightsError):
            cumulative_error(ds, WeightVector(np.array([0.0, 0.0])))

    def test_requires_validation_split(self):
        ds = random_dataset(np.random.default_rng(1), split="test")
        with pytest.raises(DataError, match="validation"):
            cumulative_accuracy(ds, WeightVector(np.array([1.0, 1.0, 1.0])))

    @pytest.mark.parametrize("values", [[1.0], [0.5, 0.5], [1.0, 1.0, 1.0, 1.0]])
    def test_rejects_wrong_number_of_weights(self, values):
        ds = random_dataset(np.random.default_rng(3), n_models=3)
        message = f"got {len(values)} weights for 3 models"
        with pytest.raises(InvalidWeightsError, match=message):
            cumulative_accuracy(ds, WeightVector(np.array(values)))
        with pytest.raises(InvalidWeightsError, match=message):
            make_objective(ds)(np.array(values))

    @pytest.mark.parametrize("variant", ["fused_accuracy", "score_mass"])
    def test_weights_whose_sum_overflows_are_invalid(self, variant):
        with pytest.raises(InvalidWeightsError,
                           match=r"^cannot normalize vector: its sum overflows float64$"):
            make_objective(hand_dataset(), variant)(np.array([1e308, 1e308]))

    def test_unknown_variant(self):
        ds = hand_dataset()
        with pytest.raises(ConfigError, match="variant"):
            cumulative_accuracy(ds, WeightVector(np.array([1.0, 0.0])), "exotic")

    @settings(max_examples=100)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_matches_fuse_predict_composition(self, seed):
        rng = np.random.default_rng(seed)
        ds = random_dataset(rng, n_models=int(rng.integers(1, 4)),
                            n_samples=int(rng.integers(1, 30)))
        raw = rng.random(ds.num_models) + 1e-6
        w = WeightVector(raw)
        via_ops = float(np.mean(
            predict(fuse(ds, normalize(w))).predicted == ds.y))
        assert cumulative_accuracy(ds, w) == via_ops

    @settings(max_examples=200)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 4), st.integers(2, 4),
           st.sampled_from([2, 4, 8]))
    def test_tie_rule_matches_fuse_predict(self, seed, n_models, n_classes, q):
        # Rows are integer compositions of q over q, so many fused rows hold
        # exact ties, which the argmax rule breaks toward the lowest class.
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 40))
        ids = tuple(f"s{i}" for i in range(n))
        matrices = []
        for m in range(n_models):
            cuts = np.sort(rng.integers(0, q + 1, (n, n_classes - 1)), axis=1)
            counts = np.diff(cuts, prepend=0, append=q)
            matrices.append(ScoreMatrix(f"m{m}", ids, counts / q))
        ds = align(matrices, LabelVector(ids, rng.integers(0, n_classes, n)))
        raw = rng.integers(0, 4, n_models).astype(np.float64)
        raw[int(rng.integers(n_models))] += 1.0
        w = WeightVector(raw)
        fused = fuse(ds, normalize(w))
        assert cumulative_accuracy(ds, w) == float(np.mean(predict(fused).predicted == ds.y))
        assert cumulative_accuracy(ds, w, "score_mass") == float(
            fused.fused[np.arange(n), ds.y].mean())

    @settings(max_examples=100)
    @given(st.integers(0, 2 ** 32 - 1), st.floats(1e-6, 1e6))
    def test_fused_accuracy_scale_invariant(self, seed, scale):
        rng = np.random.default_rng(seed)
        ds = random_dataset(rng, n_models=3, n_samples=20)
        raw = rng.random(3) + 1e-6
        assert cumulative_accuracy(ds, WeightVector(raw)) == cumulative_accuracy(
            ds, WeightVector(scale * raw))

    @settings(max_examples=200)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_error_accuracy_identity(self, seed):
        rng = np.random.default_rng(seed)
        ds = random_dataset(rng, n_models=int(rng.integers(1, 4)),
                            n_samples=int(rng.integers(1, 25)),
                            n_classes=int(rng.integers(2, 4)))
        raw = rng.random(ds.num_models) + 1e-6
        for variant in ("fused_accuracy", "score_mass"):
            a = cumulative_accuracy(ds, WeightVector(raw), variant)
            e = cumulative_error(ds, WeightVector(raw), variant)
            assert abs(e + a - 1.0) <= 1e-15
            # The objective is the scorer that both functions call, bit for bit.
            scorer = make_objective(ds, variant)
            assert type(scorer) is objective._Scorer
            assert scorer(raw) == e and scorer.accuracy(raw) == a


TINY = np.nextafter(0.0, 1.0)  # the smallest subnormal


def tied_dataset(seed, n_models, n_classes, n=60):
    """Rows where two classes tie exactly at the top, beside subnormal entries.

    Every model ties the same two classes of a sample, so each fused row
    keeps the tie, and the label sits on the lower tied class, on the higher
    one, or on a class holding 0.0 or a subnormal. The other entries are
    dyadic, so each row's exact sum rounds to 1.0 and loads unchanged.
    """
    rng = np.random.default_rng(seed)
    ids = tuple(f"s{i:03d}" for i in range(n))
    order = np.array([rng.permutation(n_classes) for _ in range(n)])
    tied, small, rest = np.sort(order[:, :2], axis=1), order[:, 2], order[:, 3:]
    every = np.arange(n)
    matrices = []
    for m in range(n_models):
        rows = np.zeros((n, n_classes))
        top = rng.choice([0.375, 0.4375, 0.5], n) if rest.size else np.full(n, 0.5)
        rows[every, tied[:, 0]] = top
        rows[every, tied[:, 1]] = top
        rows[every, small] = rng.choice([TINY, 3 * TINY, 0.0], n)
        if rest.size:
            rows[every, rest[:, 0]] = 1.0 - 2.0 * top
        matrices.append(ScoreMatrix(f"m{m}", ids, rows))
    pick = rng.integers(0, 3, n)
    labels = np.where(pick == 0, tied[:, 0], np.where(pick == 1, tied[:, 1], small))
    return align(matrices, LabelVector(ids, labels))


class TestTrueClassFirstKernel:
    """The objective's layout against the plain ``predict(fuse(...))`` composition."""

    @pytest.mark.parametrize("n_classes", [3, 4])
    @pytest.mark.parametrize("seed", range(5))
    def test_exact_ties_and_subnormals_match_fuse_predict(self, seed, n_classes):
        ds = tied_dataset(seed, 3, n_classes)
        rng = np.random.default_rng(seed)
        assert (ds.stack == TINY).any()
        for raw in (rng.random(3) + 1e-3, np.array([0.0, 2.0, 1.0]), np.ones(3)):
            fused = fuse(ds, normalize(WeightVector(raw)))
            top_two = np.sort(fused.fused, axis=1)[:, -2:]
            assert (top_two[:, 0] == top_two[:, 1]).all()
            right = predict(fused).predicted == ds.y
            assert 0 < np.count_nonzero(right) < ds.num_samples
            assert make_objective(ds)(raw) == 1.0 - float(np.mean(right))
            assert make_objective(ds, "score_mass")(raw) == 1.0 - float(
                fused.fused[np.arange(ds.num_samples), ds.y].mean())

    @pytest.mark.parametrize("n_classes", [3, 4])
    def test_tie_with_a_higher_class_is_right_and_with_a_lower_one_wrong(self, n_classes):
        row = np.array([[0.4, 0.4, 0.2] + [0.0] * (n_classes - 3)])
        for label, error in ((0, 0.0), (1, 1.0)):
            ds = align([ScoreMatrix("m", ("s",), row)], LabelVector(("s",), np.array([label])))
            assert make_objective(ds)(np.ones(1)) == error

    @pytest.mark.parametrize("n_classes", [3, 4])
    @pytest.mark.parametrize("seed", range(5))
    def test_subnormal_margins_keep_their_sign(self, seed, n_classes):
        # Scores a few subnormals apart, so every decision rests on a margin
        # that gradual underflow must keep. The oracle is the argmax rule.
        rng = np.random.default_rng(seed)
        n, n_models = 200, 3
        stack = rng.integers(0, 4, (n_models, n, n_classes)) * TINY
        y = rng.integers(0, n_classes, n)
        data = SimpleNamespace(split="validation", stack=stack, y=y, num_classes=n_classes)
        raw = np.array([1.0, 0.0, 0.0]) if seed == 0 else rng.random(n_models) + 1e-3
        fused = combine(exact_simplex(raw), stack)
        right = np.argmax(fused, axis=1) == y
        assert 0 < np.count_nonzero(right) < n
        assert make_objective(data)(raw) == 1.0 - float(np.mean(right))

    @settings(max_examples=100)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(-60, 60),
           st.sampled_from(["fused_accuracy", "score_mass"]))
    def test_power_of_two_scaling_is_bit_identical(self, seed, k, variant):
        rng = np.random.default_rng(seed)
        ds = random_dataset(rng, n_models=int(rng.integers(1, 5)),
                            n_samples=int(rng.integers(1, 30)),
                            n_classes=int(rng.integers(2, 5)))
        raw = rng.random(ds.num_models) + 1e-6
        objective = make_objective(ds, variant)
        assert objective(np.ldexp(raw, k)) == objective(raw)


def float64_oracle(data, raw):
    """The argmax rule on the float64 fusion, ties going to the lowest class."""
    fused = combine(exact_simplex(raw), data.stack)
    return 1.0 - float(np.mean(np.argmax(fused, axis=1) == data.y))


def float64_margins(data, weights):
    """Each rival's float64 fused score minus the true class's, shaped (K-1, N).

    Rivals come in ascending class order, as in the scorer's margin table.
    """
    fused = combine(weights, data.stack)
    samples, rival = np.arange(len(data.y)), np.arange(data.num_classes - 1)[:, None]
    return fused[samples, rival + (rival >= data.y)] - fused[samples, data.y]


def counted_combine(monkeypatch):
    """Patch the objective's ``combine`` to record the dtype and samples of each call."""
    seen = []

    def counting(weights, stack):
        seen.append((stack.dtype, stack.shape[1]))
        return combine(weights, stack)

    monkeypatch.setattr(objective, "combine", counting)
    return seen


class TestFloat32Screen:
    """The float32 screen with its float64 re-check against the float64 rule."""

    @settings(max_examples=200)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 8), st.integers(2, 5))
    def test_matches_float64_oracle(self, seed, n_models, n_classes):
        # Quarter-grid scores give exact ties; offsets of 2**-30, which
        # float32 rounds away, give near ties; some rows are subnormal.
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 60))
        stack = rng.integers(0, 5, (n_models, n, n_classes)) / 4.0
        inner = (stack > 0.0) & (stack < 1.0)
        stack += rng.integers(-1, 2, stack.shape) * 2.0 ** -30 * inner
        tiny = rng.random(n) < 0.2
        stack[:, tiny] = rng.integers(0, 4, (n_models, int(tiny.sum()), n_classes)) * TINY
        y = rng.integers(0, n_classes, n)
        data = SimpleNamespace(split="validation", stack=stack, y=y, num_classes=n_classes)
        raw = rng.integers(0, 4, n_models) * (rng.random(n_models) if seed % 2 else 1.0)
        raw[int(rng.integers(n_models))] += 1.0
        assert make_objective(data)(raw) == float64_oracle(data, raw)

    @pytest.mark.parametrize("offset", [2.0 ** -30, -2.0 ** -30, 2.0 ** -26, -2.0 ** -26])
    @pytest.mark.parametrize("rival", [0, 2])
    def test_near_tie_reaches_the_float64_check_on_one_sample(self, monkeypatch, rival,
                                                              offset):
        # The rival sits a few float32 ulps or less off the true class 1, so
        # its margin lies inside +/-delta; the other two samples are far
        # from a tie.
        near = [0.0, 0.375, 0.0]
        near[rival], near[2 - rival] = 0.375 + offset, 0.25 - offset
        ids = ("s0", "s1", "s2")
        rows = np.array([near, [0.8, 0.1, 0.1], [0.1, 0.1, 0.8]])
        ds = align([ScoreMatrix("m", ids, rows)], LabelVector(ids, np.array([1, 0, 1])))
        scorer = objective._Scorer(ds, "fused_accuracy")
        margins = scorer._margins.reshape(2, 3)
        assert margins[rival // 2, 0] == np.float32(offset)
        assert 0.0 < abs(offset) <= scorer._delta
        seen = counted_combine(monkeypatch)
        error = make_objective(ds)(np.ones(1))
        assert error == float64_oracle(ds, np.ones(1)) == 1.0 - (1 if offset > 0 else 2) / 3
        assert seen == [(np.float64, 1)]

    def test_separated_samples_make_no_float64_fusion(self, monkeypatch):
        ds = hand_dataset()
        seen = counted_combine(monkeypatch)
        score = make_objective(ds)
        for raw in (np.array([1.0, 0.0]), np.array([0.5, 0.5]), np.array([0.3, 0.9])):
            assert score(raw) == float64_oracle(ds, raw)
        assert seen == []

    @pytest.mark.parametrize("n_models", [1, 4, 8])
    def test_margin_table_margins_stay_within_delta(self, n_models):
        rng = np.random.default_rng(n_models)
        n, n_classes = 5000, 3
        data = SimpleNamespace(split="validation", stack=rng.random((n_models, n, n_classes)),
                               y=rng.integers(0, n_classes, n), num_classes=n_classes)
        scorer = objective._Scorer(data, "fused_accuracy")
        assert scorer._margins.shape == (n_models, (n_classes - 1) * n)
        delta = scorer._delta
        assert 0.0 < delta < (2 * n_models + 9) * 2.0 ** -24
        for _ in range(20):
            weights = exact_simplex(rng.random(n_models) + 1e-3)
            screen = (weights.astype(np.float32) @ scorer._margins).reshape(n_classes - 1, n)
            assert np.abs(screen - float64_margins(data, weights)).max() <= delta

    @pytest.mark.parametrize("n_models", [2, 5, 8])
    def test_any_summation_order_stays_within_delta(self, n_models):
        # BLAS may add the products in any order; the proof of delta does
        # not depend on it. Reversed model order and a pairwise tree, each
        # addition rounded to float32, stand in for two such orders.
        rng = np.random.default_rng(10 + n_models)
        n, n_classes = 3000, 4
        data = SimpleNamespace(split="validation", stack=rng.random((n_models, n, n_classes)),
                               y=rng.integers(0, n_classes, n), num_classes=n_classes)
        scorer = objective._Scorer(data, "fused_accuracy")

        def pairwise(rows):
            if len(rows) == 1:
                return rows[0]
            half = len(rows) // 2
            return pairwise(rows[:half]) + pairwise(rows[half:])

        for _ in range(10):
            weights = exact_simplex(rng.random(n_models) + 1e-3)
            products = weights.astype(np.float32)[:, None] * scorer._margins
            assert products.dtype == np.float32
            exact = float64_margins(data, weights)
            for screen in (functools.reduce(np.add, products[::-1]), pairwise(products)):
                screen = screen.reshape(n_classes - 1, n)
                assert np.abs(screen - exact).max() <= scorer._delta
                assert np.abs(screen.max(axis=0) - exact.max(axis=0)).max() <= scorer._delta

    def test_fused_accuracy_holds_only_the_read_only_margin_table(self):
        # Beside the dataset's stack and labels, one float32 margin per model,
        # rival and sample; the true-class scores only build it.
        n_models, n_classes = 3, 4
        ds = tied_dataset(0, n_models, n_classes)
        scorer = make_objective(ds, "fused_accuracy")
        assert scorer._stack is ds.stack and scorer._y is ds.y
        tables = held_tables(scorer, ds)
        assert [table.shape for table in tables] == [(n_models, (n_classes - 1) * ds.num_samples)]
        assert tables[0].nbytes == n_models * (n_classes - 1) * ds.num_samples * 4
        # In C order the screen is one plain sgemv over the margin table.
        assert tables[0].flags.c_contiguous
        assert_calls_leave_read_only_and_unchanged(scorer, [ds.stack, *tables])
        freed = weakref.ref(scorer)
        del scorer  # no reference cycle keeps the scorer, and so its tables, alive
        assert freed() is None

    def test_score_mass_holds_only_the_read_only_true_class_table(self):
        n_models, n_classes = 3, 4
        ds = tied_dataset(0, n_models, n_classes)
        scorer = make_objective(ds, "score_mass")
        tables = held_tables(scorer, ds)
        assert [table.shape for table in tables] == [(n_models, 1, ds.num_samples)]
        assert not any(v is ds.stack or v is ds.y for v in vars(scorer).values())
        assert tables[0].flags.c_contiguous
        assert_calls_leave_read_only_and_unchanged(scorer, [ds.stack, *tables])
        freed = weakref.ref(scorer)
        del scorer  # no reference cycle keeps the scorer, and so its tables, alive
        assert freed() is None


def held_tables(scorer, ds):
    """Every array a scorer holds other than the dataset's stack and labels."""
    return [v for v in vars(scorer).values()
            if isinstance(v, np.ndarray) and v is not ds.stack and v is not ds.y]


def assert_calls_leave_read_only_and_unchanged(scorer, tables):
    before = [table.copy() for table in tables]
    for raw in (np.ones(3), np.array([0.0, 2.0, 1.0]), np.array([0.2, 0.7, 0.1])):
        scorer(raw)
        scorer.accuracy(raw)
    for table, copy in zip(tables, before):
        assert not table.flags.writeable
        assert np.array_equal(table, copy)


class TestConfusion:
    def test_perfect_predictions(self):
        ids = tuple("abcde")
        labels = LabelVector(ids, np.array([1, 1, 0, 0, 0]))
        pred = Predictions(ids, np.array([1, 1, 0, 0, 0]))
        c = confusion(pred, labels)
        assert (c.tp, c.fp, c.fn, c.tn) == (2, 0, 0, 3)

    def test_all_positive_predictions_on_negative_labels(self):
        ids = tuple("abcd")
        labels = LabelVector(ids, np.array([0, 0, 0, 0]))
        pred = Predictions(ids, np.array([1, 1, 1, 1]))
        c = confusion(pred, labels)
        assert (c.tp, c.fp, c.fn, c.tn) == (0, 4, 0, 0)

    def test_hand_counted_ten_samples(self):
        # Oracle (counted by hand): labels 4 positive / 6 negative;
        # predictions hit 3 of the positives and raise 1 false alarm.
        ids = tuple(f"s{i}" for i in range(10))
        labels = LabelVector(ids, np.array([1, 1, 1, 1, 0, 0, 0, 0, 0, 0]))
        pred = Predictions(ids, np.array([1, 1, 1, 0, 1, 0, 0, 0, 0, 0]))
        c = confusion(pred, labels)
        assert (c.tp, c.fp, c.fn, c.tn) == (3, 1, 1, 5)

    def test_id_mismatch(self):
        labels = LabelVector(("a", "b"), np.array([0, 1]))
        pred = Predictions(("b", "a"), np.array([0, 1]))
        with pytest.raises(DataError, match="aligned"):
            confusion(pred, labels)

    def test_total_equals_sample_count(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            n = int(rng.integers(1, 40))
            ids = tuple(f"s{i}" for i in range(n))
            labels = LabelVector(ids, rng.integers(0, 3, n))
            pred = Predictions(ids, rng.integers(0, 3, n))
            assert confusion(pred, labels).total == n


class TestMetrics:
    def test_hand_counts(self):
        report = metrics(ConfusionCounts(tp=3, fp=1, fn=1, tn=5))
        assert report.precision == 0.75
        assert report.recall == 0.75
        assert report.f1 == 0.75
        assert report.accuracy == 0.8

    def test_reference_row_consistency(self):
        # A published operating point at P=0.833, R=0.790 reports F1=0.811;
        # the harmonic mean reproduces it to three decimals.
        assert f1_score(0.833, 0.790) == pytest.approx(0.811, abs=5e-4)

    def test_zero_denominators_yield_zero(self):
        report = metrics(ConfusionCounts(tp=0, fp=0, fn=0, tn=4))
        assert (report.precision, report.recall, report.f1) == (0.0, 0.0, 0.0)
        assert report.accuracy == 1.0

    def test_zero_total_rejected(self):
        with pytest.raises(DataError, match="zero samples"):
            metrics(ConfusionCounts(tp=0, fp=0, fn=0, tn=0))

    def test_negative_count_rejected(self):
        with pytest.raises(DataError):
            ConfusionCounts(tp=-1, fp=0, fn=0, tn=1)

    @settings(max_examples=150)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_against_naive_pairwise_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 50))
        ids = tuple(f"s{i}" for i in range(n))
        y = rng.integers(0, 2, n)
        p = rng.integers(0, 2, n)
        # independent oracle: literal per-sample counting
        tp = fp = fn = tn = 0
        for yi, pi in zip(y, p):
            if pi == 1 and yi == 1:
                tp += 1
            elif pi == 1 and yi == 0:
                fp += 1
            elif pi == 0 and yi == 1:
                fn += 1
            else:
                tn += 1
        c = confusion(Predictions(ids, p), LabelVector(ids, y))
        assert (c.tp, c.fp, c.fn, c.tn) == (tp, fp, fn, tn)
        report = metrics(c)
        assert report.precision == (tp / (tp + fp) if tp + fp else 0.0)
        assert report.recall == (tp / (tp + fn) if tp + fn else 0.0)
        assert report.accuracy == (tp + tn) / n

    @settings(max_examples=150)
    @given(st.integers(0, 10 ** 6), st.integers(0, 10 ** 6),
           st.integers(0, 10 ** 6), st.integers(0, 10 ** 6))
    def test_metric_ranges_and_harmonic_bounds(self, tp, fp, fn, tn):
        if tp + fp + fn + tn == 0:
            return
        report = metrics(ConfusionCounts(tp=tp, fp=fp, fn=fn, tn=tn))
        for value in (report.precision, report.recall, report.f1, report.accuracy):
            assert 0.0 <= value <= 1.0
        if report.precision > 0 and report.recall > 0:
            assert report.f1 <= max(report.precision, report.recall) + 1e-15
            assert report.f1 >= min(report.precision, report.recall) - 1e-15


class TestScorerCallSequence:
    @pytest.mark.parametrize("n_classes", [2, 3, 5])
    def test_one_scorer_counts_each_vector_as_a_fresh_one_does(self, n_classes):
        # A call keeps nothing: not a buffer, not a count, not after it raised.
        rng = np.random.default_rng(50 + n_classes)
        datasets = [random_dataset(rng, n_models=3, n_samples=400, n_classes=n_classes)]
        if n_classes > 2:
            datasets.append(tied_dataset(60 + n_classes, 3, n_classes))
        vectors = np.concatenate([rng.random((30, 3)), np.eye(3), np.ones((1, 3)),
                                  rng.choice([0.0, 0.5, 1.0], (10, 3)) + np.eye(3)[[0]]])
        for ds in datasets:
            scorer = make_objective(ds)
            for i, raw in enumerate(vectors):
                if i % 4 == 0:
                    with pytest.raises(InvalidWeightsError):
                        scorer(np.array([1.0, -1.0, 1.0]) if i % 8 else np.ones(2))
                fresh = make_objective(ds)
                assert scorer.accuracy(raw) == fresh.accuracy(raw)
                assert scorer(raw) == fresh(raw)


class TestMakeObjective:
    def test_returns_error_of_raw_vector(self):
        ds = hand_dataset()
        objective = make_objective(ds)
        assert objective(np.array([1.0, 0.0])) == 0.25
        # any positive scaling of the raw vector scores identically
        assert objective(np.array([2.0, 0.0])) == 0.25

    def test_rejects_test_split(self):
        ds = random_dataset(np.random.default_rng(2), split="test")
        with pytest.raises(DataError, match="validation"):
            make_objective(ds)
