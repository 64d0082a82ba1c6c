import math

import numpy as np
import pytest

from volseg.metrics import (
    dice_loss,
    dice_loss_grad,
    dsc,
    dsc_agg,
    evaluate_set,
    precision,
    recall,
)
from volseg.volume import LabelMask

from oracles import dice_loss_float64, overlap_counts


def random_pair(rng, dims=(6, 6, 6), p=0.3):
    return (rng.random(dims) < p), (rng.random(dims) < p)


def one_hot(labels, n_classes=3):
    out = np.zeros((labels.shape[0], n_classes, *labels.shape[1:]), np.float64)
    for c in range(n_classes):
        out[:, c] = labels == c
    return out


class TestDsc:
    def test_perfect_overlap(self):
        m = np.array([1, 0, 1, 1], bool)
        assert dsc(m, m) == 1.0

    def test_disjoint_masks(self):
        assert dsc(np.array([1, 1, 0, 0]), np.array([0, 0, 1, 1])) == 0.0

    def test_half_overlap_hand_count(self):
        assert dsc(np.array([1, 1, 0, 0]), np.array([1, 0, 1, 0])) == 0.5

    def test_empty_conventions(self):
        empty = np.zeros(4, bool)
        some = np.array([1, 0, 0, 0], bool)
        assert dsc(empty, empty) == 1.0
        assert dsc(empty, some) == 0.0
        assert dsc(some, empty) == 0.0

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValueError):
            dsc(np.zeros((2, 2)), np.zeros((2, 3)))

    def test_matches_counting_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            t, p = random_pair(rng)
            tp, n_t, n_p = overlap_counts(t, p)
            expected = 1.0 if n_t + n_p == 0 else 2.0 * tp / (n_t + n_p)
            assert abs(dsc(t, p) - expected) < 1e-9


class TestDscAgg:
    def test_single_pair_reduces_to_dsc(self):
        rng = np.random.default_rng(1)
        t, p = random_pair(rng)
        assert dsc_agg([(t, p)]) == dsc(t, p)

    def test_pooled_hand_count(self):
        # pooled counts: intersection 1, truth 1, prediction 3 -> 2/4
        pair_a = (np.array([1, 0]), np.array([1, 1]))
        pair_b = (np.array([0, 0]), np.array([1, 0]))
        assert dsc_agg([pair_a, pair_b]) == 0.5

    def test_false_positives_on_empty_truth_lower_the_score(self):
        perfect = (np.array([1, 0]), np.array([1, 0]))
        fp_on_empty = (np.zeros(2, int), np.array([1, 1]))
        assert dsc_agg([perfect, fp_on_empty]) < dsc_agg([perfect])

    def test_permutation_invariant(self):
        rng = np.random.default_rng(2)
        pairs = [random_pair(rng) for _ in range(6)]
        assert dsc_agg(pairs) == dsc_agg(pairs[::-1])

    def test_concatenation_additivity(self):
        rng = np.random.default_rng(3)
        pairs = [random_pair(rng) for _ in range(4)]
        merged_t = np.concatenate([t.ravel() for t, _ in pairs])
        merged_p = np.concatenate([p.ravel() for _, p in pairs])
        assert dsc_agg(pairs) == dsc_agg([(merged_t, merged_p)])

    def test_all_empty_returns_one(self):
        empty = np.zeros(3, bool)
        assert dsc_agg([(empty, empty), (empty, empty)]) == 1.0

    def test_matches_counting_oracle(self):
        rng = np.random.default_rng(4)
        pairs = [random_pair(rng) for _ in range(5)]
        tp = sum(overlap_counts(t, p)[0] for t, p in pairs)
        denom = sum(overlap_counts(t, p)[1] + overlap_counts(t, p)[2] for t, p in pairs)
        assert abs(dsc_agg(pairs) - 2.0 * tp / denom) < 1e-9


class TestPrecisionRecall:
    def test_perfect_prediction(self):
        m = np.array([1, 1, 0, 0], bool)
        assert precision(m, m) == 1.0
        assert recall(m, m) == 1.0

    def test_superset_prediction(self):
        truth = np.array([1, 1, 0, 0], bool)
        pred = np.array([1, 1, 1, 1], bool)
        assert precision(truth, pred) == 0.5
        assert recall(truth, pred) == 1.0

    def test_empty_prediction_flags(self):
        truth = np.array([1, 0], bool)
        pred = np.zeros(2, bool)
        assert math.isnan(precision(truth, pred))
        assert recall(truth, pred) == 0.0

    def test_empty_truth_flags(self):
        truth = np.zeros(2, bool)
        pred = np.array([1, 0], bool)
        assert math.isnan(recall(truth, pred))
        assert precision(truth, pred) == 0.0


class TestDiceLoss:
    def test_zero_at_exact_prediction(self):
        rng = np.random.default_rng(5)
        labels = rng.integers(0, 3, size=(2, 2, 2, 2))
        onehot = one_hot(labels)
        assert dice_loss(onehot, onehot) == pytest.approx(0.0, abs=1e-12)

    def test_absent_class_excluded_from_average(self):
        labels = np.zeros((1, 2, 2, 2), np.int64)
        labels[0, 0] = 1  # classes 0 and 1 present, class 2 absent
        onehot = one_hot(labels)
        probs = np.full_like(onehot, 1.0 / 3.0)
        # per present class: 1 - 2 * (n_c/3) / (n_c + 8/3)
        n0, n1 = 4.0, 4.0
        l0 = 1.0 - 2.0 * (n0 / 3.0) / (n0 + 8.0 / 3.0)
        l1 = 1.0 - 2.0 * (n1 / 3.0) / (n1 + 8.0 / 3.0)
        assert dice_loss(onehot, probs) == pytest.approx((l0 + l1) / 2.0, abs=1e-12)

    def test_tiny_batch_hand_evaluation(self):
        # one case, two voxels: voxel 1 is class 0, voxel 2 is class 1
        truth = np.zeros((1, 3, 1, 1, 2))
        truth[0, 0, 0, 0, 0] = 1.0
        truth[0, 1, 0, 0, 1] = 1.0
        probs = np.zeros((1, 3, 1, 1, 2))
        probs[0, :, 0, 0, 0] = (0.7, 0.2, 0.1)
        probs[0, :, 0, 0, 1] = (0.2, 0.5, 0.3)
        loss_c0 = 1.0 - 2.0 * 0.7 / (1.0 + 0.9)
        loss_c1 = 1.0 - 2.0 * 0.5 / (1.0 + 0.7)
        expected = (loss_c0 + loss_c1) / 2.0
        assert dice_loss(truth, probs) == pytest.approx(expected, abs=1e-7)

    def test_loss_bounded(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            labels = rng.integers(0, 3, size=(1, 2, 2, 2))
            onehot = one_hot(labels)
            raw = rng.random((1, 3, 2, 2, 2))
            probs = raw / raw.sum(axis=1, keepdims=True)
            assert 0.0 <= dice_loss(onehot, probs) <= 1.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            dice_loss(np.zeros((1, 3, 2, 2, 2)), np.zeros((1, 3, 2, 2, 3)))


class TestDiceLossGrad:
    def test_matches_central_finite_differences(self):
        rng = np.random.default_rng(7)
        h = 1e-4
        for _ in range(10):
            labels = rng.integers(0, 3, size=(1, 2, 2, 2))
            onehot = one_hot(labels)
            raw = rng.random((1, 3, 2, 2, 2)) + 0.1
            probs = raw / raw.sum(axis=1, keepdims=True)
            grad = dice_loss_grad(onehot, probs)
            for idx in np.ndindex(probs.shape):
                plus = probs.copy()
                plus[idx] += h
                minus = probs.copy()
                minus[idx] -= h
                fd = (dice_loss(onehot, plus) - dice_loss(onehot, minus)) / (2 * h)
                scale = max(abs(fd), abs(grad[idx]), 1e-8)
                assert abs(grad[idx] - fd) / scale < 1e-3

    def test_closed_form_at_exact_prediction(self):
        rng = np.random.default_rng(8)
        labels = rng.integers(0, 2, size=(1, 2, 2, 2))  # classes 0 and 1 present
        onehot = one_hot(labels)
        grad = dice_loss_grad(onehot, onehot)
        n_present = 2
        for c in range(2):
            s = onehot[:, c].sum()
            d = 2 * s
            expected = -2.0 * (s + s - s) / d**2 / n_present
            truth_voxels = onehot[:, c] == 1.0
            np.testing.assert_allclose(grad[:, c][truth_voxels], expected, atol=1e-12)

    def test_absent_class_gradient_is_zero(self):
        labels = np.zeros((1, 2, 2, 2), np.int64)  # only background present
        onehot = one_hot(labels)
        probs = np.full((1, 3, 2, 2, 2), 1.0 / 3.0)
        grad = dice_loss_grad(onehot, probs)
        assert (grad[:, 1] == 0.0).all()
        assert (grad[:, 2] == 0.0).all()
        assert (grad[:, 0] != 0.0).any()


    def test_float32_input_matches_float64_oracle(self):
        rng = np.random.default_rng(9)
        labels = rng.integers(0, 2, size=(2, 6, 5, 4))  # class 2 absent
        truth = one_hot(labels).astype(np.float32)
        raw = rng.random((2, 3, 6, 5, 4)) + 0.05
        prob = (raw / raw.sum(axis=1, keepdims=True)).astype(np.float32)
        ref_loss, ref_grad = dice_loss_float64(truth.astype(np.float64), prob.astype(np.float64))
        assert abs(dice_loss(truth, prob) - ref_loss) < 1e-12
        grad = dice_loss_grad(truth, prob)
        assert grad.dtype == np.float64
        np.testing.assert_allclose(grad, ref_grad, rtol=0, atol=1e-12)
        assert not grad[:, 2].any()
        # float64 input is used as it is
        np.testing.assert_allclose(dice_loss_grad(truth.astype(np.float64), prob.astype(np.float64)),
                                   ref_grad, rtol=0, atol=1e-12)


class TestEvaluateSet:
    def masks(self, rng, n=3, dims=(6, 6, 6)):
        return [LabelMask(rng.integers(0, 3, size=dims).astype(np.uint8), (1, 1, 1)) for _ in range(n)]

    def test_perfect_predictions(self):
        rng = np.random.default_rng(9)
        truths = self.masks(rng)
        result = evaluate_set(truths, truths)
        assert result.per_class_agg[1] == 1.0
        assert result.per_class_agg[2] == 1.0
        assert result.mean_agg == 1.0

    def test_matches_brute_force_counts(self):
        rng = np.random.default_rng(10)
        truths = self.masks(rng, n=5)
        preds = self.masks(rng, n=5)
        result = evaluate_set(truths, preds)
        for c in (1, 2):
            tp = n_t = n_p = 0
            for t, p in zip(truths, preds):
                a, b, cnt = overlap_counts(t.labels == c, p.labels == c)
                tp += a
                n_t += b
                n_p += cnt
            assert abs(result.per_class_agg[c] - 2.0 * tp / (n_t + n_p)) < 1e-9
        assert result.mean_agg == pytest.approx(
            (result.per_class_agg[1] + result.per_class_agg[2]) / 2.0, abs=1e-12
        )

    def test_every_record_matches_brute_force_counts(self):
        rng = np.random.default_rng(13)
        truths = self.masks(rng, n=4, dims=(5, 4, 3))
        preds = self.masks(rng, n=4, dims=(5, 4, 3))
        truths[1] = LabelMask(np.zeros((5, 4, 3), np.uint8))      # empty truth: recall NaN
        preds[2] = LabelMask(np.ones((5, 4, 3), np.uint8))        # no class 2: precision NaN
        result = evaluate_set(truths, preds, ids=list("abcd"))
        by_key = {(r.patient_id, r.class_id): r for r in result.records}
        for pid, t, p in zip("abcd", truths, preds):
            for c in (1, 2):
                tp, n_t, n_p = overlap_counts(t.labels == c, p.labels == c)
                rec = by_key[(pid, c)]
                assert rec.dsc == (2.0 * tp / (n_t + n_p) if n_t + n_p else 1.0)
                assert rec.precision == tp / n_p if n_p else np.isnan(rec.precision)
                assert rec.recall == tp / n_t if n_t else np.isnan(rec.recall)
                assert rec.truth_empty == (n_t == 0)
        # raw label arrays count as their masks do
        raw = evaluate_set([t.labels for t in truths], [p.labels.astype(np.int64) for p in preds],
                           ids=list("abcd"))
        assert repr(raw) == repr(result)

    def test_shape_mismatch_rejected(self):
        truth = self.masks(np.random.default_rng(14), n=1)[0]
        with pytest.raises(ValueError, match="shapes differ"):
            evaluate_set([truth], [np.zeros((6, 6, 5), np.uint8)])

    def test_records_cover_every_case_and_class(self):
        rng = np.random.default_rng(11)
        truths = self.masks(rng, n=4)
        preds = self.masks(rng, n=4)
        result = evaluate_set(truths, preds, ids=list("abcd"))
        assert len(result.records) == 8
        assert {r.patient_id for r in result.records} == set("abcd")
        assert {r.class_id for r in result.records} == {1, 2}

    def test_misaligned_lists_rejected(self):
        rng = np.random.default_rng(12)
        with pytest.raises(ValueError):
            evaluate_set(self.masks(rng, n=2), self.masks(rng, n=3))
