import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import adaptcl.verify
from adaptcl.errors import AdaptclError, BoundViolation
from adaptcl.metrics import (
    AccuracyMatrix,
    BoundReport,
    avg_incremental_accuracy,
    check_loss_threshold,
    check_markov_bound,
    check_stability_bound,
    check_unchanged,
    forgetting,
    last_accuracy,
    plasticity,
)
from adaptcl.numerics import l2_normalize, make_rng
from adaptcl.verify import BLOCK_FLOATS, verify_lemma1, verify_lemma2

LOG2 = math.log(2.0)


def _matrix(rows):
    return AccuracyMatrix([list(r) for r in rows])


class TestAccuracyMetrics:
    def test_la_single(self):
        assert last_accuracy(_matrix([[0.9]])) == 0.9

    def test_la_and_aia_three_tasks(self):
        # stage means A_b = (0.5, 0.7, 0.6)
        m = _matrix([[0.5], [0.8, 0.6], [0.7, 0.6, 0.5]])
        assert last_accuracy(m) == pytest.approx(0.6)
        assert avg_incremental_accuracy(m) == pytest.approx(0.6)

    def test_uniform_matrix(self):
        m = _matrix([[0.4], [0.4, 0.4], [0.4, 0.4, 0.4]])
        assert last_accuracy(m) == pytest.approx(0.4)
        assert avg_incremental_accuracy(m) == pytest.approx(0.4)
        assert plasticity(m) == pytest.approx(0.4)

    def test_incomplete(self):
        m = AccuracyMatrix([[0.5]], expected_tasks=3)
        with pytest.raises(AdaptclError, match="matrix has 1 of 3 rows"):
            last_accuracy(m)

    def test_forgetting_basic(self):
        assert forgetting(_matrix([[0.9], [0.8, 0.7]])) == pytest.approx(0.1)

    def test_forgetting_negative(self):
        assert forgetting(_matrix([[0.9], [0.95, 0.7]])) == pytest.approx(-0.05)

    def test_forgetting_single_task(self):
        with pytest.raises(AdaptclError, match="forgetting needs K >= 2"):
            forgetting(_matrix([[0.9]]))

    def test_forgetting_brute_force(self):
        rng = make_rng(1)
        rows = [[float(rng.uniform()) for _ in range(b + 1)] for b in range(3)]
        m = _matrix(rows)
        expected = np.mean(
            [
                max(rows[b][j] for b in range(j, 2)) - rows[2][j]
                for j in range(2)
            ]
        )
        assert forgetting(m) == pytest.approx(expected)

    def test_plasticity_monotone_decreasing(self):
        m = _matrix([[0.9], [0.8, 0.7], [0.7, 0.6, 0.5]])
        assert plasticity(m) == pytest.approx(np.mean([0.9, 0.7, 0.5]))

    def test_plasticity_single(self):
        assert plasticity(_matrix([[0.42]])) == 0.42

    def test_plasticity_brute_force(self):
        rng = make_rng(2)
        rows = [[float(rng.uniform()) for _ in range(b + 1)] for b in range(4)]
        m = _matrix(rows)
        expected = np.mean(
            [max(rows[b][j] for b in range(j, 4)) for j in range(4)]
        )
        assert plasticity(m) == pytest.approx(expected)

    def test_aia_between_stage_extremes(self):
        rng = make_rng(3)
        for _ in range(20):
            rows = [[float(rng.uniform()) for _ in range(b + 1)] for b in range(4)]
            m = _matrix(rows)
            stages = m.stage_accuracies()
            assert min(stages) <= avg_incremental_accuracy(m) <= max(stages)


class TestMarkovBound:
    def test_all_correct(self):
        r = check_markov_bound([0.01] * 10, [True] * 10)
        assert r.lhs == 0.0
        assert r.rhs == pytest.approx(0.01 / LOG2)
        assert r.passed

    def test_one_wrong_with_threshold_loss(self):
        losses = [0.0] * 9 + [LOG2]
        r = check_markov_bound(losses, [True] * 9 + [False])
        assert r.passed

    def test_length_mismatch(self):
        with pytest.raises(AdaptclError, match=r"\(1,\) vs \(2,\)"):
            check_markov_bound([0.1], [True, False])


class TestLossThreshold:
    def test_nothing_misclassified(self):
        r = check_loss_threshold([0.01, 0.0], [False, False])
        assert (r.lhs, r.rhs) == (LOG2, math.inf)
        assert r.passed

    def test_rhs_is_smallest_misclassified_loss(self):
        r = check_loss_threshold([0.01, 2.0, 0.9], [False, True, True])
        assert r.rhs == 0.9
        assert r.slack == pytest.approx(0.9 - LOG2)

    def test_verdict_at_the_tolerance(self):
        # the verdict of the mask test losses < log 2 - 1e-12
        at = LOG2 - 1e-12
        assert check_loss_threshold([at], [True]).passed
        below = check_loss_threshold([np.nextafter(at, 0.0)], [True])
        assert not below.passed
        assert type(below.rhs) is float


class TestRequire:
    def test_passing_report_returns(self):
        BoundReport("markov", 0.5, 0.5, tolerance=0.0).require("epoch 1")

    def test_failing_report_raises_with_context_and_place(self):
        r = BoundReport("threshold", LOG2, 0.25, tolerance=1e-12)
        with pytest.raises(BoundViolation) as info:
            r.require("epoch 3")
        assert str(info.value) == f"threshold bound violated in epoch 3: {LOG2} > 0.25"


class TestCheckUnchanged:
    def test_equal_bits_pass(self):
        before = np.array([[0.0, -0.0], [np.nan, np.inf]])
        r = check_unchanged(before, before.copy(), "frozen x")
        assert (r.context, r.lhs, r.rhs, r.tolerance, r.passed) == ("frozen x", 0, 0, 0, True)

    def test_counts_entries_whose_bits_changed(self):
        # a flipped zero sign, a NaN and a one-ulp step each count once
        before = np.array([0.0, 1.0, 2.0, 3.0])
        after = np.array([-0.0, np.nan, np.nextafter(2.0, 3.0), 3.0])
        r = check_unchanged(before, after, "frozen x")
        assert (r.lhs, r.passed) == (3, False)
        with pytest.raises(BoundViolation, match=r"^frozen x bound violated in core: 3 > 0$"):
            r.require("core")

    def test_size_zero(self):
        # the flat vector of an adapter of rank 0
        r = check_unchanged(np.zeros(0), np.zeros(0), "frozen adapter")
        assert (r.lhs, r.passed) == (0, True)


class TestStabilityBound:
    def test_no_deviation(self):
        e = l2_normalize(np.ones(4))
        r = check_stability_bound([e], [e], [e])
        assert r.lhs == 0.0
        assert r.passed

    def test_new_equals_prototype(self):
        rng = make_rng(4)
        p = l2_normalize(rng.standard_normal(4))
        old = l2_normalize(rng.standard_normal(4))
        r = check_stability_bound([old], [p], [p])
        assert r.passed

    @given(st.integers(0, 2**32 - 1), st.integers(1, 50))
    @settings(max_examples=200)
    def test_random_unit_triples(self, seed, n):
        # unrelated rows pass: the bound holds for any model, not only a good one
        rng = make_rng(seed)
        old = l2_normalize(rng.standard_normal((n, 8)))
        new = l2_normalize(rng.standard_normal((n, 8)))
        p = l2_normalize(rng.standard_normal((n, 8)))
        assert check_stability_bound(old, new, p).passed


class TestLemma1:
    def test_identical(self):
        rng = make_rng(5)
        assert verify_lemma1(10, 4, rng) <= 1e-12

    def test_hand_case(self):
        a, b = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        assert np.sum((a - b) ** 2) == 2.0 * (1.0 - a @ b)

    def test_thousand_pairs_d16(self):
        assert verify_lemma1(1000, 16, make_rng(6)) <= 1e-12

    @pytest.mark.parametrize("dim", [2, 16, 64])
    def test_same_draws_as_per_pair_loop(self, dim):
        # one whole block of pairs and part of a second
        n_pairs = BLOCK_FLOATS // (2 * dim) + 44
        rng, worst = make_rng(11, dim), 0.0
        for _ in range(n_pairs):
            a = l2_normalize(rng.standard_normal(dim))
            b = l2_normalize(rng.standard_normal(dim))
            worst = max(worst, abs(float(np.sum((a - b) ** 2)) - 2.0 * (1.0 - float(a @ b))))
        assert abs(verify_lemma1(n_pairs, dim, make_rng(11, dim)) - worst) <= 1e-15

    @pytest.mark.parametrize("dim", [2, 16, 64])
    def test_same_pairs_as_per_pair_loop(self, dim, monkeypatch):
        # every unit residual is rounding, so the pin above cannot tell which
        # normals form a pair; without normalization a pair's residual is
        # | ||a||^2 + ||b||^2 - 2 |, of order one, and its largest value reads
        # the pairs
        n_pairs, rng, worst = BLOCK_FLOATS // (2 * dim) + 44, make_rng(11, dim), 0.0
        for _ in range(n_pairs):
            a, b = rng.standard_normal(dim), rng.standard_normal(dim)
            worst = max(worst, abs(float(np.sum((a - b) ** 2)) - 2.0 * (1.0 - float(a @ b))))
        monkeypatch.setattr(adaptcl.verify, "l2_normalize", lambda v: v)
        got = verify_lemma1(n_pairs, dim, make_rng(11, dim))
        assert got == pytest.approx(worst, rel=1e-12)


class TestLemma2:
    def test_two_points_midpoint(self):
        e = np.array([[1.0, 0.0], [0.0, 1.0]])
        r, gradient = verify_lemma2(e, make_rng(7), n_probes=100)
        assert r.passed
        assert gradient.lhs <= 1e-12

    def test_identical_points(self):
        e = np.tile(l2_normalize(np.ones(3)), (5, 1))
        r, _ = verify_lemma2(e, make_rng(8), n_probes=50)
        assert r.lhs == 0.0
        assert r.passed

    def test_random_embeddings(self):
        rng = make_rng(9)
        e = np.stack([l2_normalize(rng.standard_normal(6)) for _ in range(50)])
        r, _ = verify_lemma2(e, rng, n_probes=100)
        assert r.passed

    def test_too_few(self):
        with pytest.raises(AdaptclError, match="need at least 2 embeddings"):
            verify_lemma2(np.ones((1, 3)), make_rng(10))

    @pytest.mark.parametrize("n, d", [(2, 3), (50, 16)])
    def test_same_probes_as_per_probe_loop(self, n, d):
        # one whole block of probes and part of a second
        n_probes = BLOCK_FLOATS // (n * d) + 3
        rng = make_rng(12, n)
        e = rng.standard_normal((n, d))
        mean = e.mean(axis=0)
        reference = min(
            float(np.mean(np.sum((e - (mean + 0.1 * rng.standard_normal(d))) ** 2, axis=1)))
            for _ in range(n_probes)
        )
        rng = make_rng(12, n)
        r, _ = verify_lemma2(rng.standard_normal((n, d)), rng, n_probes)
        assert r.rhs == reference
