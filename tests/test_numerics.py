import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from adaptcl.errors import AdaptclError, DegenerateVector, NonFiniteLoss
from adaptcl.numerics import (
    l2_normalize,
    l2_normalize_with_norm,
    make_rng,
    softmax_cross_entropy,
)
from adaptcl.verify import finite_diff_grad

finite_floats = st.floats(
    min_value=-50, max_value=50, allow_nan=False, allow_infinity=False
)


class TestL2Normalize:
    def test_scaling(self):
        np.testing.assert_allclose(l2_normalize([3.0, 4.0]), [0.6, 0.8], atol=1e-15)

    def test_already_unit(self):
        np.testing.assert_allclose(l2_normalize([0.0, 1.0]), [0.0, 1.0], atol=0)

    def test_degenerate(self):
        with pytest.raises(DegenerateVector):
            l2_normalize([1e-12, 0.0])

    @pytest.mark.parametrize("shape", [(2,), (3, 2), (2, 2, 2)], ids=["1d", "rows", "pairs"])
    def test_degenerate_row_raises(self, shape):
        # a NaN norm, one that overflows to inf and a zero one each raise,
        # whatever the other rows hold; the overflow neither warns nor, under
        # a training loop's errstate, raises FloatingPointError instead
        for row in ([np.nan, 1.0], [1e200, 1e200], [0.0, 0.0]):
            v = np.full(shape, 0.5)
            v.reshape(-1, 2)[-1] = row
            with warnings.catch_warnings(), np.errstate(over="raise", invalid="raise"):
                warnings.simplefilter("error")
                with pytest.raises(DegenerateVector, match="need a finite norm > 1e-08"):
                    l2_normalize(v)

    def test_no_rows(self):
        unit, norm = l2_normalize_with_norm(np.zeros((0, 3)))
        assert unit.shape == (0, 3) and norm.shape == (0,)

    def test_rows_are_normalized_alone(self):
        # over the last axis: each row gets the floats of its own 1-D call
        v = make_rng(3).standard_normal((4, 2, 16))
        unit, norm = l2_normalize_with_norm(v)
        assert norm.shape == (4, 2)
        for i in np.ndindex(4, 2):
            assert unit[i].tobytes() == l2_normalize(v[i]).tobytes()
            assert norm[i] == np.sqrt(np.sum(v[i] * v[i]))

    @given(
        st.lists(finite_floats, min_size=2, max_size=8),
        st.floats(min_value=1e-3, max_value=1e3),
    )
    def test_scale_invariance(self, values, alpha):
        v = np.array(values)
        if np.linalg.norm(v) < 1e-4:
            return
        np.testing.assert_allclose(
            l2_normalize(alpha * v), l2_normalize(v), atol=1e-12
        )


class TestSoftmaxCrossEntropy:
    def test_single(self):
        losses, p = softmax_cross_entropy([[0.0]], [0])
        assert losses.tolist() == [0.0] and p.tolist() == [[1.0]]

    def test_two_zeros(self):
        losses, p = softmax_cross_entropy([[0.0, 0.0]], [1])
        assert losses[0] == pytest.approx(math.log(2), abs=1e-15)
        assert p.tolist() == [[0.5, 0.5]]

    def test_large_shift(self):
        with np.errstate(over="raise", invalid="raise"):
            losses, p = softmax_cross_entropy([[1000.0, 1000.0]], [0])
        assert losses[0] == pytest.approx(math.log(2), abs=1e-9)
        np.testing.assert_allclose(p, [[0.5, 0.5]], rtol=0, atol=1e-9)

    def test_empty(self):
        for shape in [(0, 3), (1, 0)]:
            with pytest.raises(AdaptclError, match="of empty logits"):
                softmax_cross_entropy(np.zeros(shape), np.zeros(shape[0], dtype=int))

    def test_against_extended_precision(self):
        import mpmath

        rng = make_rng(42)
        for _ in range(50):
            s = rng.uniform(-50, 50, size=rng.integers(1, 10))
            y = int(rng.integers(len(s)))
            total = mpmath.fsum(mpmath.exp(x) for x in s)
            oracle = float(mpmath.log(total) - s[y])
            (loss,), (p,) = softmax_cross_entropy(s[None], [y])
            assert abs(loss - oracle) <= 1e-12 * max(1.0, abs(oracle))
            p_oracle = [float(mpmath.exp(x) / total) for x in s]
            np.testing.assert_allclose(p, p_oracle, rtol=0, atol=1e-12)

    def test_rows_of_a_matrix(self):
        rng = make_rng(43)
        s, y = rng.uniform(-50, 50, size=(6, 4)), rng.integers(4, size=6)
        losses, p = softmax_cross_entropy(s, y)
        assert losses.shape == (6,) and p.shape == (6, 4)
        for i in range(6):
            row_loss, row_p = softmax_cross_entropy(s[i : i + 1], y[i : i + 1])
            assert row_loss.tobytes() == losses[i : i + 1].tobytes()
            assert row_p.tobytes() == p[i : i + 1].tobytes()

    def test_input_unchanged(self):
        rng = make_rng(44)
        s, y = rng.uniform(-50, 50, size=(6, 4)), rng.integers(4, size=6)
        bits = s.tobytes(), y.tobytes()
        _, p = softmax_cross_entropy(s, y)
        softmax_cross_entropy(s[:1], y[:1])
        assert (s.tobytes(), y.tobytes()) == bits
        assert not np.shares_memory(p, s)

    @given(st.lists(finite_floats, min_size=1, max_size=8), finite_floats)
    def test_shift_invariance(self, values, c):
        s = np.array([values])
        y = [len(values) - 1]
        losses, p = softmax_cross_entropy(s, y)
        shifted_losses, shifted_p = softmax_cross_entropy(s + c, y)
        assert shifted_losses[0] == pytest.approx(losses[0], abs=1e-10)
        np.testing.assert_allclose(shifted_p, p, rtol=0, atol=1e-10)


class TestFiniteDiff:
    def test_quadratic(self):
        g = finite_diff_grad(lambda p: float(p["x"][0] ** 2), {"x": np.array([3.0])}, 1e-5)
        assert g["x"][0] == pytest.approx(6.0, abs=1e-9)

    def test_constant(self):
        g = finite_diff_grad(lambda p: 1.0, {"x": np.zeros(4)}, 1e-5)
        np.testing.assert_array_equal(g["x"], np.zeros(4))

    def test_non_finite(self):
        with pytest.raises(NonFiniteLoss):
            finite_diff_grad(
                lambda p: float("nan"), {"x": np.array([1.0])}, 1e-5
            )

    @staticmethod
    def _vector_loss(p):
        # three losses of a (2, 3) matrix and a (4,) vector, each nonlinear
        w, v = p["w"], p["v"]
        return np.array([np.sum(np.sin(w)) * v[0], np.sum(w**2) + v @ v, np.exp(w[1, 2]) - v[3]])

    def _vector_params(self):
        rng = make_rng(3)
        return {"w": rng.standard_normal((2, 3)), "v": rng.standard_normal(4)}

    def test_vector_loss_shape(self):
        g = finite_diff_grad(self._vector_loss, self._vector_params(), 1e-5)
        assert g["w"].shape == (2, 3, 3)
        assert g["v"].shape == (4, 3)

    def test_vector_loss_matches_scalar_calls_bit_for_bit(self):
        params = self._vector_params()
        g = finite_diff_grad(self._vector_loss, params, 1e-5)
        for k in range(3):
            own = finite_diff_grad(lambda p: float(self._vector_loss(p)[k]), params, 1e-5)
            for name in params:
                np.testing.assert_array_equal(g[name][..., k], own[name])

    @pytest.mark.parametrize("k", range(3))
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_vector_loss_non_finite_component(self, k, bad):
        def loss(p):
            f = self._vector_loss(p)
            f[k] = bad
            return f

        with pytest.raises(NonFiniteLoss):
            finite_diff_grad(loss, self._vector_params(), 1e-5)


class TestRng:
    def test_equal_seeds_bit_identical(self):
        a = make_rng(123, 7).standard_normal(100)
        b = make_rng(123, 7).standard_normal(100)
        np.testing.assert_array_equal(a, b)

    def test_streams_differ(self):
        a = make_rng(123, 1).standard_normal(10)
        b = make_rng(123, 2).standard_normal(10)
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_one_key_word(self, seed):
        # -1 would alias 2^64 - 1, and 2^64 would alias 0
        with pytest.raises(ValueError, match=r"seed must be in \[0, 2\^64\)"):
            make_rng(seed)
        assert make_rng(2**64 - 1).standard_normal() != make_rng(0).standard_normal()


def test_sphere_distance_cosine_identity():
    # ||a-b||^2 == 2(1 - cos) for unit vectors, at the raw math level
    rng = make_rng(7)
    worst = 0.0
    for _ in range(1000):
        a = l2_normalize(rng.standard_normal(16))
        b = l2_normalize(rng.standard_normal(16))
        lhs = float(np.sum((a - b) ** 2))
        rhs = 2.0 * (1.0 - float(a @ b))
        worst = max(worst, abs(lhs - rhs))
    assert worst <= 1e-12
