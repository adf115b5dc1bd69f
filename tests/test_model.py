import warnings
from dataclasses import replace

import numpy as np
import pytest

from adaptcl.errors import AdaptclError, CheckpointError, DegenerateVector
from adaptcl.model import (
    Classifier,
    ModelConfig,
    backprop,
    classify,
    embed,
    embed_with_tape,
    init_model,
    load_checkpoint,
    save_checkpoint,
)
from adaptcl.numerics import l2_normalize, make_rng
from adaptcl.verify import finite_diff_grad


@pytest.fixture
def small_model():
    cfg = ModelConfig(embed_dim=3, hidden=(4,), adapter_rank=2)
    return cfg, init_model(cfg, 2, make_rng(0))


class TestInit:
    def test_deterministic(self):
        cfg = ModelConfig(embed_dim=3, hidden=(5,))
        b1 = init_model(cfg, 4, make_rng(9))
        b2 = init_model(cfg, 4, make_rng(9))
        assert b1.flat.tobytes() == b2.flat.tobytes()
        assert b1.down.shape == (8, 3) and b1.up.shape == (3, 8)
        assert b1.down.any() and not b1.up.any()

    def test_zero_init_adapter_is_identity(self, small_model):
        # the adapter is drawn after the layers, so rank 0 has the same layers
        cfg, backbone = small_model
        plain = init_model(replace(cfg, adapter_rank=0), 2, make_rng(0))
        assert plain.flat.tobytes() == backbone.flat[: plain.flat.size].tobytes()
        x = make_rng(1).standard_normal((1, 2))
        np.testing.assert_array_equal(embed(backbone, x), embed(plain, x))

    def test_fan_in_scaling(self):
        # doubling fan_in halves the init variance
        rng = make_rng(5)
        cfg_narrow = ModelConfig(embed_dim=3, hidden=(200,))
        cfg_wide = ModelConfig(embed_dim=3, hidden=(100,))
        w_narrow = init_model(cfg_narrow, 50, rng).weights[0]
        w_wide = init_model(cfg_wide, 100, rng).weights[0]
        ratio = np.var(w_wide) / np.var(w_narrow)
        assert ratio == pytest.approx(0.5, rel=0.1)


class TestEmbed:
    def test_unit_norm(self, small_model):
        _, backbone = small_model
        for seed in range(5):
            x = make_rng(seed).standard_normal((1, 2))
            assert abs(np.linalg.norm(embed(backbone, x)[0]) - 1) <= 1e-9

    def test_deterministic(self, small_model):
        _, backbone = small_model
        x = make_rng(2).standard_normal((1, 2))
        np.testing.assert_array_equal(embed(backbone, x), embed(backbone, x))

    def test_batch_matches_single_rows(self, small_model):
        _, backbone = small_model
        backbone.up[:] = 0.3
        xs = make_rng(5).standard_normal((7, 2))
        batch = embed(backbone, xs)
        assert batch.shape == (7, 3)
        singles = [embed(backbone, xs[i : i + 1]) for i in range(7)]
        assert all(e.shape == (1, 3) for e in singles)
        np.testing.assert_allclose(batch, np.concatenate(singles), rtol=0, atol=1e-12)

    def test_tape_matches_plain_embed(self, small_model):
        _, backbone = small_model
        x = make_rng(3).standard_normal((1, 2))
        e, _tape = embed_with_tape(backbone, x)
        np.testing.assert_array_equal(e, embed(backbone, x))

    @pytest.mark.parametrize("fn", [embed, embed_with_tape])
    @pytest.mark.parametrize("shape", [(2,), (1, 1, 2), (1, 3)], ids=["1-D", "3-D", "width"])
    def test_input_not_rows_raises(self, small_model, fn, shape):
        # every input is an (n, D) batch; a 1-D row is not the case n = 1
        _, backbone = small_model
        with pytest.raises(AdaptclError, match="input shape"):
            fn(backbone, np.ones(shape))

    @pytest.mark.parametrize("value", [1e300, np.nan, 0.0], ids=["overflow", "nan", "zero"])
    def test_norm_outside_finite_range_raises(self, small_model, value):
        # a norm that overflows to inf, is NaN or is zero has no unit
        # direction; the overflow must not warn either
        _, backbone = small_model
        backbone.weights[-1][:] = value
        xs = make_rng(4).standard_normal((3, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateVector, match="embedding norm"):
                embed(backbone, xs)


def _batch_gradient_error(backprop_fn, seed, n_rows=5):
    """Worst relative error of backprop_fn against central differences of
    sum_i <u_i, g_i> over a batch of n_rows inputs."""
    cfg = ModelConfig(embed_dim=3, hidden=(4,), adapter_rank=2)
    rng = make_rng(seed, 78)
    backbone = init_model(cfg, 2, rng)
    backbone.up[:] = rng.uniform(-0.3, 0.3, backbone.up.shape)
    xs = rng.standard_normal((n_rows, 2))
    directions = rng.standard_normal((n_rows, 3))

    def loss_fn(_):
        return float(np.sum(embed(backbone, xs) * directions))

    params = backbone.param_dict()
    _, tape = embed_with_tape(backbone, xs)
    analytic = backprop_fn(tape, backbone, directions).param_dict()
    numeric = finite_diff_grad(loss_fn, params, 1e-5)
    return max(
        np.linalg.norm(analytic[name] - numeric[name])
        / max(np.linalg.norm(numeric[name]), 1e-10)
        for name in params
    )


class TestBackprop:
    def test_tape_is_only_read(self, small_model):
        # backprop may run twice on one tape: the second pass returns the
        # same gradient bits and leaves every tape array as it was
        _, backbone = small_model
        rng = make_rng(4)
        backbone.up[:] = rng.uniform(-0.3, 0.3, backbone.up.shape)
        x, g = rng.standard_normal((4, 2)), rng.standard_normal((4, 3))
        _, tape = embed_with_tape(backbone, x)
        arrays = [*tape.acts, tape.raw, tape.adapter_act, tape.norm, tape.unit]
        before = [a.tobytes() for a in arrays]
        first = backprop(tape, backbone, g)
        second = backprop(tape, backbone, g)
        assert first.flat.tobytes() == second.flat.tobytes()
        assert [a.tobytes() for a in arrays] == before

    def test_zero_upstream(self, small_model):
        _, backbone = small_model
        x = make_rng(4).standard_normal((1, 2))
        _, tape = embed_with_tape(backbone, x)
        grads = backprop(tape, backbone, np.zeros((1, 3)))
        np.testing.assert_array_equal(grads.flat, np.zeros_like(grads.flat))

    def test_out_pair_is_overwritten(self, small_model):
        # a training loop passes its last gradient back in; the result must
        # not depend on what that gradient held
        _, backbone = small_model
        rng = make_rng(5)
        x, g = rng.standard_normal((4, 2)), rng.standard_normal((4, 3))
        fresh = backprop(embed_with_tape(backbone, x)[1], backbone, g)
        stale = backprop(embed_with_tape(backbone, x[:1])[1], backbone, g[:1])
        reused = backprop(embed_with_tape(backbone, x)[1], backbone, g, stale)
        assert reused is stale
        assert reused.flat.tobytes() == fresh.flat.tobytes()

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_finite_differences(self, seed):
        cfg = ModelConfig(embed_dim=3, hidden=(4,), adapter_rank=2)
        rng = make_rng(seed, 77)
        backbone = init_model(cfg, 2, rng)
        backbone.up[:] = rng.uniform(-0.3, 0.3, backbone.up.shape)
        direction = rng.standard_normal(3)
        for _ in range(10):
            x = rng.standard_normal((1, 2))

            def loss_fn(_):
                return float(embed(backbone, x)[0] @ direction)

            params = backbone.param_dict()
            _, tape = embed_with_tape(backbone, x)
            analytic = backprop(tape, backbone, direction[None]).param_dict()
            numeric = finite_diff_grad(loss_fn, params, 1e-5)
            for name in params:
                err = np.linalg.norm(analytic[name] - numeric[name])
                scale = max(np.linalg.norm(numeric[name]), 1e-10)
                assert err / scale <= 1e-4, name
        assert _batch_gradient_error(backprop, seed) <= 1e-4

    def test_row_zero_only_mutation_caught(self):
        # a backprop that drops every row but the first must fail the batch check
        def row_zero_only(tape, backbone, d_embedding):
            kept = np.zeros_like(d_embedding)
            kept[0] = d_embedding[0]
            return backprop(tape, backbone, kept)

        assert _batch_gradient_error(row_zero_only, 0) > 1e-2

    def test_normalization_jacobian(self, small_model):
        # d<u,g>/d pre_norm must equal (I - uu^T) g / ||v||
        _, backbone = small_model
        rng = make_rng(11)
        x = rng.standard_normal((1, 2))
        g = rng.standard_normal(3)
        _, tape = embed_with_tape(backbone, x)
        u, n = tape.unit[0], tape.norm[0]
        v = (tape.unit * tape.norm[:, None])[0]  # the pre-norm embedding
        expected = (np.eye(3) - np.outer(u, u)) @ g / n

        def loss_fn(pre):
            return float((pre / np.linalg.norm(pre)) @ g)

        h = 1e-7
        numeric = np.array(
            [
                (loss_fn(v + h * np.eye(3)[i]) - loss_fn(v - h * np.eye(3)[i]))
                / (2 * h)
                for i in range(3)
            ]
        )
        np.testing.assert_allclose(expected, numeric, atol=1e-6)


class TestInputsUnchanged:
    """The forward pass and backprop write in place only into arrays they
    allocated: the caller's input, upstream gradient and the tape keep their
    bits."""

    @pytest.mark.parametrize("rank", [2, 0], ids=["full", "no-adapter"])
    def test_forward_and_backprop(self, rank):
        cfg = ModelConfig(embed_dim=3, hidden=(4, 4), adapter_rank=rank)
        rng = make_rng(14)
        backbone = init_model(cfg, 2, rng)
        backbone.up[:] = rng.uniform(-0.3, 0.3, backbone.up.shape)
        param_bits = backbone.flat.tobytes()
        x, g = rng.standard_normal((5, 2)), rng.standard_normal((5, 3))
        x_bits, g_bits = x.tobytes(), g.tobytes()
        _, tape = embed_with_tape(backbone, x)
        assert x.tobytes() == x_bits
        assert (tape.adapter_act is None) == (rank == 0)
        tape_arrays = [*tape.acts, tape.raw, tape.norm, tape.unit]
        if rank:
            tape_arrays.append(tape.adapter_act)
        tape_bits = [a.tobytes() for a in tape_arrays]
        backprop(tape, backbone, g)
        assert g.tobytes() == g_bits
        assert [a.tobytes() for a in tape_arrays] == tape_bits
        assert backbone.flat.tobytes() == param_bits


class TestClassify:
    def test_basic(self):
        clf = Classifier([0, 1], np.array([[1.0, 0.0], [0.0, 1.0]]))
        pred, logits = classify(clf, np.array([[1.0, 0.0]]))
        assert pred.tolist() == [0]
        np.testing.assert_allclose(logits, [[1.0, 0.0]])

    def test_tie_breaks_low_id(self):
        clf = Classifier([3, 7], np.array([[1.0, 0.0], [1.0, 0.0]]))
        pred, _ = classify(clf, np.array([[1.0, 0.0]]))
        assert pred.tolist() == [3]

    def test_brute_force_oracle(self):
        rng = make_rng(21)
        protos = {c: l2_normalize(rng.standard_normal(6)) for c in range(5)}
        clf = Classifier(list(protos), np.stack(list(protos.values())))
        for _ in range(100):
            e = l2_normalize(rng.standard_normal(6))
            sims = {c: float(e @ p) for c, p in protos.items()}
            expected = min(c for c in sims if sims[c] == max(sims.values()))
            pred, _ = classify(clf, e[None])
            assert pred.tolist() == [expected]

    @pytest.mark.parametrize("variant", ["cosine", "linear"])
    def test_batch_matches_single_rows(self, variant):
        rng = make_rng(23)
        if variant == "cosine":
            clf = Classifier([2, 5, 9], np.stack([l2_normalize(rng.standard_normal(4)) for _ in range(3)]))
        else:
            clf = Classifier.linear([2, 5, 9], 4)
            clf.weight = rng.standard_normal((3, 4))
            clf.bias = rng.standard_normal(3)
        es = np.stack([l2_normalize(rng.standard_normal(4)) for _ in range(6)])
        preds, logits = classify(clf, es)
        assert logits.shape == (6, 3)
        for e, pred, row in zip(es, preds, logits):
            single_pred, single_logits = classify(clf, e[None])
            assert single_pred.tolist() == [pred]
            np.testing.assert_allclose(row, single_logits[0], rtol=0, atol=1e-12)

    def test_one_dimensional_input_raises(self):
        clf = Classifier([0, 1], np.array([[1.0, 0.0], [0.0, 1.0]]))
        with pytest.raises(AdaptclError, match="vs weight"):
            classify(clf, np.array([1.0, 0.0]))
        # nor is a stack of row sets taken
        with pytest.raises(AdaptclError, match="vs weight"):
            classify(clf, np.ones((3, 4, 2)))

    def test_positive_rescale_invariance(self):
        rng = make_rng(22)
        protos = {c: l2_normalize(rng.standard_normal(4)) for c in range(3)}
        clf = Classifier(list(protos), np.stack(list(protos.values())))
        for _ in range(20):
            e = l2_normalize(rng.standard_normal(4))
            pred, logits = classify(clf, e[None])
            assert pred.tolist() == [clf.class_ids[int(np.argmax(5.0 * logits[0]))]]


class TestAddClasses:
    @pytest.mark.parametrize("linear", [False, True])
    def test_interleaved_ids_are_inserted(self, linear):
        # a permuted stream brings ids that sort between and below the stored
        # ones: each must land in its sorted place without moving old rows
        rng = make_rng(24)
        old_ids, new_ids = [2, 5, 9], [7, 0, 3]
        units = np.stack([l2_normalize(rng.standard_normal(4)) for _ in range(6)])
        if linear:
            clf = Classifier.linear(old_ids, 4)
            clf.weight = rng.standard_normal((3, 4))
            clf.bias = rng.standard_normal(3)
        else:
            clf = Classifier(old_ids, units[:3])
        rows = dict(zip(old_ids, clf.weight.copy()))
        biases = dict(zip(old_ids, clf.bias.copy() if linear else np.zeros(3)))
        clf.add_classes(new_ids, units[3:])
        rows.update(zip(new_ids, units[3:]))
        biases.update(dict.fromkeys(new_ids, 0.0))
        assert clf.class_ids == [0, 2, 3, 5, 7, 9]
        for c in old_ids:
            i = clf.class_ids.index(c)
            assert clf.weight[i].tobytes() == rows[c].tobytes()
            if linear:
                assert clf.bias[i].tobytes() == biases[c].tobytes()
        for c in new_ids:
            i = clf.class_ids.index(c)
            np.testing.assert_array_equal(clf.weight[i], rows[c])
            if linear:
                assert clf.bias[i] == 0.0
        es = np.stack([l2_normalize(rng.standard_normal(4)) for _ in range(50)])
        preds, _ = classify(clf, es)
        for e, pred in zip(es, preds):
            scores = {c: float(e @ rows[c]) + biases[c] for c in rows}
            assert pred == max(sorted(scores), key=scores.__getitem__)

    @pytest.mark.parametrize("linear", [False, True])
    def test_present_id_rejected(self, linear):
        clf = Classifier.linear([1, 4], 2) if linear else Classifier([1, 4], np.eye(2))
        before = clf.weight.copy()
        with pytest.raises(ValueError, match="class 4 already in classifier"):
            clf.add_classes([0, 4], np.ones((2, 2)))
        assert clf.class_ids == [1, 4]
        np.testing.assert_array_equal(clf.weight, before)


class TestFlatLayout:
    def test_copy_shares_no_memory(self, small_model):
        _, backbone = small_model
        twin = backbone.copy()
        assert twin.flat.tobytes() == backbone.flat.tobytes()
        assert not np.shares_memory(twin.flat, backbone.flat)
        for view in twin.param_dict().values():
            assert not np.shares_memory(view, backbone.flat)

    def test_views_cover_their_flat_in_order(self, tmp_path, small_model):
        # W0, b0, W1, b1, ..., then down, up: each view aliases the model's
        # flat, before and after a checkpoint round trip
        _, backbone = small_model
        save_checkpoint(tmp_path / "model.ckpt", backbone)
        for model in [backbone, load_checkpoint(tmp_path / "model.ckpt")]:
            views = list(model.param_dict().values())
            assert list(model.param_dict())[-2:] == ["adapter.down", "adapter.up"]
            assert all(np.shares_memory(v, model.flat) for v in views)
            assert np.concatenate(views, axis=None).tobytes() == model.flat.tobytes()


def test_checkpoint_roundtrip(tmp_path, small_model):
    _, backbone = small_model
    backbone.up[:] = 0.25
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, backbone)
    b2 = load_checkpoint(path)
    x = make_rng(30).standard_normal((1, 2))
    np.testing.assert_array_equal(embed(backbone, x), embed(b2, x))


def test_checkpoint_roundtrip_rank_zero_adapter(tmp_path, small_model):
    # a rank-0 adapter writes empty value rows, which must load back
    cfg = small_model[0]
    backbone = init_model(replace(cfg, adapter_rank=0), 2, make_rng(0))
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, backbone)
    b2 = load_checkpoint(path)
    assert b2.down.shape == (0, 3) and b2.up.shape == (3, 0)
    x = make_rng(30).standard_normal((1, 2))
    np.testing.assert_array_equal(embed(backbone, x), embed(b2, x))


@pytest.mark.parametrize(
    "hidden, rank",
    [((4,), 0), ((3,) * 11, 2)],
    ids=["rank-zero-adapter", "twelve-layers"],
)
def test_checkpoint_save_load_save(tmp_path, hidden, rank):
    # a loaded checkpoint saves to the same bytes; with 11 or more layers,
    # layer10 sorts before layer2 in the file and still loads by name
    cfg = ModelConfig(embed_dim=3, hidden=hidden, adapter_rank=rank)
    backbone = init_model(cfg, 2, make_rng(0))
    first, second = tmp_path / "first.ckpt", tmp_path / "second.ckpt"
    save_checkpoint(first, backbone)
    save_checkpoint(second, load_checkpoint(first))
    assert second.read_bytes() == first.read_bytes()


def test_checkpoint_adapter_on_zero_width_rejected(tmp_path):
    # an adapter on an embedding of width 0 has no layout to load into
    path = tmp_path / "zero.ckpt"
    path.write_text(
        "activation;tanh\nn_layers;1\nadapter.down;2x0\n\nadapter.up;0x2\n\n"
        "layer0.W;0x3\n\nlayer0.b;0\n\n"
    )
    with pytest.raises(CheckpointError, match="embedding width 0"):
        load_checkpoint(path)
