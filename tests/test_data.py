import warnings

import numpy as np
import pytest

from adaptcl.adaptation import ce_adapt_loss
from adaptcl.continual import ExperimentState, core_learn_ncm, evaluate
from adaptcl.data import (
    BATCH_SIZE,
    PretrainConfig,
    SyntheticSpec,
    _domain_transform,
    generate_synthetic,
    pretrain_backbone,
)
from adaptcl.errors import InvalidSpec
from adaptcl.model import (
    Classifier,
    ModelConfig,
    backprop,
    classify,
    embed,
    embed_with_tape,
    init_model,
    label_index,
)
from adaptcl.numerics import make_rng

SMALL = SyntheticSpec(
    input_dim=8,
    n_pretrain_classes=4,
    n_incremental_classes=4,
    n_tasks=2,
    train_per_class=20,
    test_per_class=10,
    sigma=0.3,
    domain_shift=2.0,
    seed=3,
)


class TestSpecValidation:
    def test_bad_sigma(self):
        with pytest.raises(InvalidSpec):
            SyntheticSpec(sigma=0.0)

    def test_uneven_tasks(self):
        with pytest.raises(InvalidSpec):
            SyntheticSpec(n_incremental_classes=7, n_tasks=4)


class TestRotation:
    """The domain rotation R = exp(delta * A) for the unit-norm skew A that
    _domain_transform draws first from its rng."""

    DELTAS = (0.5, 2.0, 5.0)

    @staticmethod
    def rotation_and_generator(delta, seed=0):
        spec = SyntheticSpec(domain_shift=delta)
        rotation, _ = _domain_transform(spec, make_rng(seed))
        g = make_rng(seed).standard_normal((spec.input_dim, spec.input_dim))
        skew = g - g.T
        return rotation, delta * skew / np.linalg.norm(skew)

    @pytest.mark.parametrize("delta", DELTAS)
    def test_orthogonal_with_unit_determinant(self, delta):
        rotation, _ = self.rotation_and_generator(delta)
        eye = np.eye(len(rotation))
        np.testing.assert_allclose(rotation @ rotation.T, eye, rtol=0, atol=1e-13)
        assert abs(np.linalg.det(rotation) - 1.0) <= 1e-13

    @pytest.mark.parametrize("delta", DELTAS)
    def test_matches_taylor_series(self, delta):
        rotation, a = self.rotation_and_generator(delta)
        term = np.eye(len(a))
        series = term.copy()
        for k in range(1, 30):
            term = term @ a / k
            series += term
        np.testing.assert_allclose(rotation, series, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("delta", DELTAS)
    def test_matches_scipy_expm(self, delta):
        linalg = pytest.importorskip("scipy.linalg")
        rotation, a = self.rotation_and_generator(delta)
        np.testing.assert_allclose(rotation, linalg.expm(a), rtol=0, atol=1e-13)


class TestGenerate:
    def test_deterministic(self):
        _, _, s1 = generate_synthetic(SMALL)
        _, _, s2 = generate_synthetic(SMALL)
        for t1, t2 in zip(s1.tasks, s2.tasks):
            for a1, a2 in zip(t1.train, t2.train):  # inputs, then labels
                np.testing.assert_array_equal(a1, a2)

    def test_zero_shift_identity_transform(self):
        spec = SyntheticSpec(**{**vars(SMALL), "domain_shift": 0.0})
        rotation, translation = _domain_transform(spec, make_rng(0))
        np.testing.assert_array_equal(rotation, np.eye(spec.input_dim))
        np.testing.assert_array_equal(translation, np.zeros(spec.input_dim))

    def test_one_dimension_is_shifted_not_rotated(self):
        # a 1x1 skew has norm 0: the transform must not divide by it
        spec = SyntheticSpec(**{**vars(SMALL), "input_dim": 1})
        rotation, translation = _domain_transform(spec, make_rng(0))
        np.testing.assert_array_equal(rotation, np.eye(1))
        np.testing.assert_array_equal(np.abs(translation), [spec.domain_shift])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pretrain_train, pretrain_test, stream = generate_synthetic(spec)
        splits = [pretrain_train, pretrain_test]
        splits += [split for task in stream.tasks for split in (task.train, task.test)]
        for x, _ in splits:
            assert x.shape[1] == 1 and np.isfinite(x).all()

    def test_classes_disjoint_and_exhaustive(self):
        _, _, stream = generate_synthetic(SMALL)
        seen = set()
        for t in stream.tasks:
            assert not (seen & t.class_ids)
            seen |= t.class_ids
        expected = set(
            range(
                SMALL.n_pretrain_classes,
                SMALL.n_pretrain_classes + SMALL.n_incremental_classes,
            )
        )
        assert seen == expected

    def test_domain_gap_hurts_frozen_ncm(self):
        # the shift knob must reproduce the pretrain/incremental accuracy gap
        spec = SyntheticSpec(
            input_dim=16,
            n_pretrain_classes=6,
            n_incremental_classes=6,
            n_tasks=1,
            train_per_class=40,
            test_per_class=25,
            sigma=0.3,
            domain_shift=5 * 0.3 * 10,
            seed=7,
        )
        pre_train, pre_test, stream = generate_synthetic(spec)
        cfg = ModelConfig(embed_dim=8, hidden=(32,))
        backbone, adapter = init_model(cfg, 16, make_rng(8))
        backbone = pretrain_backbone(backbone, pre_train, PretrainConfig(20, 0.05), make_rng(9))

        def ncm_accuracy(train, test):
            state = ExperimentState(backbone, None, Classifier([], np.zeros((0, 8))))
            core_learn_ncm(state, train)
            hits = sum(
                classify(state.classifier, embed(backbone, None, x))[0][0] == y
                for x, y in zip(test[0][:, None], test[1])
            )
            return hits / len(test[1])

        acc_pretrain = ncm_accuracy(pre_train, pre_test)
        acc_incremental = ncm_accuracy(stream.tasks[0].train, stream.tasks[0].test)
        assert acc_incremental < acc_pretrain


def _reference_pretrain(backbone, data, epochs, lr, rng, batch_size=32):
    """pretrain_backbone as a loop over named arrays: the labels mapped to
    head rows per batch, and one momentum update per parameter array of the
    backbone and of the head."""
    x, labels = data
    backbone = backbone.copy()
    head = Classifier.linear(labels.tolist(), backbone.weights[-1].shape[0])
    params = {**backbone.param_dict(), "head.W": head.weight, "head.b": head.bias}
    velocities = {name: np.zeros_like(p) for name, p in params.items()}
    for _ in range(epochs):
        order = rng.permutation(len(labels))
        for start in range(0, len(labels), batch_size):
            idx = order[start : start + batch_size]
            e, tape = embed_with_tape(backbone, None, x[idx])
            rows = label_index(head.class_ids, labels[idx], "head")
            _, d_e, d_w, d_b = ce_adapt_loss(e, rows, head)
            grads = backprop(tape, backbone, None, d_e / len(idx))[0].param_dict()
            grads.update({"head.W": d_w / len(idx), "head.b": d_b / len(idx)})
            for name, p in params.items():
                velocities[name] *= 0.9
                velocities[name] += grads[name]
                p -= lr * velocities[name]
    return backbone


def _per_array_pretrain(backbone, data, config, rng):
    """pretrain_backbone as three parameter arrays: the backbone's vector and
    the head's weight and bias, stepped one by one, with the gradients in
    new arrays each batch."""
    x, labels = data
    backbone = backbone.copy()
    head = Classifier.linear(labels.tolist(), backbone.weights[-1].shape[0])
    rows = label_index(head.class_ids, labels, "head")
    params = [backbone.flat, head.weight, head.bias]
    velocities = [np.zeros_like(p) for p in params]
    grads = None
    for _ in range(config.epochs):
        order = rng.permutation(len(labels))
        x_epoch, rows_epoch = x[order], rows[order]
        for start in range(0, len(labels), BATCH_SIZE):
            batch = slice(start, start + BATCH_SIZE)
            e, tape = embed_with_tape(backbone, None, x_epoch[batch])
            _, d_e, d_w, d_b = ce_adapt_loss(e, rows_epoch[batch], head)
            n = len(e)
            grads = backprop(tape, backbone, None, d_e / n, grads)
            for p, g, v in zip(params, [grads[0].flat, d_w / n, d_b / n], velocities):
                v *= 0.9
                v += g
                p -= config.lr * v
    return backbone


class TestPretrain:
    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    def test_matches_per_array_loop(self, activation):
        # 100 rows: three full batches and a 4-row one per epoch, and three
        # epochs, so the momentum carries over epochs and short batches
        spec = SyntheticSpec(input_dim=8, n_pretrain_classes=5, train_per_class=20, seed=4)
        pre_train, _, _ = generate_synthetic(spec)
        assert len(pre_train[1]) % BATCH_SIZE == 4
        cfg = ModelConfig(embed_dim=4, hidden=(8, 6), activation=activation)
        backbone, _ = init_model(cfg, 8, make_rng(12))
        before = backbone.flat.copy()
        config = PretrainConfig(3, 0.05)
        trained = pretrain_backbone(backbone, pre_train, config, make_rng(13))
        reference = _per_array_pretrain(backbone, pre_train, config, make_rng(13))
        assert trained.flat.tobytes() == reference.flat.tobytes()
        assert backbone.flat.tobytes() == before.tobytes()
        # the returned backbone owns its vector: no view into the one that held the head
        assert trained.flat.base is None
        assert trained.flat.size == backbone.flat.size

    def test_matches_named_array_reference(self):
        # 80 rows: two full batches and a short one per epoch
        cfg = ModelConfig(embed_dim=4, hidden=(8, 6))
        backbone, _ = init_model(cfg, 8, make_rng(10))
        pre_train, _, _ = generate_synthetic(SMALL)
        trained = pretrain_backbone(backbone, pre_train, PretrainConfig(3, 0.05), make_rng(11))
        reference = _reference_pretrain(backbone, pre_train, 3, 0.05, make_rng(11))
        assert trained.flat.tobytes() == reference.flat.tobytes()
        assert trained.flat.tobytes() != backbone.flat.tobytes()

    def test_zero_epochs_identity(self):
        cfg = ModelConfig(embed_dim=4, hidden=(8,))
        backbone, _ = init_model(cfg, 8, make_rng(10))
        pre_train, _, _ = generate_synthetic(SMALL)
        trained = pretrain_backbone(backbone, pre_train, PretrainConfig(0, 0.05), make_rng(11))
        assert trained.flat.tobytes() == backbone.flat.tobytes()

    def test_deterministic(self):
        cfg = ModelConfig(embed_dim=4, hidden=(8,))
        backbone, _ = init_model(cfg, 8, make_rng(10))
        pre_train, _, _ = generate_synthetic(SMALL)
        t1 = pretrain_backbone(backbone, pre_train, PretrainConfig(3, 0.05), make_rng(11))
        t2 = pretrain_backbone(backbone, pre_train, PretrainConfig(3, 0.05), make_rng(11))
        assert t1.flat.tobytes() == t2.flat.tobytes()

    def test_beats_chance_on_heldout(self):
        cfg = ModelConfig(embed_dim=4, hidden=(16,))
        backbone, _ = init_model(cfg, 8, make_rng(12))
        pre_train, pre_test, _ = generate_synthetic(SMALL)
        backbone = pretrain_backbone(backbone, pre_train, PretrainConfig(20, 0.05), make_rng(13))
        state = ExperimentState(backbone, None, Classifier([], np.zeros((0, 4))))
        core_learn_ncm(state, pre_train)
        hits = sum(
            classify(state.classifier, embed(backbone, None, x))[0][0] == y
            for x, y in zip(pre_test[0][:, None], pre_test[1])
        )
        chance = 1.0 / SMALL.n_pretrain_classes
        assert hits / len(pre_test[1]) > 3 * chance

