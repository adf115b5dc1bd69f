import math

import numpy as np
import pytest

import adaptcl.continual
from adaptcl.adaptation import AdaptConfig, ce_adapt_loss
from adaptcl.continual import (
    CoreConfig,
    ExperimentState,
    core_learn_linear,
    core_learn_ncm,
    evaluate,
    run_acl,
)
from adaptcl.data import Task
from adaptcl.errors import BoundViolation, NonFiniteLoss
from adaptcl.model import (
    Classifier,
    ModelConfig,
    classify,
    embed,
    init_model,
    label_index,
)
from adaptcl.numerics import make_rng


def _cluster_task(rng, class_ids, dim=4, n_train=15, n_test=10, spread=0.3):
    centers = {c: 2.0 * rng.standard_normal(dim) for c in class_ids}

    def split(n):
        x = [centers[c] + spread * rng.standard_normal(dim) for c in class_ids for _ in range(n)]
        return np.stack(x), np.repeat(class_ids, n)

    train = split(n_train)
    test = split(n_test)
    return Task(train, test)


def _run_one_task(stream, backbone, core_cfg):
    """run_acl with no adaptation on the stream's first task."""
    return run_acl(stream[:1], backbone, "disabled", AdaptConfig(), core_cfg, make_rng(1))


@pytest.fixture
def stream_and_model():
    rng = make_rng(50)
    stream = [_cluster_task(rng, [0, 1]), _cluster_task(rng, [2, 3])]
    cfg = ModelConfig(embed_dim=6, hidden=(8,), adapter_rank=2)
    return stream, init_model(cfg, 4, make_rng(51))


class TestCoreLearnNcm:
    def test_first_task_classes(self, stream_and_model):
        stream, backbone = stream_and_model
        state = ExperimentState(backbone, Classifier([], np.zeros((0, 6))))
        core_learn_ncm(state, stream[0].train)
        assert state.classifier.class_ids == [0, 1]

    def test_append_only(self, stream_and_model):
        stream, backbone = stream_and_model
        state = ExperimentState(backbone, Classifier([], np.zeros((0, 6))))
        core_learn_ncm(state, stream[0].train)
        first = dict(zip(state.classifier.class_ids, state.classifier.weight.copy()))
        core_learn_ncm(state, stream[1].train)
        assert state.classifier.class_ids == [0, 1, 2, 3]
        for c, p in first.items():
            np.testing.assert_array_equal(
                state.classifier.weight[state.classifier.class_ids.index(c)], p
            )

    def test_backbone_change_caught(self, stream_and_model, monkeypatch):
        # prototypes computed through a backbone nudged by one ulp, in a layer
        # weight or in the adapter, must fail the frozen-backbone check that
        # run_acl makes around core learning
        stream, backbone = stream_and_model
        monkeypatch.setattr(backbone, "copy", lambda: backbone)  # the run's state holds it
        real = adaptcl.continual.compute_prototypes
        for entry in (backbone.flat[:1], backbone.down[0, :1]):

            def nudging(embeddings, labels, entry=entry):
                entry[0] = np.nextafter(entry[0], np.inf)
                return real(embeddings, labels)

            monkeypatch.setattr(adaptcl.continual, "compute_prototypes", nudging)
            with pytest.raises(
                BoundViolation,
                match=r"^frozen backbone bound violated in ncm core learning: 1 > 0$",
            ):
                raise _run_one_task(stream, backbone, CoreConfig()).exception

    def test_repeated_task_rejected(self, stream_and_model):
        stream, backbone = stream_and_model
        state = ExperimentState(backbone, Classifier([], np.zeros((0, 6))))
        core_learn_ncm(state, stream[0].train)
        with pytest.raises(ValueError, match="class 0 already in classifier"):
            core_learn_ncm(state, stream[0].train)

    def test_prediction_brute_force(self, stream_and_model):
        stream, backbone = stream_and_model
        state = ExperimentState(backbone, Classifier([], np.zeros((0, 6))))
        core_learn_ncm(state, stream[0].train)
        core_learn_ncm(state, stream[1].train)
        x = stream[0].test[0][:1]
        e = embed(backbone, x)
        sims = {
            c: float(e[0] @ p) for c, p in zip(state.classifier.class_ids, state.classifier.weight)
        }
        expected = min(c for c in sims if sims[c] == max(sims.values()))
        pred, _ = classify(state.classifier, e)
        assert pred.tolist() == [expected]


class TestCoreLearnLinear:
    def test_zero_epochs_adds_rows_only(self, stream_and_model):
        stream, backbone = stream_and_model
        state = ExperimentState(backbone, Classifier.linear([], 6))
        core_learn_linear(state, stream[0].train, CoreConfig(epochs=0, lr=0.1), make_rng(1))
        assert state.classifier.class_ids == [0, 1]
        np.testing.assert_array_equal(state.classifier.weight, np.zeros((2, 6)))

    def test_backbone_frozen(self, stream_and_model):
        stream, backbone = stream_and_model
        state = ExperimentState(backbone, Classifier.linear([], 6))
        before = backbone.flat.tobytes()
        core_learn_linear(state, stream[0].train, CoreConfig(epochs=5, lr=0.1), make_rng(1))
        assert state.backbone.flat.tobytes() == before

    def test_backbone_change_caught(self, stream_and_model, monkeypatch):
        # an epoch that nudges one backbone entry by one ulp, in a layer
        # weight or in the adapter, must fail the frozen-backbone check that
        # run_acl makes around core learning
        stream, backbone = stream_and_model
        monkeypatch.setattr(backbone, "copy", lambda: backbone)  # the run's state holds it
        real = adaptcl.continual.diverged_as
        for entry in (backbone.flat[:1], backbone.down[0, :1]):

            def nudging(what, entry=entry):
                entry[0] = np.nextafter(entry[0], np.inf)
                return real(what)

            monkeypatch.setattr(adaptcl.continual, "diverged_as", nudging)
            with pytest.raises(
                BoundViolation,
                match=r"^frozen backbone bound violated in linear core learning: 1 > 0$",
            ):
                raise _run_one_task(stream, backbone, CoreConfig("linear", epochs=2)).exception

    def test_training_improves_train_accuracy(self, stream_and_model):
        # smoke check, not a guarantee
        stream, backbone = stream_and_model
        data = stream[0].train

        def acc(state):
            hits = 0
            for x, y in zip(data[0][:, None], data[1]):
                pred, _ = classify(state.classifier, embed(state.backbone, x))
                hits += pred[0] == y
            return hits / len(data[1])

        state = ExperimentState(backbone, Classifier.linear([], 6))
        core_learn_linear(state, data, CoreConfig(epochs=0, lr=0.1), make_rng(1))
        before = acc(state)
        core_learn_linear(state, data, CoreConfig(epochs=10, lr=0.1), make_rng(1))
        assert acc(state) >= before


def _reference_core_learn_linear(state, task_data, epochs, lr, rng):
    """Per-sample head SGD spelled out with ce_adapt_loss and plain steps
    p -= lr * g on the task embedded once, as core_learn_linear does."""
    x, labels = task_data
    head = state.classifier
    new = sorted(set(labels.tolist()) - set(head.class_ids))
    head.add_classes(new, np.zeros((len(new), head.weight.shape[1])))
    rows = label_index(head.class_ids, labels, "head")
    frozen = embed(state.backbone, x)
    for _ in range(epochs):
        for i in rng.permutation(len(labels)):
            _, _, d_w, d_b = ce_adapt_loss(frozen[i : i + 1], rows[i : i + 1], head)
            head.weight -= lr * d_w
            head.bias -= lr * d_b


def _allocating_core_learn_linear(state, task_data, config, rng):
    """core_learn_linear's loop spelled out with allocating array
    expressions: each head step makes new arrays."""
    x, labels = task_data
    head = state.classifier
    new = sorted(set(labels.tolist()) - set(head.class_ids))
    head.add_classes(new, np.zeros((len(new), head.weight.shape[1])))
    rows = label_index(head.class_ids, labels, "head")
    Wb = np.concatenate([head.weight, head.bias[:, None]], axis=1)
    frozen = embed(state.backbone, x)
    augmented = np.concatenate([frozen, np.ones((len(labels), 1))], axis=1)
    for _ in range(config.epochs):
        for i in rng.permutation(len(labels)):
            a = augmented[i]
            z = Wb @ a
            t = np.exp(z - z.max())
            delta = t / math.fsum(t.tolist())
            delta[rows[i]] -= 1.0
            Wb = Wb - np.outer(delta, config.lr * a)
    head.weight, head.bias = Wb[:, :-1].copy(), Wb[:, -1].copy()


class TestCoreLearnLinearReference:
    def test_matches_reference_loop(self, stream_and_model):
        stream, backbone = stream_and_model
        backbone.up[:] = make_rng(53).uniform(-0.3, 0.3, backbone.up.shape)
        states = [ExperimentState(backbone.copy(), Classifier.linear([], 6)) for _ in range(2)]
        for task in stream:  # the second task grows a trained head
            core = CoreConfig(epochs=3, lr=0.1)
            core_learn_linear(states[0], task.train, core, make_rng(54))
            _reference_core_learn_linear(states[1], task.train, 3, 0.1, make_rng(54))
        lean, ref = states
        assert lean.classifier.class_ids == ref.classifier.class_ids == [0, 1, 2, 3]
        assert np.abs(lean.classifier.weight).max() > 0
        for name in ("weight", "bias"):
            lean_array, ref_array = getattr(lean.classifier, name), getattr(ref.classifier, name)
            np.testing.assert_allclose(lean_array, ref_array, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(lean.backbone.flat, backbone.flat)

    def test_bit_identical_to_allocating_loop(self):
        # the [W | b] head step on preallocated buffers keeps every float of
        # the loop that allocated its arrays, on a head that grows to 11 classes
        rng = make_rng(55)
        classes = [[0, 1, 2], [3, 4], [5, 6, 7, 8, 9, 10]]
        stream = [_cluster_task(rng, ids) for ids in classes]
        cfg = ModelConfig(embed_dim=6, hidden=(8, 8), adapter_rank=2)
        backbone = init_model(cfg, 4, make_rng(56))
        for bias in backbone.biases:
            bias[:] = rng.uniform(0.1, 0.5, bias.shape)
        backbone.up[:] = rng.uniform(-0.3, 0.3, backbone.up.shape)
        states = [ExperimentState(backbone.copy(), Classifier.linear([], 6)) for _ in range(2)]
        core = CoreConfig(epochs=3, lr=0.1)
        for k, task in enumerate(stream):
            core_learn_linear(states[0], task.train, core, make_rng(58, k))
            _allocating_core_learn_linear(states[1], task.train, core, make_rng(58, k))
            for array in (states[0].classifier.weight, states[0].classifier.bias):
                assert array.flags.c_contiguous and array.flags.owndata
        lean, ref = states
        assert lean.classifier.class_ids == ref.classifier.class_ids == list(range(11))
        np.testing.assert_array_equal(lean.classifier.weight, ref.classifier.weight)
        np.testing.assert_array_equal(lean.classifier.bias, ref.classifier.bias)
        assert lean.backbone.flat.tobytes() == backbone.flat.tobytes()

    def test_non_finite_logit_raises(self, stream_and_model):
        # an inf weight or bias reaches the logits of the [W | b] product
        stream, backbone = stream_and_model
        for where in ("bias", "weight"):
            state = ExperimentState(backbone, Classifier.linear([0], 6))
            getattr(state.classifier, where).flat[0] = np.inf
            with pytest.raises(NonFiniteLoss) as caught, np.errstate(invalid="ignore"):
                core = CoreConfig(epochs=1, lr=0.1)
                core_learn_linear(state, stream[0].train, core, make_rng(1))
            assert "\n" not in str(caught.value)


class TestRunAcl:
    def test_single_task(self, stream_and_model):
        stream, backbone = stream_and_model
        single = stream[:1]
        result = run_acl(
            single, backbone, "acl", AdaptConfig(epochs=1, lr=0.05), CoreConfig(),
            make_rng(2),
        )
        assert result.exception is None
        assert result.matrix.K == 1
        assert len(result.epoch_records) == 1

    def test_disabled_runs_no_adaptation(self, stream_and_model):
        stream, backbone = stream_and_model
        result = run_acl(
            stream, backbone, "disabled", AdaptConfig(), CoreConfig(), make_rng(2)
        )
        assert result.epoch_records == []
        assert result.exception is None
        # frozen-backbone run leaves the model untouched
        assert result.state.backbone.flat.tobytes() == backbone.flat.tobytes()

    def test_first_task_only(self, stream_and_model):
        stream, backbone = stream_and_model
        result = run_acl(
            stream,
            backbone,
            "acl",
            AdaptConfig(epochs=1, lr=0.05, first_task_only=True),
            CoreConfig(),
            make_rng(2),
        )
        assert [k for k, _ in result.epoch_records] == [1]

    def test_deterministic(self, stream_and_model):
        stream, backbone = stream_and_model
        r1 = run_acl(
            stream, backbone, "acl", AdaptConfig(epochs=1, lr=0.05), CoreConfig(),
            make_rng(3),
        )
        r2 = run_acl(
            stream, backbone, "acl", AdaptConfig(epochs=1, lr=0.05), CoreConfig(),
            make_rng(3),
        )
        assert r1.matrix.rows == r2.matrix.rows

    def test_linear_strategy(self, stream_and_model):
        stream, backbone = stream_and_model
        result = run_acl(
            stream,
            backbone,
            "acl",
            AdaptConfig(epochs=1, lr=0.05),
            CoreConfig(strategy="linear", epochs=5, lr=0.1),
            make_rng(4),
        )
        assert result.exception is None
        assert result.state.classifier.class_ids == [0, 1, 2, 3]


    def test_programming_error_propagates(self, stream_and_model, monkeypatch):
        stream, backbone = stream_and_model

        def broken(state, task_data):
            raise TypeError("planted")

        monkeypatch.setattr(adaptcl.continual, "core_learn_ncm", broken)
        with pytest.raises(TypeError, match="planted"):
            run_acl(
                stream, backbone, "acl", AdaptConfig(epochs=1), CoreConfig(), make_rng(5)
            )

    def test_bound_violation_returns_partial_matrix(self, stream_and_model, monkeypatch):
        stream, backbone = stream_and_model
        real_ncm = adaptcl.continual.core_learn_ncm
        calls = []

        def violates_on_second_task(state, task_data):
            calls.append(task_data)
            if len(calls) == 2:
                raise BoundViolation("planted")
            real_ncm(state, task_data)

        monkeypatch.setattr(adaptcl.continual, "core_learn_ncm", violates_on_second_task)
        result = run_acl(
            stream, backbone, "acl", AdaptConfig(epochs=1), CoreConfig(), make_rng(5)
        )
        assert type(result.exception) is BoundViolation and str(result.exception) == "planted"
        assert result.matrix.K == 1 and not result.matrix.complete


class TestEvaluate:
    def test_always_right_and_wrong(self, stream_and_model):
        stream, backbone = stream_and_model
        task = stream[0]
        all_zero = (task.test[0], np.zeros_like(task.test[1]))
        s = [Task(task.train, all_zero)]
        e0 = embed(backbone, task.test[0][:1])
        state = ExperimentState(backbone, Classifier([0], e0 / np.linalg.norm(e0)))
        assert evaluate(state, s, 1) == [1.0]

    def test_brute_force_scoring(self, stream_and_model):
        stream, backbone = stream_and_model
        state = ExperimentState(backbone, Classifier([], np.zeros((0, 6))))
        core_learn_ncm(state, stream[0].train)
        row = evaluate(state, stream, 1)
        hits = 0
        for x, y in zip(stream[0].test[0][:, None], stream[0].test[1]):
            pred, _ = classify(state.classifier, embed(backbone, x))
            hits += pred[0] == y
        assert row == [hits / len(stream[0].test[1])]
