import math

import numpy as np
import pytest

import adaptcl.adaptation
from adaptcl.adaptation import (
    AdaptConfig,
    acl_loss,
    acl_losses,
    adapt,
    ce_adapt_loss,
    compute_prototypes,
)
from adaptcl.errors import AdaptclError, BoundViolation, DegenerateVector
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
from adaptcl.numerics import l2_normalize, make_rng
from adaptcl.verify import finite_diff_grad

LOG2 = math.log(2.0)


class _IdentityBackbone:
    """Identity weights and zero biases on 2-d inputs, so a row embeds to the
    unit direction of tanh(x); for prototype tests."""

    def __new__(cls):
        cfg = ModelConfig(embed_dim=2, hidden=(2,))
        backbone = init_model(cfg, 2, make_rng(0))
        backbone.weights = [np.eye(2), np.eye(2)]
        backbone.biases = [np.zeros(2), np.zeros(2)]
        return backbone


class TestComputePrototypes:
    def test_symmetric_mean(self):
        backbone = _IdentityBackbone()
        x = np.array([[1.0, 0.0], [0.0, 1.0]])
        protos = compute_prototypes(embed(backbone, x), np.array([0, 0]))
        np.testing.assert_allclose(
            protos.weight[protos.class_ids.index(0)], [np.sqrt(2) / 2, np.sqrt(2) / 2], atol=1e-12
        )

    def test_single_sample(self):
        backbone = _IdentityBackbone()
        x = np.array([[3.0, 4.0]])
        protos = compute_prototypes(embed(backbone, x), np.array([1]))
        np.testing.assert_allclose(
            protos.weight[protos.class_ids.index(1)], embed(backbone, x)[0], atol=0
        )

    def test_degenerate_mean(self):
        cfg = ModelConfig(embed_dim=2, hidden=(2,))
        backbone = init_model(cfg, 2, make_rng(0))
        backbone.weights = [np.eye(2), np.eye(2)]
        backbone.biases = [np.zeros(2), np.zeros(2)]
        x = np.array([[1.0, 0.0], [-1.0, 0.0]])
        with pytest.raises(DegenerateVector):
            compute_prototypes(embed(backbone, x), np.array([0, 0]))

    def test_overflowing_mean(self):
        # a class mean whose norm overflows has no direction: it must raise,
        # not become an all-zero prototype
        e = np.array([[0.6, 0.8], [1e200, 1e200], [1e200, 1e200]])
        with pytest.raises(DegenerateVector, match="class mean norm inf"):
            compute_prototypes(e, np.array([0, 1, 1]))


class TestAclLoss:
    def test_single_prototype(self):
        protos = Classifier([0], np.array([[1.0, 0.0]]))
        loss, grad = acl_loss(np.array([[0.0, 1.0]]), np.array([0]), protos, 0.1)
        assert loss.tolist() == [0.0]

    def test_aligned_embedding(self):
        protos = Classifier([0, 1], np.array([[1.0, 0.0], [0.0, 1.0]]))
        (loss,), _ = acl_loss(np.array([[1.0, 0.0]]), np.array([0]), protos, 0.1)
        assert loss == pytest.approx(math.log(1 + math.exp(-10)), rel=1e-12)

    def test_wrong_class_prototype(self):
        protos = Classifier([0, 1], np.array([[1.0, 0.0], [0.0, 1.0]]))
        (loss,), _ = acl_loss(np.array([[0.0, 1.0]]), np.array([0]), protos, 0.1)
        assert loss == pytest.approx(math.log(1 + math.exp(10)), rel=1e-12)
        assert loss >= LOG2

    def test_unknown_label(self):
        # acl_loss takes table rows; mapping a label not in the table raises
        protos = Classifier([0], np.array([[1.0, 0.0]]))
        with pytest.raises(AdaptclError, match="label 9 not in prototype table"):
            label_index(protos.class_ids, np.array([9]), "prototype table")
        with pytest.raises(AdaptclError, match="label 9 not in prototype table"):
            label_index(protos.class_ids, np.array([0, 9]), "prototype table")

    def test_batch_rows_match_single(self):
        rng = make_rng(33)
        protos = Classifier(
            [1, 4, 6, 8], np.stack([l2_normalize(rng.standard_normal(5)) for _ in range(4)])
        )
        es = np.stack([l2_normalize(rng.standard_normal(5)) for _ in range(7)])
        rows = label_index(protos.class_ids, np.array([4, 1, 8, 8, 6, 1, 4]), "prototype table")
        losses, grads = acl_loss(es, rows, protos, 0.2)
        assert losses.shape == (7,) and grads.shape == (7, 5)
        for i, (loss, grad) in enumerate(zip(losses, grads)):
            single_loss, single_grad = acl_loss(es[i : i + 1], rows[i : i + 1], protos, 0.2)
            assert single_loss.shape == (1,) and single_grad.shape == (1, 5)
            assert loss == pytest.approx(single_loss[0], abs=1e-12)
            np.testing.assert_allclose(grad, single_grad[0], rtol=0, atol=1e-12)

    def test_losses_alone_match(self):
        # acl_losses is acl_loss without the gradient, to the bit, for one
        # tau and for a per-row tau column
        rng = make_rng(35)
        protos = Classifier(list(range(4)), l2_normalize(rng.standard_normal((4, 5))))
        es = l2_normalize(rng.standard_normal((9, 5)))
        rows = rng.integers(4, size=9)
        for tau in (0.1, rng.uniform(0.02, 0.5, size=(9, 1))):
            losses, _ = acl_loss(es, rows, protos, tau)
            assert acl_losses(es, rows, protos, tau).tobytes() == losses.tobytes()

    def test_inputs_unchanged(self):
        rng = make_rng(36)
        protos = Classifier(list(range(4)), l2_normalize(rng.standard_normal((4, 5))))
        es, rows = l2_normalize(rng.standard_normal((9, 5))), rng.integers(4, size=9)
        bits = [a.tobytes() for a in (protos.weight, es, rows)]
        acl_loss(es, rows, protos, 0.1)
        acl_losses(es, rows, protos, 0.1)
        assert [a.tobytes() for a in (protos.weight, es, rows)] == bits

    def test_gradient_vs_finite_differences(self):
        rng = make_rng(31)
        protos = Classifier(
            list(range(4)), np.stack([l2_normalize(rng.standard_normal(5)) for _ in range(4)])
        )
        for _ in range(10):
            e = l2_normalize(rng.standard_normal(5))[None]
            tau = float(rng.uniform(0.05, 0.5))
            _, grad = acl_loss(e, np.array([2]), protos, tau)
            numeric = finite_diff_grad(
                lambda p: acl_loss(p["e"], np.array([2]), protos, tau)[0][0],
                {"e": e.copy()},
                1e-6,
            )["e"]
            np.testing.assert_allclose(grad, numeric, atol=1e-6)


class TestCeAdaptLoss:
    def test_uniform_logits(self):
        head = Classifier.linear([0, 1, 2, 3], 4)
        (loss,), *_ = ce_adapt_loss(np.ones((1, 4)) / 2.0, np.array([1]), head)
        assert loss == pytest.approx(math.log(4), abs=1e-12)

    def test_large_margin_limit(self):
        head = Classifier.linear([0, 1], 2)
        head.weight = np.array([[50.0, 0.0], [-50.0, 0.0]])
        (loss,), *_ = ce_adapt_loss(np.array([[1.0, 0.0]]), np.array([0]), head)
        assert loss < 1e-12

    def test_gradient_vs_finite_differences(self):
        rng = make_rng(32)
        head = Classifier.linear([0, 1, 2], 4)
        head.weight = rng.standard_normal((3, 4))
        head.bias = rng.standard_normal(3)
        e = l2_normalize(rng.standard_normal(4))[None]
        y = np.array([1])
        _, d_e, d_w, d_b = ce_adapt_loss(e, y, head)
        num_e = finite_diff_grad(
            lambda p: ce_adapt_loss(p["e"], y, head)[0][0], {"e": e.copy()}, 1e-6
        )["e"]
        np.testing.assert_allclose(d_e, num_e, atol=1e-6)

        def loss_of_head(p):
            head.weight, head.bias = p["W"], p["b"]
            return ce_adapt_loss(e, y, head)[0][0]

        nums = finite_diff_grad(
            loss_of_head, {"W": head.weight.copy(), "b": head.bias.copy()}, 1e-6
        )
        np.testing.assert_allclose(d_w, nums["W"], atol=1e-6)
        np.testing.assert_allclose(d_b, nums["b"], atol=1e-6)


    def test_inputs_unchanged(self):
        rng = make_rng(37)
        head = Classifier.linear([0, 1, 2], 4)
        head.weight, head.bias = rng.standard_normal((3, 4)), rng.standard_normal(3)
        es, rows = l2_normalize(rng.standard_normal((6, 4))), rng.integers(3, size=6)
        bits = [a.tobytes() for a in (head.weight, head.bias, es, rows)]
        ce_adapt_loss(es, rows, head)
        assert [a.tobytes() for a in (head.weight, head.bias, es, rows)] == bits

    def test_batch_sums_head_gradients(self):
        rng = make_rng(34)
        head = Classifier.linear([0, 1, 2], 4)
        head.weight = rng.standard_normal((3, 4))
        head.bias = rng.standard_normal(3)
        es = np.stack([l2_normalize(rng.standard_normal(4)) for _ in range(5)])
        labels = np.array([2, 0, 1, 1, 2])
        losses, d_e, d_w, d_b = ce_adapt_loss(es, labels, head)
        singles = [ce_adapt_loss(es[i : i + 1], labels[i : i + 1], head) for i in range(5)]
        single_losses = np.concatenate([s[0] for s in singles])
        np.testing.assert_allclose(losses, single_losses, rtol=0, atol=1e-12)
        single_d_e = np.concatenate([s[1] for s in singles])
        np.testing.assert_allclose(d_e, single_d_e, rtol=0, atol=1e-12)
        np.testing.assert_allclose(d_w, sum(s[2] for s in singles), rtol=0, atol=1e-12)
        np.testing.assert_allclose(d_b, sum(s[3] for s in singles), rtol=0, atol=1e-12)


class TestAclIsSoftmaxCrossEntropy:
    def test_ce_head_at_prototypes_over_tau(self):
        # ACL is the softmax cross-entropy of a linear head W = P / tau, b = 0
        # whose weights stay frozen: same losses and embedding gradient. Both
        # treat the embedding as a free vector, so norms up to 2 make a
        # clipped cosine show as well as a lost tau
        rng = make_rng(38)
        for n, n_classes, tau in [(1, 1, 0.1), (5, 2, 0.02), (16, 4, 0.07), (32, 10, 0.5)]:
            protos = Classifier(
                list(range(n_classes)), l2_normalize(rng.standard_normal((n_classes, 8)))
            )
            head = Classifier(protos.class_ids, protos.weight / tau, np.zeros(n_classes))
            es = l2_normalize(rng.standard_normal((n, 8))) * rng.uniform(0.5, 2.0, (n, 1))
            rows = rng.integers(n_classes, size=n)
            losses, d_e = acl_loss(es, rows, protos, tau)
            ce_losses, ce_d_e, _, _ = ce_adapt_loss(es, rows, head)
            np.testing.assert_allclose(losses, ce_losses, rtol=0, atol=1e-12)
            np.testing.assert_allclose(d_e, ce_d_e, rtol=0, atol=1e-12)


def _toy_task(rng, n_per_class=20):
    centers = [np.array([2.0, 0.0]), np.array([0.0, 2.0]), np.array([-2.0, -2.0])]
    x = [c + 0.2 * rng.standard_normal(2) for c in centers for _ in range(n_per_class)]
    return np.stack(x), np.repeat(np.arange(len(centers)), n_per_class)


def _bits(model):
    """The exact bits of the model's parameters."""
    return model.flat.tobytes()


def _reference_adapt(backbone, data, mode, config, rng):
    """adapt's parameter updates without its checks, one array at a time:
    each batch steps every trained array by p -= lr * g, its gradient of the
    batch's mean loss."""
    x, labels = data
    backbone = backbone.copy()
    table = compute_prototypes(embed(backbone, x), labels)
    rows = label_index(table.class_ids, labels, "prototype table")
    head = Classifier.linear(table.class_ids, table.weight.shape[1])
    for _ in range(config.epochs):
        order = rng.permutation(len(labels))
        for start in range(0, len(labels), config.batch_size):
            idx = order[start : start + config.batch_size]
            e, tape = embed_with_tape(backbone, x[idx])
            if mode == "ce_ablation":
                _, d_e, d_w, d_b = ce_adapt_loss(e, rows[idx], head)
            else:
                _, d_e = acl_loss(e, rows[idx], table, config.temperature)
            backbone.flat -= config.lr * backprop(tape, backbone, d_e / len(idx)).flat
            if mode == "ce_ablation":
                head.weight -= config.lr * (d_w / len(idx))
                head.bias -= config.lr * (d_b / len(idx))
    return backbone


@pytest.fixture
def toy_setup():
    rng = make_rng(40)
    cfg = ModelConfig(embed_dim=4, hidden=(8,), adapter_rank=2)
    backbone = init_model(cfg, 2, rng)
    return backbone, _toy_task(rng), rng


class TestAdapt:
    def test_zero_epochs_identity(self, toy_setup):
        backbone, data, rng = toy_setup
        before = _bits(backbone)
        b2, records = adapt(backbone, data, "acl", AdaptConfig(epochs=0), rng)
        assert _bits(b2) == before
        assert records == []

    def test_disabled_mode(self, toy_setup):
        backbone, data, rng = toy_setup
        before = _bits(backbone)
        b2, report = adapt(backbone, data, "disabled", AdaptConfig(), rng)
        assert _bits(b2) == before

    def test_unknown_mode_rejected(self, toy_setup):
        backbone, data, rng = toy_setup
        with pytest.raises(ValueError, match="unknown adaptation mode 'acl2'"):
            adapt(backbone, data, "acl2", AdaptConfig(), rng)

    def test_zero_lr_report_emitted(self, toy_setup):
        backbone, data, rng = toy_setup
        before = _bits(backbone)
        b2, records = adapt(backbone, data, "acl", AdaptConfig(lr=0.0, epochs=1), rng)
        assert _bits(b2) == before
        assert len(records) == 1

    def test_loss_decreases_on_separable_data(self, toy_setup):
        backbone, data, rng = toy_setup
        cfg = AdaptConfig(epochs=3, lr=0.1, batch_size=16)
        _, records = adapt(backbone, data, "acl", cfg, rng)
        losses = [r.markov.rhs for r in records]  # mean loss / log 2
        assert losses[-1] < losses[0]

    def test_bounds_recorded_and_hold(self, toy_setup):
        backbone, data, rng = toy_setup
        cfg = AdaptConfig(epochs=2, lr=0.1, batch_size=16)
        _, records = adapt(backbone, data, "acl", cfg, rng)
        for r in records:
            assert r.stability.lhs <= r.stability.rhs + 1e-9
            assert r.markov.lhs <= r.markov.rhs + 1e-12

    @pytest.mark.parametrize("check", ["check_stability_bound", "check_markov_bound"])
    def test_failed_bound_report_raises(self, toy_setup, monkeypatch, check):
        backbone, data, rng = toy_setup
        real = getattr(adaptcl.adaptation, check)

        def failing(*args, **kwargs):
            report = real(*args, **kwargs)
            report.lhs = report.rhs + 1.0
            return report

        monkeypatch.setattr(adaptcl.adaptation, check, failing)
        with pytest.raises(BoundViolation):
            adapt(backbone, data, "acl", AdaptConfig(epochs=1, lr=0.1), rng)

    def test_prototypes_frozen(self, toy_setup, monkeypatch):
        # every contrastive loss of a 2-epoch phase, per batch (acl_loss)
        # and per epoch (acl_losses), scores against the prototypes of the
        # input model, bit for bit
        backbone, data, rng = toy_setup
        expected = compute_prototypes(embed(backbone, data[0]), data[1])
        tables = []

        def recording(real):
            def record(e, y, table, tau):
                tables.append((tuple(table.class_ids), table.weight.tobytes()))
                return real(e, y, table, tau)

            return record

        for name in ("acl_loss", "acl_losses"):
            monkeypatch.setattr(adaptcl.adaptation, name, recording(getattr(adaptcl.adaptation, name)))
        adapt(backbone, data, "acl", AdaptConfig(epochs=2, lr=0.1, batch_size=16), rng)
        # 60 samples: 4 batches and one whole-task call per epoch
        want = (tuple(expected.class_ids), expected.weight.tobytes())
        assert tables == [want] * 2 * (4 + 1)

    def test_prototype_change_caught(self, toy_setup, monkeypatch):
        # the prototypes are frozen for the phase: a loss that nudges one
        # prototype entry by one ulp must fail the exit check
        backbone, data, rng = toy_setup
        real = adaptcl.adaptation.acl_loss

        def nudging(e, y, table, tau):
            table.weight[0, 0] = np.nextafter(table.weight[0, 0], 2.0)
            return real(e, y, table, tau)

        monkeypatch.setattr(adaptcl.adaptation, "acl_loss", nudging)
        with pytest.raises(
            BoundViolation, match=r"^frozen prototypes bound violated in adaptation: 1 > 0$"
        ):
            adapt(backbone, data, "acl", AdaptConfig(epochs=1, lr=0.1), rng)

    def test_loss_threshold_checked_per_batch(self, toy_setup, monkeypatch):
        # the toy task has no misclassified samples; on two overlapping
        # classes a loss halved below log 2 for a misclassified sample must
        # fail the per-batch threshold check before the per-epoch ones run
        backbone, _, _ = toy_setup
        rng = make_rng(41)
        centers = (np.array([0.3, 0.0]), np.array([-0.3, 0.0]))
        x = np.stack([c + rng.standard_normal(2) for c in centers for _ in range(20)])
        data = (x, np.repeat([0, 1], 20))
        e = embed(backbone, x)
        pred, _ = classify(compute_prototypes(e, data[1]), e)
        assert np.any(pred != data[1])
        cfg = AdaptConfig(epochs=1, lr=0.1)
        adapt(backbone, data, "acl", cfg, make_rng(1))
        real = adaptcl.adaptation.acl_loss

        def halved(e, y, table, tau):
            loss, d_e = real(e, y, table, tau)
            return loss / 2, d_e

        monkeypatch.setattr(adaptcl.adaptation, "acl_loss", halved)
        with pytest.raises(BoundViolation, match=r"^threshold bound violated"):
            adapt(backbone, data, "acl", cfg, make_rng(1))

    @pytest.mark.parametrize("mode", ["acl", "ce_ablation"])
    def test_update_is_plain_sgd(self, toy_setup, mode):
        # 60 samples in batches of 16 leave a short last batch in each epoch
        backbone, data, _ = toy_setup
        cfg = AdaptConfig(epochs=2, lr=0.1, batch_size=16)
        b2, _ = adapt(backbone, data, mode, cfg, make_rng(7))
        want = _reference_adapt(backbone, data, mode, cfg, make_rng(7))
        assert _bits(b2) == _bits(want)
        # the adapter's entries of the flat vector train too
        assert b2.down.tobytes() != backbone.down.tobytes()
        assert b2.up.tobytes() != backbone.up.tobytes()

    def test_rank_zero_adapter(self, toy_setup):
        # a size-0 adapter stays empty while the backbone trains
        _, data, rng = toy_setup
        cfg = ModelConfig(embed_dim=4, hidden=(8,), adapter_rank=0)
        backbone = init_model(cfg, 2, make_rng(40))
        b2, records = adapt(backbone, data, "acl", AdaptConfig(epochs=1, lr=0.1), rng)
        assert b2.down.size == b2.up.size == 0 and len(records) == 1
        assert _bits(b2) != _bits(backbone)

    def test_ce_ablation_runs(self, toy_setup):
        backbone, data, rng = toy_setup
        b2, records = adapt(backbone, data, "ce_ablation", AdaptConfig(epochs=1, lr=0.1), rng)
        assert _bits(b2) != _bits(backbone)
        assert len(records) == 1
