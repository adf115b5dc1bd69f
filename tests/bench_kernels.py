"""Micro-benchmarks of the numeric kernels at batch sizes 1, 16 and 32, and
of one whole 32-row pretraining step.

Run with `python -m pytest tests/bench_kernels.py`. The name does not match
`test_*.py`, so the test suite does not collect this file. The model has the
default shape (32 -> 64, 64 -> 16, adapter rank 8). The prototype table (a
cosine Classifier, which acl_loss and classify both read) and the linear
head have 10 classes, with ids 0-9, so a batch's labels are also its rows
of both. Every size is an (n, D) batch, n = 1 included. acl_losses is timed
apart from acl_loss: it is the loss alone, as adapt's per-epoch checks and
adaptcl verify call it. The pretraining step runs the forward pass,
ce_adapt_loss, backprop into the gradient vector's views and the head
gradients divided into theirs, then one momentum-0.9 update of the one
vector that holds the backbone's layers and the head, as pretrain_backbone's
loop does.
The core-learning cases time one call of the linear core on a 200-row task
with a copy of the first 2 or all 10 classes of the head (the default run's
tasks train heads of 2 to 8 classes) and the default 10 epochs, on the
frozen adapted model. The last cases time each campaign of `adaptcl verify`
at its default size with seed 0, one campaign per case.
"""

import numpy as np
import pytest

from adaptcl.adaptation import acl_loss, acl_losses, ce_adapt_loss
from adaptcl.continual import CoreConfig, ExperimentState, core_learn_linear
from adaptcl.data import SyntheticSpec, _layers_and_head
from adaptcl.model import (
    Classifier,
    ModelConfig,
    backprop,
    classify,
    embed,
    embed_with_tape,
    init_model,
)
from adaptcl.numerics import l2_normalize, make_rng, require_finite
from adaptcl.verify import (
    VerifySizes,
    run_gradient_battery,
    run_lemma1,
    run_lemma2,
    run_markov,
    run_stability,
    run_threshold,
)

N_CLASSES = 10
INPUT_DIM = SyntheticSpec().input_dim
SIZES = (1, 16, 32)
VERIFY = VerifySizes()
CAMPAIGNS = {
    "lemma1": (run_lemma1, VERIFY.lemma1_pairs),
    "lemma2": (run_lemma2, VERIFY.lemma2_sets, VERIFY.lemma2_probes),
    "threshold": (run_threshold, VERIFY.threshold_draws),
    "markov": (run_markov, VERIFY.markov_batches),
    "stability": (run_stability, VERIFY.stability_draws),
    "gradients": (run_gradient_battery, VERIFY.grad_seeds, VERIFY.grad_probes),
}


@pytest.fixture(scope="module")
def model():
    cfg = ModelConfig()
    rng = make_rng(0)
    backbone = init_model(cfg, INPUT_DIM, rng)
    backbone.up[:] = rng.uniform(-0.3, 0.3, backbone.up.shape)
    units = [l2_normalize(rng.standard_normal(cfg.embed_dim)) for _ in range(N_CLASSES)]
    table = Classifier(list(range(N_CLASSES)), np.stack(units))
    head = Classifier.linear(range(N_CLASSES), cfg.embed_dim)
    head.weight[:] = rng.standard_normal(head.weight.shape)
    return cfg, backbone, table, head


def _batch(model, n):
    backbone = model[1]
    rng = make_rng(1, n)
    x = rng.standard_normal((n, INPUT_DIM))
    y = rng.integers(N_CLASSES, size=n)
    return x, y, embed(backbone, x)


@pytest.mark.parametrize("n", SIZES)
def test_forward(benchmark, model, n):
    x, _, _ = _batch(model, n)
    benchmark(embed_with_tape, model[1], x)


@pytest.mark.parametrize("n", SIZES)
def test_backprop(benchmark, model, n):
    _, backbone, table, _ = model
    x, y, e = _batch(model, n)
    _, d_e = acl_loss(e, y, table, 0.1)
    tape = embed_with_tape(backbone, x)[1]
    benchmark(backprop, tape, backbone, d_e)


@pytest.mark.parametrize("n", SIZES)
def test_acl_loss(benchmark, model, n):
    table = model[2]
    _, y, e = _batch(model, n)
    benchmark(acl_loss, e, y, table, 0.1)


@pytest.mark.parametrize("n", SIZES)
def test_acl_losses(benchmark, model, n):
    table = model[2]
    _, y, e = _batch(model, n)
    benchmark(acl_losses, e, y, table, 0.1)


@pytest.mark.parametrize("n", SIZES)
def test_ce_adapt_loss(benchmark, model, n):
    head = model[3]
    _, y, e = _batch(model, n)
    benchmark(ce_adapt_loss, e, y, head)


@pytest.mark.parametrize("n", SIZES)
def test_classify(benchmark, model, n):
    _, _, e = _batch(model, n)
    benchmark(classify, model[2], e)


def _pretrain_layout(model):
    """pretrain_backbone's one parameter vector, holding the backbone's
    layers and a fresh 10-class head, its views, and a gradient vector with
    its views."""
    backbone = model[1]
    head = Classifier.linear(range(N_CLASSES), backbone.weights[-1].shape[0])
    size = sum(w.size + b.size for w, b in zip(backbone.weights, backbone.biases))
    flat = np.concatenate([backbone.flat[:size], head.weight, head.bias], axis=None)
    grad = np.empty_like(flat)
    layout = [_layers_and_head(v, size, backbone.widths, head) for v in (flat, grad)]
    return flat, layout[0], grad, layout[1]


def test_pretrain_step(benchmark, model):
    flat, (backbone, head), grad, (d_backbone, d_head) = _pretrain_layout(model)
    x, y, _ = _batch(model, 32)
    velocity = np.zeros_like(flat)

    def step():
        nonlocal flat, velocity  # updated in place, as pretrain_backbone does
        e, tape = embed_with_tape(backbone, x)
        loss, d_e, d_w, d_b = ce_adapt_loss(e, y, head)
        require_finite(loss, "pretraining loss")
        d_e /= len(y)
        backprop(tape, backbone, d_e, d_backbone)
        np.divide(d_w, len(y), out=d_head.weight)
        np.divide(d_b, len(y), out=d_head.bias)
        velocity *= 0.9
        velocity += grad
        flat -= 0.05 * velocity

    benchmark(step)


@pytest.mark.parametrize("classes", [2, N_CLASSES])
def test_core_learn_linear(benchmark, model, classes):
    # the call trains the head: each round gets a fresh copy outside the timing
    _, backbone, _, head = model
    x, y, _ = _batch(model, 200)
    y = y % classes
    core = CoreConfig(strategy="linear")

    def fresh_state():
        weight, bias = head.weight[:classes].copy(), head.bias[:classes].copy()
        copy = Classifier(head.class_ids[:classes], weight, bias)
        state = ExperimentState(backbone, copy)
        return (state, (x, y), core, make_rng(2)), {}

    benchmark.pedantic(core_learn_linear, setup=fresh_state, rounds=20, warmup_rounds=1)


@pytest.mark.parametrize("campaign", CAMPAIGNS)
def test_verify_campaign(benchmark, campaign):
    run, *sizes = CAMPAIGNS[campaign]
    assert benchmark(run, 0, *sizes).passed
