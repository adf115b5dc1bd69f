"""Synthetic domain-gap benchmark: Gaussian class clusters on the unit
sphere for pretraining, plus incremental-phase clusters pushed through a
rigid rotation-and-shift whose magnitude sets the domain gap. Also the
backbone pretraining loop (the stand-in for a pre-trained model).

Every split is an (x, y) pair: an (n, D) input matrix and (n,) int64 labels.
"""

from dataclasses import dataclass

import numpy as np

from .continual import Task, TaskStream
from .errors import InvalidSpec
from .model import Backbone, Classifier, backprop, embed_with_tape, label_index
from .adaptation import ce_adapt_loss
from .numerics import (
    OptimizerState,
    diverged_as,
    l2_normalize,
    make_rng,
    require_finite,
    require_seed,
    sgd_step,
)

BATCH_SIZE = 32  # of pretraining; no config key sets it


@dataclass(frozen=True)
class SyntheticSpec:
    input_dim: int = 32
    n_pretrain_classes: int = 10
    n_incremental_classes: int = 8
    n_tasks: int = 4
    train_per_class: int = 100
    test_per_class: int = 50
    sigma: float = 0.3
    domain_shift: float = 2.0
    seed: int = 0

    def __post_init__(self):
        if self.input_dim < 1:
            raise InvalidSpec("input_dim must be >= 1")
        if self.n_pretrain_classes < 2 or self.n_incremental_classes < 2:
            raise InvalidSpec("need at least 2 classes per phase")
        if self.sigma <= 0:
            raise InvalidSpec("sigma must be positive")
        if self.domain_shift < 0:
            raise InvalidSpec("domain_shift must be non-negative")
        if self.n_tasks < 1 or self.n_incremental_classes % self.n_tasks:
            raise InvalidSpec("tasks must evenly partition the incremental classes")
        if self.train_per_class < 1 or self.test_per_class < 1:
            raise InvalidSpec("need train and test samples per class")
        require_seed(self.seed)


def _expm_skew(a):
    """exp(a) of a real skew-symmetric matrix. 1j * a is Hermitian, so
    eigh gives a = v diag(-1j w) v^H with real w and unitary v, and
    exp(a) = v diag(exp(-1j w)) v^H, a rotation."""
    w, v = np.linalg.eigh(1j * a)
    return ((v * np.exp(-1j * w)) @ v.conj().T).real


def _domain_transform(spec: SyntheticSpec, rng):
    """Fixed rigid map c -> R c + t with rotation angle and shift scaled by
    the domain_shift magnitude; exactly the identity at zero. One dimension
    has no rotation, so R is the identity there and only the shift applies;
    its 1x1 draw for the skew is still made, which keeps every later draw."""
    g = rng.standard_normal((spec.input_dim, spec.input_dim))
    direction = rng.standard_normal(spec.input_dim)
    direction /= np.linalg.norm(direction)
    delta = spec.domain_shift
    rotation = np.eye(spec.input_dim)
    if delta > 0 and spec.input_dim > 1:
        skew = g - g.T
        skew /= np.linalg.norm(skew)
        rotation = _expm_skew(delta * skew)
    translation = delta * direction
    return rotation, translation


def _sample_class(center, spec, rng, n):
    return center + spec.sigma * rng.standard_normal((n, spec.input_dim))


def generate_synthetic(spec: SyntheticSpec):
    """Pretrain train/test (x, y) splits plus the incremental task stream.

    Cluster means are drawn on the unit sphere; incremental means are then
    rotated and shifted by the domain transform. Deterministic in spec.seed.
    """
    rng = make_rng(spec.seed, 101)

    def draw_centers(n):
        return l2_normalize(rng.standard_normal((n, spec.input_dim)))

    pre_centers = draw_centers(spec.n_pretrain_classes)
    inc_centers = draw_centers(spec.n_incremental_classes)
    rotation, translation = _domain_transform(spec, rng)
    inc_centers = inc_centers @ rotation.T + translation

    def build_split(centers, labels, per_class):
        x = np.concatenate([_sample_class(c, spec, rng, per_class) for c in centers])
        return x, np.repeat(np.array(labels, dtype=np.int64), per_class)

    pre_labels = range(spec.n_pretrain_classes)
    pretrain_train = build_split(pre_centers, pre_labels, spec.train_per_class)
    # never read by the CLI, but drawn before the tasks, whose draws it fixes
    pretrain_test = build_split(pre_centers, pre_labels, spec.test_per_class)

    first = spec.n_pretrain_classes
    inc_labels = range(first, first + spec.n_incremental_classes)
    per_task = spec.n_incremental_classes // spec.n_tasks
    tasks = []
    for t in range(spec.n_tasks):
        lo, hi = t * per_task, (t + 1) * per_task
        centers = inc_centers[lo:hi]
        labels = inc_labels[lo:hi]
        tasks.append(
            Task(
                class_ids=frozenset(labels),
                train=build_split(centers, labels, spec.train_per_class),
                test=build_split(centers, labels, spec.test_per_class),
            )
        )
    return pretrain_train, pretrain_test, TaskStream(tasks)


@dataclass(frozen=True)
class PretrainConfig:
    epochs: int = 30
    lr: float = 0.05

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")


def _backbone_and_head(flat, backbone, head):
    """The backbone, then the head's weight and bias, as views into flat."""
    size, weights = backbone.flat.size, head.weight.size
    model = Backbone(flat[:size], backbone.widths, backbone.activation)
    w = flat[size : size + weights].reshape(head.weight.shape)
    return model, Classifier(head.class_ids, w, flat[size + weights :])


def pretrain_backbone(backbone, data, config: PretrainConfig, rng):
    """Supervised warm-up with a throwaway linear head; returns the trained
    backbone (the head is discarded, the input backbone is untouched).

    The backbone and the head are views into one vector, and their
    gradients into another of the same layout, so each batch takes one
    momentum step."""
    x, labels = data
    if not len(labels):
        raise ValueError("pretraining data is empty")
    head = Classifier.linear(labels.tolist(), backbone.weights[-1].shape[0])
    rows = label_index(head.class_ids, labels, "head")
    flat = np.concatenate([backbone.flat, head.weight, head.bias], axis=None)
    model, head = _backbone_and_head(flat, backbone, head)
    grad = np.empty_like(flat)
    d_model, d_head = _backbone_and_head(grad, backbone, head)
    state = OptimizerState(lr=config.lr, momentum=0.9)
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(len(labels))
        x_epoch, rows_epoch = x[order], rows[order]  # each batch is then a slice
        with diverged_as(f"pretraining diverged in epoch {epoch}"):
            for start in range(0, len(labels), BATCH_SIZE):
                batch = slice(start, start + BATCH_SIZE)
                e, tape = embed_with_tape(model, None, x_epoch[batch])
                loss, d_e, d_w, d_b = ce_adapt_loss(e, rows_epoch[batch], head)
                require_finite(loss, "pretraining loss")
                n = len(e)
                d_e /= n
                backprop(tape, model, None, d_e, (d_model, None))
                np.divide(d_w, n, out=d_head.weight)
                np.divide(d_b, n, out=d_head.bias)
                sgd_step([flat], [grad], state)
    return model.copy()
