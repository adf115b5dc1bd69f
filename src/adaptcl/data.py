"""Synthetic domain-gap benchmark: Gaussian class clusters on the unit
sphere for pretraining, plus incremental-phase clusters pushed through a
rigid rotation-and-shift whose magnitude sets the domain gap. Also the
backbone pretraining loop (the stand-in for a pre-trained model) and CSV
dataset round-tripping.
"""

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .continual import Task, TaskStream
from .errors import DimInconsistent, InvalidSpec, NonFiniteLoss, ParseError
from .model import Classifier, backprop, embed_with_tape, stack_samples
from .adaptation import ce_adapt_loss
from .numerics import OptimizerState, make_rng, sgd_step


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

    def digest(self) -> str:
        text = ";".join(f"{k}={v}" for k, v in sorted(vars(self).items()))
        return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass
class LabeledDataset:
    samples: list  # (x: float64 array, y: int)
    spec_hash: str = ""
    split: str = ""

    def __iter__(self):
        return iter(self.samples)

    def __len__(self):
        return len(self.samples)


def _expm_skew(a):
    """exp(a) of a real skew-symmetric matrix. 1j * a is Hermitian, so
    eigh gives a = v diag(-1j w) v^H with real w and unitary v, and
    exp(a) = v diag(exp(-1j w)) v^H, a rotation."""
    w, v = np.linalg.eigh(1j * a)
    return ((v * np.exp(-1j * w)) @ v.conj().T).real


def _domain_transform(spec: SyntheticSpec, rng):
    """Fixed rigid map c -> R c + t with rotation angle and shift scaled by
    the domain_shift magnitude; exactly the identity at zero."""
    g = rng.standard_normal((spec.input_dim, spec.input_dim))
    skew = g - g.T
    skew /= np.linalg.norm(skew)
    direction = rng.standard_normal(spec.input_dim)
    direction /= np.linalg.norm(direction)
    delta = spec.domain_shift
    rotation = _expm_skew(delta * skew) if delta > 0 else np.eye(spec.input_dim)
    translation = delta * direction
    return rotation, translation


def _sample_class(center, spec, rng, n):
    return center + spec.sigma * rng.standard_normal((n, spec.input_dim))


def generate_synthetic(spec: SyntheticSpec):
    """Pretrain train/test datasets plus the incremental task stream.

    Cluster means are drawn on the unit sphere; incremental means are then
    rotated and shifted by the domain transform. Deterministic in spec.seed.
    """
    rng = make_rng(spec.seed, 101)
    tag = spec.digest()

    def draw_centers(n):
        c = rng.standard_normal((n, spec.input_dim))
        return c / np.linalg.norm(c, axis=1, keepdims=True)

    pre_centers = draw_centers(spec.n_pretrain_classes)
    inc_centers = draw_centers(spec.n_incremental_classes)
    rotation, translation = _domain_transform(spec, rng)
    inc_centers = inc_centers @ rotation.T + translation

    def build_split(centers, labels, per_class):
        samples = []
        for center, y in zip(centers, labels):
            for x in _sample_class(center, spec, rng, per_class):
                samples.append((x, y))
        return samples

    pre_labels = list(range(spec.n_pretrain_classes))
    pretrain_train = LabeledDataset(
        build_split(pre_centers, pre_labels, spec.train_per_class), tag, "pretrain_train"
    )
    pretrain_test = LabeledDataset(
        build_split(pre_centers, pre_labels, spec.test_per_class), tag, "pretrain_test"
    )

    inc_labels = list(
        range(
            spec.n_pretrain_classes,
            spec.n_pretrain_classes + spec.n_incremental_classes,
        )
    )
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


def pretrain_backbone(backbone, data, epochs: int, lr: float, rng, batch_size: int = 32):
    """Supervised warm-up with a throwaway linear head; returns the trained
    backbone (the head is discarded, the input backbone is untouched)."""
    data = list(data)
    if not data:
        raise ValueError("pretraining data is empty")
    backbone = backbone.copy()
    if epochs == 0:
        return backbone
    x, labels = stack_samples(data)
    head = Classifier.linear(labels.tolist(), backbone.weights[-1].shape[0])
    params = backbone.param_dict()
    state = OptimizerState(lr=lr, momentum=0.9)
    head_state = OptimizerState(lr=lr, momentum=0.9)
    for _ in range(epochs):
        order = rng.permutation(len(data))
        for start in range(0, len(data), batch_size):
            idx = order[start : start + batch_size]
            e, tape = embed_with_tape(backbone, None, x[idx])
            loss, d_e, d_w, d_b = ce_adapt_loss(e, labels[idx], head)
            if not np.isfinite(loss).all():
                raise NonFiniteLoss(f"pretraining loss {loss}")
            sgd_step(params, backprop(tape, backbone, None, d_e / len(idx)), state)
            sgd_step(
                {"W": head.weight, "b": head.bias},
                {"W": d_w / len(idx), "b": d_b / len(idx)},
                head_state,
            )
    return backbone


def save_csv_dataset(path, dataset: LabeledDataset):
    """Rows `y,x_1..x_D` with a header, LF line endings."""
    dim = len(dataset.samples[0][0])
    with open(path, "w", newline="\n") as f:
        f.write("y," + ",".join(f"x_{i + 1}" for i in range(dim)) + "\n")
        for x, y in dataset.samples:
            f.write(str(int(y)) + "," + ",".join(repr(float(v)) for v in x) + "\n")


def load_csv_dataset(path, split: str = "") -> LabeledDataset:
    try:
        with open(path) as f:
            lines = f.read().splitlines()
    except OSError as e:
        raise ParseError(str(e)) from e
    if not lines:
        raise ParseError(f"{path}: empty file")
    header = lines[0].split(",")
    if header[0] != "y":
        raise ParseError(f"{path}:1: header must start with 'y'")
    dim = len(header) - 1
    samples = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != dim + 1:
            raise ParseError(
                f"{path}:{lineno}: expected {dim + 1} fields, got {len(parts)}"
            )
        try:
            y = int(parts[0])
            x = np.array([float(v) for v in parts[1:]], dtype=np.float64)
        except ValueError as e:
            raise ParseError(f"{path}:{lineno}: {e}") from e
        if x.shape != (dim,):
            raise DimInconsistent(f"{path}:{lineno}")
        samples.append((x, y))
    return LabeledDataset(samples, split=split)
