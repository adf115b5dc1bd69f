"""Class-incremental driver: alternates the adaptation phase with a pluggable
core-learning strategy over an ordered task stream, evaluating on all seen
tasks after each stage.

Two strategies stand in for the integrated methods: "ncm" accumulates class
prototypes with no training, "linear" fine-tunes a growing linear head on the
frozen adapted backbone.
"""

import math
from dataclasses import dataclass

import numpy as np

from .adaptation import AdaptConfig, adapt, compute_prototypes
from .errors import AdaptclError, BoundViolation, NonFiniteLoss
from .metrics import AccuracyMatrix, check_unchanged
from .model import Classifier, classify, embed, label_index
from .numerics import diverged_as

CORE_STRATEGIES = ("ncm", "linear")


@dataclass(frozen=True)
class CoreConfig:
    strategy: str = "ncm"
    epochs: int = 10
    lr: float = 0.1

    def __post_init__(self):
        if self.strategy not in CORE_STRATEGIES:
            raise ValueError(f"unknown core strategy {self.strategy!r}")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")


@dataclass
class Task:
    class_ids: frozenset
    train: tuple  # (x (n, D), y (n,))
    test: tuple

    def __post_init__(self):
        if not len(self.train[1]) or not len(self.test[1]):
            raise ValueError("task must have train and test samples")


@dataclass
class TaskStream:
    tasks: list

    def __post_init__(self):
        if not self.tasks:
            raise ValueError("stream must contain at least one task")
        seen = set()
        for t in self.tasks:
            if seen & t.class_ids:
                raise ValueError("task class sets must be pairwise disjoint")
            seen |= t.class_ids

    def __len__(self):
        return len(self.tasks)

    def permuted(self, rng) -> "TaskStream":
        order = rng.permutation(len(self.tasks))
        return TaskStream([self.tasks[i] for i in order])


@dataclass
class ExperimentState:
    backbone: object
    adapter: object
    classifier: Classifier


def core_learn_ncm(state: ExperimentState, task_data) -> ExperimentState:
    """Insert current-task prototypes computed with the frozen adapted model.

    No parameter updates; previously stored prototypes are never touched. A
    class already in the classifier raises ValueError, and a backbone that
    changed in any bit raises BoundViolation (the frozen-backbone check)."""
    before = state.backbone.flat.copy()
    x, labels = task_data
    table = compute_prototypes(embed(state.backbone, state.adapter, x), labels)
    state.classifier.add_classes(table.class_ids, table.weight)
    check_unchanged(before, state.backbone.flat, "frozen backbone").require("ncm core learning")
    return state


def core_learn_linear(state: ExperimentState, task_data, config: CoreConfig, rng):
    """Cross-entropy fine-tuning of the linear head on current-task data,
    embedded once by the frozen adapted model; the backbone stays
    bit-identical, or the frozen-backbone check raises BoundViolation.

    The head takes plain SGD steps of batch size 1 with no momentum: for each
    sample (e, y), p = softmax(W e + b), W -= lr * outer(p - onehot(y), e) and
    b -= lr * (p - onehot(y)). For the call the head is one (C, d + 1) array
    [W | b], and each sample is its augmented row a = [e, 1], so a step is
    z = [W | b] @ a, p = exp(z - max z) / sum, and one rank-1 update
    [W | b] -= (p - onehot(y)) ⊗ (lr * a), with lr * a made once per epoch.
    Its floats can differ in the last bits from those of W e + b,
    exp(z - lse) and lr applied after the outer product; the head is in no
    checkpoint. W and b are written back to the Classifier at the end as
    arrays of their own."""
    before = state.backbone.flat.copy()
    x, labels = task_data
    head = state.classifier
    new = sorted(set(labels.tolist()) - set(head.class_ids))
    head.add_classes(new, np.zeros((len(new), head.weight.shape[1])))
    rows = label_index(head.class_ids, labels, "head")
    d, lr = head.weight.shape[1], config.lr
    Wb = np.concatenate([head.weight, head.bias[:, None]], axis=1)
    head.weight, head.bias = W, b = Wb[:, :d], Wb[:, d]  # a failed call leaves its steps so far
    inputs = np.ones((len(x), d + 1))  # rows [e, 1]
    inputs[:, :d] = embed(state.backbone, state.adapter, x)
    # the head step's buffers: logits, shifted exponentials, p - onehot(y) and its outer product
    z, t, delta, outer = np.empty(len(b)), np.empty(len(b)), np.empty(len(b)), np.empty(Wb.shape)
    column = delta[:, None]
    dot, subtract, multiply, divide, exp = np.dot, np.subtract, np.multiply, np.divide, np.exp
    log, fsum, isfinite = math.log, math.fsum, math.isfinite
    for epoch in range(1, config.epochs + 1):
        with diverged_as(f"core learning diverged in epoch {epoch}"):
            order = rng.permutation(len(labels))
            shuffled = inputs[order]
            # numerics.softmax_cross_entropy inline, for one row, in six NumPy calls: a
            # step's few floats cost less than its dispatches (BENCH_3.json, BENCH_28.json)
            for a, a_lr, r in zip(shuffled, shuffled * lr, rows[order].tolist()):
                dot(Wb, a, z)
                zs = z.tolist()
                m = max(zs)  # exact, and cheaper than z.max() for a few classes
                exp(subtract(z, m, t), t)
                s = fsum(t.tolist())  # not sum(), which is compensated only from Python 3.12 on
                loss = m + log(s) - zs[r]
                if not isfinite(loss):
                    raise NonFiniteLoss(f"core-learning loss {loss}")
                divide(t, s, delta)  # softmax, then minus onehot(y)
                delta[r] -= 1.0
                Wb -= multiply(column, a_lr, outer)
    head.weight, head.bias = W.copy(), b.copy()  # C-contiguous, owning their data
    check_unchanged(before, state.backbone.flat, "frozen backbone").require("linear core learning")
    return state


def evaluate(state: ExperimentState, stream: TaskStream, up_to_task: int):
    """Per-task accuracies a[k][j] for j <= k over the union label space."""
    row = []
    for task in stream.tasks[:up_to_task]:
        x, labels = task.test
        pred, _ = classify(state.classifier, embed(state.backbone, state.adapter, x))
        row.append(float(np.mean(pred == labels)))
    return row


@dataclass
class RunResult:
    matrix: AccuracyMatrix
    epoch_records: list  # (task, [EpochRecord]) per adapted task
    state: "ExperimentState | None"  # None for a run that failed before run_acl
    exception: "BaseException | None" = None  # why a failed run stopped

    @property
    def status(self) -> str:
        return "ok" if self.exception is None else "failed"

    @property
    def error(self) -> str:
        e = self.exception
        return f"{type(e).__name__}: {e}" if e is not None else ""


def run_acl(
    stream: TaskStream,
    backbone,
    adapter,
    mode: str,
    adapt_cfg: AdaptConfig,
    core_cfg: CoreConfig,
    rng,
) -> RunResult:
    """Adapt -> freeze -> core-learn -> evaluate, for each task in order.

    On failure mid-stream the partial accuracy matrix is returned with
    status "failed"."""
    ncm = core_cfg.strategy == "ncm"
    d = backbone.weights[-1].shape[0]
    classifier = Classifier([], np.zeros((0, d))) if ncm else Classifier.linear([], d)
    state = ExperimentState(backbone.copy(), adapter.copy(), classifier)
    rows, reports = [], []
    try:
        for k, task in enumerate(stream.tasks, start=1):
            if mode != "disabled" and not (adapt_cfg.first_task_only and k > 1):
                state.backbone, state.adapter, records = adapt(
                    state.backbone, state.adapter, task.train, mode, adapt_cfg, rng
                )
                reports.append((k, records))
            if ncm:
                core_learn_ncm(state, task.train)
            else:
                core_learn_linear(state, task.train, core_cfg, rng)
            rows.append(evaluate(state, stream, k))
    except (AdaptclError, BoundViolation) as e:  # the partial matrix must survive
        return RunResult(AccuracyMatrix(rows, expected_tasks=len(stream)), reports, state, e)
    return RunResult(AccuracyMatrix(rows, expected_tasks=len(stream)), reports, state)
