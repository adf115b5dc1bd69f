"""Class-incremental driver: alternates the adaptation phase with a pluggable
core-learning strategy over an ordered task list, evaluating on all seen
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
from .metrics import check_unchanged
from .model import Backbone, Classifier, classify, embed, label_index
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


def core_learn_ncm(classifier: Classifier, backbone: Backbone, task_data):
    """Insert into classifier the current-task prototypes computed with the
    frozen adapted backbone.

    No parameter updates; previously stored prototypes are never touched. A
    class already in the classifier raises ValueError."""
    x, labels = task_data
    table = compute_prototypes(embed(backbone, x), labels)
    classifier.add_classes(table.class_ids, table.weight)


def core_learn_linear(head: Classifier, backbone: Backbone, task_data, config: CoreConfig, rng):
    """Cross-entropy fine-tuning of the linear head on current-task data,
    embedded once by the frozen adapted model.

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
    x, labels = task_data
    new = sorted(set(labels.tolist()) - set(head.class_ids))
    head.add_classes(new, np.zeros((len(new), head.weight.shape[1])))
    rows = label_index(head.class_ids, labels, "head")
    d, lr = head.weight.shape[1], config.lr
    Wb = np.concatenate([head.weight, head.bias[:, None]], axis=1)
    head.weight, head.bias = W, b = Wb[:, :d], Wb[:, d]  # a failed call leaves its steps so far
    inputs = np.ones((len(x), d + 1))  # rows [e, 1]
    inputs[:, :d] = embed(backbone, x)
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


def evaluate(classifier: Classifier, backbone: Backbone, tasks: list, up_to_task: int):
    """Per-task accuracies a[k][j] for j <= k over the union label space, on
    the first up_to_task tasks of the task list."""
    row = []
    for task in tasks[:up_to_task]:
        x, labels = task.test
        pred, _ = classify(classifier, embed(backbone, x))
        row.append(float(np.mean(pred == labels)))
    return row


@dataclass
class RunResult:
    rows: list  # the accuracy matrix's rows, one per finished task
    epoch_records: list  # (task, [EpochRecord]) per adapted task
    backbone: "Backbone | None"  # the adapted model; None for a run that failed before run_acl
    exception: "BaseException | None" = None  # why a failed run stopped


def run_acl(
    tasks: list, backbone, mode: str, adapt_cfg: AdaptConfig, core_cfg: CoreConfig, rng
) -> RunResult:
    """Adapt -> freeze -> core-learn -> evaluate, for each task of the task
    list in order. Core learning that changes any bit of backbone.flat fails
    the run with BoundViolation (the frozen-backbone check).

    A run that fails mid-list returns the rows of the tasks it finished with
    the exception that stopped it."""
    ncm = core_cfg.strategy == "ncm"
    d = backbone.weights[-1].shape[0]
    classifier = Classifier([], np.zeros((0, d))) if ncm else Classifier.linear([], d)
    backbone = backbone.copy()  # every mode of a seed is given the same pretrained model
    rows, reports = [], []
    try:
        for k, task in enumerate(tasks, start=1):
            if mode != "disabled" and not (adapt_cfg.first_task_only and k > 1):
                backbone, records = adapt(backbone, task.train, mode, adapt_cfg, rng)
                reports.append((k, records))
            before = backbone.flat.copy()
            if ncm:
                core_learn_ncm(classifier, backbone, task.train)
            else:
                core_learn_linear(classifier, backbone, task.train, core_cfg, rng)
            frozen = check_unchanged(before, backbone.flat, "frozen backbone")
            frozen.require(f"{core_cfg.strategy} core learning")
            rows.append(evaluate(classifier, backbone, tasks, k))
    except (AdaptclError, BoundViolation) as e:  # the finished rows must survive
        return RunResult(rows, reports, backbone, e)
    return RunResult(rows, reports, backbone)
