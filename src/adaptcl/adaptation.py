"""Pre-task adaptation of the model: class prototypes from the
pre-adaptation model, the prototype-anchored contrastive loss with its
analytic gradient, a cross-entropy ablation loss, and the mini-batch loop.

Prototypes are computed once from the model state at phase entry and stay
frozen for the whole phase; the loop checks the per-sample misclassification
threshold per batch, the feature-deviation and Markov bounds per epoch, and
the frozen prototypes at the end of the phase.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateVector
from .metrics import (
    BoundReport,
    check_loss_threshold,
    check_markov_bound,
    check_stability_bound,
    check_unchanged,
)
from .model import (
    Classifier,
    backprop,
    classify,
    embed,
    embed_with_tape,
    label_index,
)
from .numerics import diverged_as, l2_normalize, require_finite, softmax_cross_entropy

ADAPT_MODES = ("acl", "ce_ablation", "disabled")


@dataclass(frozen=True)
class AdaptConfig:
    temperature: float = 0.1
    epochs: int = 1
    lr: float = 0.05
    batch_size: int = 32
    first_task_only: bool = False

    def __post_init__(self):
        if self.temperature <= 0:
            raise ValueError("temperature must be positive")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


def compute_prototypes(embeddings, labels) -> Classifier:
    """Renormalized per-class mean of (n, d) unit embeddings with (n,)
    labels, as a cosine Classifier with one row per class of the labels. A
    class whose embedding mean is (numerically) zero or not finite raises
    DegenerateVector rather than being patched.
    """
    ids = sorted(set(labels.tolist()))
    means = np.stack([embeddings[labels == y].mean(axis=0) for y in ids])
    try:
        prototypes = l2_normalize(means)
    except DegenerateVector as e:
        raise DegenerateVector(f"class mean {e}") from e
    return Classifier(ids, prototypes)


def acl_losses(e_star: np.ndarray, y_idx: np.ndarray, table: Classifier, tau):
    """acl_loss's per-row losses alone, for callers that need no gradient."""
    return softmax_cross_entropy((e_star @ table.weight.T) / tau, y_idx)[0]


def acl_loss(e_star: np.ndarray, y_idx: np.ndarray, table: Classifier, tau):
    """Temperature-scaled softmax over prototype cosines, anchored at the
    true class: the softmax cross-entropy of the logits (e_star @ P.T) / tau
    against the frozen prototypes P. Returns (loss, d_loss/d_e_star); the
    gradient (softmax @ P - P[y]) / tau is taken with the embedding as a
    free vector, before the normalization Jacobian. So ACL is ce_adapt_loss
    of a head W = P / tau, b = 0 whose weights stay frozen.

    table: a cosine Classifier whose weight rows are the prototypes. (n, d)
    embeddings with (n,) true-class rows of the table (label_index) give
    per-row losses (n,) and gradients (n, d). tau is one float for every
    row, or an (n, 1) column with one temperature per row."""
    p = table.weight  # (C, d)
    loss, soft = softmax_cross_entropy((e_star @ p.T) / tau, y_idx)
    return loss, (soft @ p - p[y_idx]) / tau


def ce_adapt_loss(e_star: np.ndarray, y_idx: np.ndarray, head: Classifier):
    """Softmax cross-entropy on linear-head logits e_star @ W.T + b.

    Returns (loss, d_loss/d_e_star, d_loss/d_W, d_loss/d_b) for (n, d)
    embeddings with (n,) true-class rows of the head (label_index): loss (n,)
    and d_e (n, d) are per row, and d_W, d_b are the gradients of the summed
    loss."""
    logits = e_star @ head.weight.T
    logits += head.bias
    loss, delta = softmax_cross_entropy(logits, y_idx)
    delta[np.arange(len(delta)), y_idx] -= 1.0  # softmax - onehot(y)
    d_e = delta @ head.weight
    d_w = delta.T @ e_star
    d_b = np.add.reduce(delta, axis=0)
    return loss, d_e, d_w, d_b


@dataclass(frozen=True)
class EpochRecord:
    """One adaptation epoch: the two live bound checks of the model after
    the epoch, on the task's training data (the Markov rhs is the mean
    contrastive loss / log 2), and the epoch's tightest per-batch loss
    threshold (None under ce_ablation, which does not score against the
    prototypes)."""

    epoch: int
    stability: BoundReport
    markov: BoundReport
    threshold: "BoundReport | None"


def adapt(backbone, data, mode: str, config: AdaptConfig, rng):
    """One adaptation phase on a task's training data, in one of ADAPT_MODES.

    Returns (adapted backbone, [EpochRecord per epoch]). The input is never
    mutated; mode="disabled" or epochs=0 returns an exact copy and no
    records. Each batch takes one plain SGD step, p -= lr * g, on every
    entry of backbone.flat and on ce_ablation's head, with g the gradient of
    the batch's mean loss. A prototype table that changed in any bit over the
    phase raises BoundViolation.
    """
    if mode not in ADAPT_MODES:
        raise ValueError(f"unknown adaptation mode {mode!r}")
    x, labels = data
    if not len(labels):
        raise ValueError("adaptation data is empty")
    backbone = backbone.copy()
    if mode == "disabled":
        return backbone, []

    old_embeds = embed(backbone, x)
    table = compute_prototypes(old_embeds, labels)
    frozen_table = table.weight.copy()
    y_idx = label_index(table.class_ids, labels, "prototype table")
    label_protos = table.weight[y_idx]

    # the CE head has the table's class ids, so y_idx indexes its rows too
    head = None
    if mode == "ce_ablation":
        head = Classifier.linear(table.class_ids, old_embeds.shape[1])

    params = [backbone.flat]
    if head is not None:
        params += [head.weight, head.bias]
    grads, records = None, []

    for epoch in range(1, config.epochs + 1):
        threshold = None
        with diverged_as(f"adaptation diverged in epoch {epoch}"):
            order = rng.permutation(len(labels))
            for start in range(0, len(labels), config.batch_size):
                idx = order[start : start + config.batch_size]
                e_star, tape = embed_with_tape(backbone, x[idx])
                if head is not None:
                    losses, d_e, d_w, d_b = ce_adapt_loss(e_star, y_idx[idx], head)
                else:
                    losses, d_e = acl_loss(e_star, y_idx[idx], table, config.temperature)
                require_finite(losses, f"loss in epoch {epoch}")
                if head is None:
                    # the threshold implies the batch's Markov bound, checked per epoch
                    pred, _ = classify(table, e_star)
                    report = check_loss_threshold(losses, pred != labels[idx])
                    report.require(f"epoch {epoch}")
                    if threshold is None or report.slack < threshold.slack:
                        threshold = report
                grads = backprop(tape, backbone, d_e / len(idx), grads)
                flat_grads = [grads.flat]
                if head is not None:
                    flat_grads += [d_w / len(idx), d_b / len(idx)]
                for p, g in zip(params, flat_grads):
                    p -= config.lr * g

            new_embeds = embed(backbone, x)
            losses = acl_losses(new_embeds, y_idx, table, config.temperature)
            pred, _ = classify(table, new_embeds)
            stability = check_stability_bound(
                old_embeds, new_embeds, label_protos, context="stability"
            )
            markov = check_markov_bound(losses, pred == labels, context="markov")
            stability.require(f"epoch {epoch}")
            markov.require(f"epoch {epoch}")
            records.append(EpochRecord(epoch, stability, markov, threshold))
    check_unchanged(frozen_table, table.weight, "frozen prototypes").require("adaptation")
    return backbone, records
