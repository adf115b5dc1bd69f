"""Continual-learning metrics over the lower-triangular accuracy matrix, and
the guarantees a run checks live as BoundReports. The metrics take a finished
run's rows: row b (from 0) holds the accuracies on tasks 1..b+1 after learning
task b+1. The guarantees are the loss-threshold/Markov misclassification
bound, the feature-deviation bound and the freezes. The three bounds hold for
any model in exact arithmetic: they guard that the losses, classify and the
embedding code agree, not that adaptation helps, and only classify's cosine
clip lets rounding break one. Only `adaptcl verify` runs the lemma checkers,
in verify.py.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import AdaptclError, BoundViolation

LOG2 = math.log(2.0)


def _stage_accuracies(rows):
    """A_b: mean accuracy over tasks <= b after stage b."""
    return [float(np.mean(row)) for row in rows]


def last_accuracy(rows) -> float:
    return _stage_accuracies(rows)[-1]


def avg_incremental_accuracy(rows) -> float:
    return float(np.mean(_stage_accuracies(rows)))


def forgetting(rows) -> float:
    """Mean over tasks j < K of best-ever accuracy minus final accuracy.

    Unclamped: negative values indicate backward transfer."""
    K = len(rows)
    if K < 2:
        raise AdaptclError("forgetting needs K >= 2")
    drops = []
    for j in range(K - 1):
        best = max(rows[b][j] for b in range(j, K - 1))
        drops.append(best - rows[K - 1][j])
    return float(np.mean(drops))


def plasticity(rows) -> float:
    """Mean over tasks of the best-ever accuracy on that task."""
    K = len(rows)
    return float(np.mean([max(rows[b][j] for b in range(j, K)) for j in range(K)]))


@dataclass
class BoundReport:
    """One checked guarantee, lhs <= rhs up to tolerance; require is the one
    place that raises BoundViolation."""

    context: str
    lhs: float
    rhs: float
    tolerance: float

    @property
    def slack(self):
        return self.rhs - self.lhs

    @property
    def passed(self):
        return self.slack >= -self.tolerance

    def require(self, where: str):
        """Raise BoundViolation unless the report passed; where names the
        place of the check, e.g. "epoch 3"."""
        if not self.passed:
            raise BoundViolation(
                f"{self.context} bound violated in {where}: {self.lhs} > {self.rhs}"
            )


def check_markov_bound(losses, correct_flags, context="markov") -> BoundReport:
    """Misclassification rate vs mean(loss)/log 2.

    The per-sample loss threshold (check_loss_threshold) implies this bound
    for any model: each misclassified sample adds at least log 2 / n to the
    mean loss. It is kept for its aggregate figures, which adapt() reports
    per epoch as the markov rows of bounds.csv."""
    losses = np.asarray(losses, dtype=np.float64)
    correct = np.asarray(correct_flags, dtype=bool)
    if losses.shape != correct.shape:
        raise AdaptclError(f"{losses.shape} vs {correct.shape}")
    if losses.size == 0:
        raise AdaptclError("empty sequences")
    lhs = float(np.mean(~correct))
    rhs = float(np.mean(losses)) / LOG2
    return BoundReport(context, lhs, rhs, tolerance=1e-12)


def check_loss_threshold(losses, wrong, context="threshold") -> BoundReport:
    """Every misclassified sample has loss >= log 2, for any model: lhs log 2,
    rhs the smallest loss of a sample flagged wrong, or inf when none is."""
    losses = np.asarray(losses, dtype=np.float64)
    wrong = np.asarray(wrong, dtype=bool)
    rhs = float(losses[wrong].min()) if wrong.any() else math.inf
    return BoundReport(context, LOG2, rhs, tolerance=1e-12)


def mean_sq_distance(e, z):
    """mean_k ||e_k - z_k||^2 over the rows of e, with z broadcast against
    them: a 0-d array for one (d,) point z, one value per point for (m, 1, d)
    points, and one per set for (K, n, d) stacks of e and z."""
    return np.mean(np.sum((e - z) ** 2, axis=-1), axis=-1)


def check_stability_bounds(old_embeddings, new_embeddings, label_prototypes, contexts) -> list:
    """One report per set of a (K, n, d) stack, named contexts[k]:
    mean||e_new - e_old||^2 vs 2(mean||e_new - p_y||^2 + mean||e_old - p_y||^2)
    over the set's n rows, with row i of label_prototypes[k] the prototype
    p_y of sample i's class. The triangle inequality gives it for any rows."""
    old = np.asarray(old_embeddings, dtype=np.float64)
    new = np.asarray(new_embeddings, dtype=np.float64)
    p = np.asarray(label_prototypes, dtype=np.float64)
    if not (old.shape[:-1] == new.shape[:-1] == p.shape[:-1]) or old.shape[-2] == 0:
        raise AdaptclError("aligned non-empty sequences required")
    lhs = mean_sq_distance(new, old)
    rhs = 2.0 * (mean_sq_distance(new, p) + mean_sq_distance(old, p))
    return [
        BoundReport(context, l, r, tolerance=1e-9)
        for context, l, r in zip(contexts, lhs.tolist(), rhs.tolist())
    ]


def check_stability_bound(
    old_embeddings, new_embeddings, label_prototypes, context="stability"
) -> BoundReport:
    """check_stability_bounds of one set of (n, d) rows."""
    sets = [old_embeddings], [new_embeddings], [label_prototypes]
    return check_stability_bounds(*sets, [context])[0]


def check_unchanged(before, after, context) -> BoundReport:
    """A freeze: lhs the number of entries whose float64 bits differ between
    before and after, so a flipped zero sign or a NaN counts as a change as
    much as any other; rhs 0, tolerance 0."""
    before = np.asarray(before, dtype=np.float64).view(np.uint64)
    after = np.asarray(after, dtype=np.float64).view(np.uint64)
    return BoundReport(context, int(np.count_nonzero(before != after)), 0, tolerance=0)
