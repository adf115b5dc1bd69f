"""Continual-learning metrics over the lower-triangular accuracy matrix, and
standalone verifiers for the toolkit's theoretical guarantees: the
loss-threshold/Markov misclassification bound, the feature-deviation bound,
the freezes, the sphere distance-cosine identity, and the
mean-as-minimizer property.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import BoundViolation, IncompleteMatrix, LengthMismatch, SingleTask, TooFewSamples
from .numerics import l2_normalize

LOG2 = math.log(2.0)
# the most floats one array pass of a verify campaign draws:
# whole campaigns at once raised the peak memory of `adaptcl verify` by about
# a megabyte, 16384 floats still by 0.3 MB, 8192 by none that showed
BLOCK_FLOATS = 8192


@dataclass
class AccuracyMatrix:
    """rows[b][j]: accuracy on task j+1 after learning stage b+1 (j <= b)."""

    rows: list
    expected_tasks: int = 0

    def __post_init__(self):
        for b, row in enumerate(self.rows):
            if len(row) != b + 1:
                raise ValueError(f"row {b} has {len(row)} entries, expected {b + 1}")
            if any(not (0.0 <= a <= 1.0) for a in row):
                raise ValueError("accuracies must lie in [0, 1]")
        if not self.expected_tasks:
            self.expected_tasks = len(self.rows)

    @property
    def K(self):
        return len(self.rows)

    @property
    def complete(self):
        return self.K == self.expected_tasks and self.K > 0

    def stage_accuracies(self):
        """A_b: mean accuracy over tasks <= b after stage b."""
        return [float(np.mean(row)) for row in self.rows]


def _require_complete(m: AccuracyMatrix):
    if not m.complete:
        raise IncompleteMatrix(
            f"matrix has {m.K} of {m.expected_tasks} rows"
        )


def last_accuracy(m: AccuracyMatrix) -> float:
    _require_complete(m)
    return m.stage_accuracies()[-1]


def avg_incremental_accuracy(m: AccuracyMatrix) -> float:
    _require_complete(m)
    return float(np.mean(m.stage_accuracies()))


def forgetting(m: AccuracyMatrix) -> float:
    """Mean over tasks j < K of best-ever accuracy minus final accuracy.

    Unclamped: negative values indicate backward transfer."""
    _require_complete(m)
    if m.K < 2:
        raise SingleTask("forgetting needs K >= 2")
    drops = []
    for j in range(m.K - 1):
        best = max(m.rows[b][j] for b in range(j, m.K - 1))
        drops.append(best - m.rows[m.K - 1][j])
    return float(np.mean(drops))


def plasticity(m: AccuracyMatrix, immediate: bool = False) -> float:
    """Mean over tasks of the best-ever accuracy on that task.

    immediate=True instead averages each task's accuracy right after it was
    learned (the diagonal)."""
    _require_complete(m)
    if immediate:
        return float(np.mean([m.rows[j][j] for j in range(m.K)]))
    return float(np.mean([max(m.rows[b][j] for b in range(j, m.K)) for j in range(m.K)]))


@dataclass
class BoundReport:
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

    The per-sample loss threshold (see check_loss_threshold) implies
    this bound: each misclassified sample adds at least log 2 / n to the mean
    loss. It is kept for its aggregate figures, which adapt() reports per
    epoch as the markov rows of bounds.csv."""
    losses = np.asarray(losses, dtype=np.float64)
    correct = np.asarray(correct_flags, dtype=bool)
    if losses.shape != correct.shape:
        raise LengthMismatch(f"{losses.shape} vs {correct.shape}")
    if losses.size == 0:
        raise LengthMismatch("empty sequences")
    lhs = float(np.mean(~correct))
    rhs = float(np.mean(losses)) / LOG2
    return BoundReport(context, lhs, rhs, tolerance=1e-12)


def check_loss_threshold(losses, wrong, context="threshold") -> BoundReport:
    """Every misclassified sample has loss >= log 2: lhs log 2, rhs the
    smallest loss of a sample flagged wrong, or inf when none is."""
    losses = np.asarray(losses, dtype=np.float64)
    wrong = np.asarray(wrong, dtype=bool)
    rhs = float(losses[wrong].min()) if wrong.any() else math.inf
    return BoundReport(context, LOG2, rhs, tolerance=1e-12)


def check_stability_bounds(old_embeddings, new_embeddings, label_prototypes, contexts) -> list:
    """One report per set of a (K, n, d) stack, named contexts[k]:
    mean||e_new - e_old||^2 vs 2(mean||e_new - p_y||^2 + mean||e_old - p_y||^2)
    over the set's n rows, with row i of label_prototypes[k] the prototype
    p_y of sample i's class."""
    old = np.asarray(old_embeddings, dtype=np.float64)
    new = np.asarray(new_embeddings, dtype=np.float64)
    p = np.asarray(label_prototypes, dtype=np.float64)
    if not (old.shape[:-1] == new.shape[:-1] == p.shape[:-1]) or old.shape[-2] == 0:
        raise LengthMismatch("aligned non-empty sequences required")
    lhs = _mean_sq_distance(new, old)
    rhs = 2.0 * (_mean_sq_distance(new, p) + _mean_sq_distance(old, p))
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


def blocks(n: int, row_size: int):
    """Row counts of blocks that cover n rows of row_size floats each, at
    most BLOCK_FLOATS floats to a block but at least one row."""
    rows = max(1, BLOCK_FLOATS // row_size)
    for start in range(0, n, rows):
        yield min(rows, n - start)


def verify_lemma1(n_pairs: int, dim: int, rng) -> float:
    """Max |  ||a-b||^2 - 2(1 - cos(a,b)) | over seeded random unit pairs.

    Each block of pairs is one (k, 2, dim) draw: a then b for every pair in
    turn, the same normals as one (dim,) draw per vector."""
    worst = 0.0
    for k in blocks(n_pairs, 2 * dim):
        v = l2_normalize(rng.standard_normal((k, 2, dim)))
        a, b = v[:, 0], v[:, 1]
        lhs = np.sum((a - b) ** 2, axis=1)
        rhs = 2.0 * (1.0 - np.sum(a * b, axis=1))
        worst = max(worst, float(np.abs(lhs - rhs).max()))
    return worst


def _mean_sq_distance(e, z):
    """mean_k ||e_k - z_k||^2 over the rows of e, with z broadcast against
    them: a 0-d array for one (d,) point z, one value per point for (m, 1, d)
    points, and one per set for (K, n, d) stacks of e and z."""
    return np.mean(np.sum((e - z) ** 2, axis=-1), axis=-1)


def _mean_sq_distance_grad(e, z, h):
    """The central difference of _mean_sq_distance(e, .) at the (d,) point
    z with step h, all d coordinates in one pass per sign: the same floats
    as numerics.finite_diff_grad, which steps one coordinate per call."""
    step = h * np.eye(len(z))
    f_plus = _mean_sq_distance(e, (z + step)[:, None])
    return (f_plus - _mean_sq_distance(e, (z - step)[:, None])) / (2.0 * h)


def verify_lemma2(class_embeddings, rng, n_probes: int = 100, context="mean-minimizer"):
    """The unnormalized mean minimizes mean squared distance.

    Returns two reports. The minimizer: lhs the mean squared distance to the
    mean, rhs the best mean squared distance over random perturbed probe
    points. The gradient at the mean, named context + " gradient at mean":
    lhs the norm of a central finite difference of f(z) = mean_k ||e_k - z||^2
    at z = mean, rhs its rounding tolerance.

    f is quadratic in z, so a central difference has no truncation error at
    any step h: away from the mean it reads the gradient 2(z - mean), and at
    the computed mean only rounding is left. Per coordinate, to first order
    in the unit roundoff u, for n rows of dimension d and M = max|e|, that
    rounding is at most the sum of:
    - (n + d + 2) u (f(mean) + h^2) / h from the two evaluations of f, each
      a sum of nonnegative terms off by at most (n + d + 2) u f;
    - 2 n u M, the true gradient at a computed mean that is off by n u M;
    - 2 u (M + h), by which the rounded steps mean +- h differ.
    The norm of the difference is checked against sqrt(d) times twice that
    sum. h = 0.5 keeps h^2 and 1/h near the scale of f <= 1 of unit
    embeddings, where the tolerance is 1e-14 to 1e-12.
    """
    e = np.asarray(class_embeddings, dtype=np.float64)
    if e.ndim != 2 or len(e) < 2:
        raise TooFewSamples("need at least 2 embeddings")
    mean = e.mean(axis=0)
    lhs = float(_mean_sq_distance(e, mean))
    rhs = lhs if n_probes == 0 else np.inf
    for k in blocks(n_probes, e.size):
        z = mean + 0.1 * rng.standard_normal((k, len(mean)))
        rhs = min(rhs, float(_mean_sq_distance(e, z[:, None]).min()))
    h = 0.5
    grad = _mean_sq_distance_grad(e, mean, h)
    n, d = e.shape
    u = np.finfo(np.float64).eps / 2
    e_max = float(np.abs(e).max())
    per_coord = (n + d + 2) * u * (lhs + h * h) / h + 2 * n * u * e_max + 2 * u * (e_max + h)
    grad_tol = float(2.0 * np.sqrt(d) * per_coord)
    return (
        BoundReport(context, lhs, rhs, tolerance=1e-12),
        BoundReport(f"{context} gradient at mean", float(np.linalg.norm(grad)), grad_tol, 0.0),
    )
