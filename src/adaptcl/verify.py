"""The `adaptcl verify` campaigns, their lemma checkers and the
central-difference gradient oracle, for every runtime guarantee: the
distance-cosine identity, the mean-as-minimizer property, the
misclassification loss threshold, the Markov error bound, the
feature-deviation bound, and the analytic-vs-numeric gradient battery. Each
holds for any model in exact arithmetic, so they test the code, not whether
adaptation helps. Only `adaptcl verify` loads this module, and nothing else
in the package uses what it defines (tests/test_imports.py checks both)."""

from dataclasses import dataclass

import numpy as np

from . import model as model_mod
from .adaptation import acl_loss, acl_losses
from .errors import AdaptclError, NonFiniteLoss
from .metrics import (
    BoundReport,
    check_loss_threshold,
    check_markov_bound,
    check_stability_bounds,
    mean_sq_distance,
)
from .model import Classifier, ModelConfig, classify, embed, init_model
from .numerics import l2_normalize, make_rng

EPS = np.finfo(np.float64).eps
LEMMA1_DIMS = (2, 16, 64)
DIM = 16  # of the unit vectors of lemma2, threshold, markov and stability
GRAD_REL_TOL, GRAD_H = 1e-4, 1e-5
# the most floats one array pass of a verify campaign draws:
# whole campaigns at once raised the peak memory of `adaptcl verify` by about
# a megabyte, 16384 floats still by 0.3 MB, 8192 by none that showed
BLOCK_FLOATS = 8192


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    vacuous: bool = False


@dataclass
class VerifySizes:
    lemma1_pairs: int = 1000
    lemma2_sets: int = 20
    lemma2_probes: int = 100
    threshold_draws: int = 10000
    markov_batches: int = 200
    stability_draws: int = 1000
    grad_seeds: int = 3
    grad_probes: int = 10


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


def _mean_sq_distance_grad(e, z, h):
    """The central difference of mean_sq_distance(e, .) at the (d,) point
    z with step h, all d coordinates in one pass per sign: the same floats
    as finite_diff_grad, which steps one coordinate per call."""
    step = h * np.eye(len(z))
    f_plus = mean_sq_distance(e, (z + step)[:, None])
    return (f_plus - mean_sq_distance(e, (z - step)[:, None])) / (2.0 * h)


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
        raise AdaptclError("need at least 2 embeddings")
    mean = e.mean(axis=0)
    lhs = float(mean_sq_distance(e, mean))
    rhs = lhs if n_probes == 0 else np.inf
    for k in blocks(n_probes, e.size):
        z = mean + 0.1 * rng.standard_normal((k, len(mean)))
        rhs = min(rhs, float(mean_sq_distance(e, z[:, None]).min()))
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


def _random_units(rng, n, dim):
    """n unit rows from one (n, dim) normal draw, the same normals as n
    (dim,) draws."""
    return l2_normalize(rng.standard_normal((n, dim)))


def _random_table(rng, dim, n_classes):
    """A cosine Classifier: ids 0..n_classes-1, random unit prototypes. A
    label is its own row of the table, so acl_loss takes the labels as they
    are."""
    return Classifier(list(range(n_classes)), _random_units(rng, n_classes, dim))


MAX_CLASSES, MAX_ROWS = 8, 39


def _scored_batches(rng, dim, n_rows=np.inf):
    """Random batches as (y, pred, loss), until they have n_rows rows, the
    last one cut. A batch has a table of 2-8 random unit prototypes, tau ~
    U(0.02, 0.5), and 5-39 unit rows e with uniform labels y; pred and loss
    are classify's and acl_losses' on e against the table, with tau.

    Each batch draws n_classes, tau, the table's normals, n, the rows'
    normals and the labels, in that order. The batches come in blocks: a
    block takes batches while a largest one still fits in BLOCK_FLOATS
    floats of normals (about 18 for dim 16), whose rows are normalized in
    one pass."""
    batch_rows = MAX_CLASSES + MAX_ROWS
    block_rows = max(batch_rows, BLOCK_FLOATS // dim)
    while n_rows > 0:
        v, end, batches = np.empty((block_rows, dim)), 0, []
        while n_rows > 0 and end + batch_rows <= block_rows:
            n_classes = int(rng.integers(2, MAX_CLASSES + 1))
            tau = float(rng.uniform(0.02, 0.5))
            prototypes = rng.standard_normal(out=v[end : end + n_classes])
            n = int(rng.integers(5, MAX_ROWS + 1))
            e = rng.standard_normal(out=v[end + n_classes : end + n_classes + n])
            cut = min(n, n_rows)
            batches.append((prototypes, tau, e[:cut], rng.integers(n_classes, size=n)[:cut]))
            end, n_rows = end + n_classes + n, n_rows - n
        v[:end] = l2_normalize(v[:end])
        for prototypes, tau, e, y in batches:
            table = Classifier(list(range(len(prototypes))), prototypes)
            yield y, classify(table, e)[0], acl_losses(e, y, table, tau)


def _campaign(name, reports, cases) -> CheckResult:
    """One campaign's verdict from its BoundReports: the first failing
    report, named by its context; else a pass naming the tightest slack, or
    a vacuous pass when there were no reports. cases says what the campaign
    ran. reports is read lazily, and the campaigns make theirs a block at a
    time, so at most the rest of one block's reports is made after a
    failure."""
    tightest = None
    for r in reports:
        if not r.passed:
            return CheckResult(name, False, f"{r.context}: lhs={r.lhs!r} rhs={r.rhs!r}")
        if tightest is None or r.slack < tightest.slack:
            tightest = r
    if tightest is None:
        return CheckResult(name, True, f"{cases}, nothing checked", vacuous=True)
    slack = f"{tightest.slack:.2e} ({tightest.context})"
    return CheckResult(name, True, f"{cases}, tightest slack {slack}")


def run_lemma1(seed, n_pairs) -> CheckResult:
    """Per dimension, the largest residual of the identity against 1e-12;
    no reports when n_pairs is 0."""
    reports = (
        BoundReport(f"dim {dim}", verify_lemma1(n_pairs, dim, make_rng(seed, 11, dim)), 1e-12, 0.0)
        for dim in LEMMA1_DIMS
        if n_pairs
    )
    return _campaign("lemma1", reports, f"{n_pairs} pairs per dim, residual <= 1e-12")


def run_lemma2(seed, n_sets, n_probes) -> CheckResult:
    """Per set, the minimizer report and the gradient at the mean."""

    def reports():
        rng = make_rng(seed, 12)
        for i in range(n_sets):
            n = int(rng.integers(2, 51))
            yield from verify_lemma2(_random_units(rng, n, DIM), rng, n_probes, f"set {i}")

    return _campaign("lemma2", reports(), f"{n_sets} sets x {n_probes} probes")


def run_threshold(seed, n_draws) -> CheckResult:
    """Cosine-misclassified draws must incur loss >= log 2, one report per
    batch, named by its draws.

    This per-sample threshold implies the Markov bound that run_markov
    checks: with losses >= 0 and every misclassified sample at loss >= log 2,
    the error rate of any batch is at most its mean loss / log 2.

    The draws are the rows of random batches, the last one cut to n_draws,
    so the first k draws are the same for every n_draws >= k."""

    def reports():
        done = 0
        for y, pred, loss in _scored_batches(make_rng(seed, 13), DIM, n_draws):
            yield check_loss_threshold(loss, pred != y, f"draws {done}-{done + len(y) - 1}")
            done += len(y)

    return _campaign("loss-threshold", reports(), f"{n_draws} draws")


def run_markov(seed, n_batches) -> CheckResult:
    """Random batches: error rate <= mean loss / log 2."""

    def reports():
        batches = _scored_batches(make_rng(seed, 14), DIM)
        for i, (y, pred, losses) in zip(range(n_batches), batches):
            yield check_markov_bound(losses, pred == y, context=f"batch {i}")

    return _campaign("markov", reports(), f"{n_batches} random batches")


def run_stability(seed, n_draws) -> CheckResult:
    """Random unit triples (old, new, p), one stability report each. Draw i
    takes the next unit rows of one stream: old, new, then p for an even i.
    An odd draw's prototype is the normalized midpoint of old and new, where
    the bound is tightest: the slack is 16 sin^4(theta / 4) at angle theta
    between old and new, and the bound without its factor 2 fails every
    such draw. Each block of draws is one check_stability_bounds call."""

    def reports():
        rng, first = make_rng(seed, 15), 0
        for k in blocks(n_draws, 6 * DIM):  # a draw's 2-3 drawn rows and its old, new, p
            draws = np.arange(first, first + k)
            even = draws % 2 == 0
            rows = 2 + even
            starts = np.cumsum(rows) - rows
            v = _random_units(rng, int(rows.sum()), DIM)
            old, new, p = v[starts], v[starts + 1], np.empty((k, DIM))
            p[even] = v[starts[even] + 2]
            p[~even] = l2_normalize(old[~even] + new[~even])
            contexts = [f"draw {i}" for i in draws.tolist()]
            yield from check_stability_bounds(old[:, None], new[:, None], p[:, None], contexts)
            first += k

    return _campaign(
        "stability", reports(), f"{n_draws} unit triples, the odd ones at the midpoint"
    )


def _gradient_probes(seed, s, n_probes):
    """Seed s of the gradient battery: (backbone, table, probes),
    each probe an (x, y, tau) batch of 1 or 3 rows, drawn in the battery's
    order."""
    cfg, input_dim = ModelConfig(embed_dim=3, hidden=(4,), adapter_rank=2), 2
    rng = make_rng(seed, 16, s)
    batch_rng = make_rng(seed, 17, s)
    backbone = init_model(cfg, input_dim, rng)
    backbone.up[:] = rng.uniform(-0.3, 0.3, backbone.up.shape)
    table = _random_table(rng, cfg.embed_dim, 3)
    probes = []
    for probe in range(n_probes):
        x = rng.standard_normal((1, input_dim))
        y = rng.integers(3, size=1)
        tau = float(rng.uniform(0.05, 0.5))
        if probe % 2 == 1:
            x = np.vstack([x, batch_rng.standard_normal((2, input_dim))])
            y = np.concatenate([y, batch_rng.integers(3, size=2)])
        probes.append((x, y, tau))
    return backbone, table, probes


def finite_diff_grad(loss_fn, params: dict, h: float) -> dict:
    """Central-difference gradient of loss_fn(params) per coordinate.

    loss_fn must be a pure function of the parameter dict; params are
    perturbed in place and restored, so aliased views are safe. A scalar
    loss gives each parameter's gradient in its own shape. A loss that
    returns an (m,) vector of m losses gives p.shape + (m,) per parameter p:
    entry [..., k] is the gradient of loss k, the same floats as a scalar
    call on loss k alone, at two evaluations of loss_fn per coordinate.
    """
    if h <= 0:
        raise ValueError("h must be positive")
    grads = {}
    for name, p in params.items():
        flat_p = p.reshape(-1)
        diffs = []
        for i in range(flat_p.size):
            orig = flat_p[i]
            flat_p[i] = orig + h
            f_plus = np.asarray(loss_fn(params), dtype=np.float64)
            flat_p[i] = orig - h
            f_minus = np.asarray(loss_fn(params), dtype=np.float64)
            flat_p[i] = orig
            if not (np.isfinite(f_plus).all() and np.isfinite(f_minus).all()):
                raise NonFiniteLoss(f"non-finite loss probing {name}[{i}]")
            diffs.append((f_plus - f_minus) / (2.0 * h))
        g = np.array(diffs, dtype=np.float64)
        grads[name] = g.reshape(p.shape + g.shape[1:])
    return grads


def _numeric_gradients(backbone, table, probes, h):
    """Central differences of every probe's summed loss at once: each
    evaluation is one embed and one acl_losses call on the stacked rows of all
    probes, with a per-row tau column, summed per probe. Entry [..., k] of a
    group is probe k's gradient."""
    xs, ys, taus = zip(*probes)
    rows = [len(y) for y in ys]
    x, y = np.vstack(xs), np.concatenate(ys)
    tau = np.repeat(taus, rows)[:, None]
    starts = np.cumsum(rows) - rows

    def summed_losses(_params):
        return np.add.reduceat(acl_losses(embed(backbone, x), y, table, tau), starts)

    return finite_diff_grad(summed_losses, backbone.param_dict(), h)


def _rounding_floor(rows, size, tau, h):
    """The rounding error of a central difference over a group of size
    coordinates of a loss summed over rows; see run_gradient_battery."""
    return 8 * rows * EPS * np.sqrt(size) / (tau * h)


def run_gradient_battery(seed, n_seeds, n_probes) -> CheckResult:
    """Backprop through embed -> normalize -> contrastive loss vs central
    finite differences, per parameter group.

    Even probes are one (1, D) input row. Odd probes stack the same draw with
    two more rows from a separate stream and check the summed loss, so a
    gradient that drops or mixes rows of a batch fails too. The analytic
    side is one embed_with_tape and one backprop per probe; the numeric side
    differences all of a seed's probes in one pass (_numeric_gradients).

    A group passes when ||analytic - numeric|| <= GRAD_REL_TOL ||numeric|| +
    floor, the rounding error of the difference at step h = GRAD_H. The
    summed loss has one term per row, each of size up to about 1/tau, so
    with machine epsilon eps each evaluation is off by about c rows eps /
    tau, each central difference coordinate by c rows eps / (tau h), and the
    norm over a group of m coordinates by sqrt(m) times that. With c = 8 the
    floor is 6e-10 to 4e-8 here: it only decides on saturated probes, whose
    true gradient is below the rounding error."""

    def reports():
        if not n_probes:
            return
        for s in range(n_seeds):
            backbone, table, probes = _gradient_probes(seed, s, n_probes)
            numeric = _numeric_gradients(backbone, table, probes, GRAD_H)
            for probe, (x, y, tau) in enumerate(probes):
                e, tape = model_mod.embed_with_tape(backbone, x)
                _, d_e = acl_loss(e, y, table, tau)
                analytic = model_mod.backprop(tape, backbone, d_e).param_dict()
                for name, g in numeric.items():
                    g = g[..., probe]
                    err = np.linalg.norm(analytic[name] - g)
                    floor = _rounding_floor(len(y), g.size, tau, GRAD_H)
                    limit = GRAD_REL_TOL * np.linalg.norm(g) + floor
                    at = f"seed {s} probe {probe} group {name}"
                    yield BoundReport(at, float(err), float(limit), 0.0)

    cases = f"{n_seeds} seeds x {n_probes} probes of 1 or 3 rows"
    cases += f", rel tol {GRAD_REL_TOL:g} plus floor"
    return _campaign("gradients", reports(), cases)


def run_all(seed: int = 0, sizes: "VerifySizes | None" = None):
    sizes = sizes or VerifySizes()
    return [
        run_lemma1(seed, sizes.lemma1_pairs),
        run_lemma2(seed, sizes.lemma2_sets, sizes.lemma2_probes),
        run_threshold(seed, sizes.threshold_draws),
        run_markov(seed, sizes.markov_batches),
        run_stability(seed, sizes.stability_draws),
        run_gradient_battery(seed, sizes.grad_seeds, sizes.grad_probes),
    ]
