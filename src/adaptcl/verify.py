"""Standalone verification campaigns for every runtime guarantee: the
distance-cosine identity, the mean-as-minimizer property, the
misclassification loss threshold, the Markov error bound, the
feature-deviation bound, and the analytic-vs-numeric gradient battery."""

from dataclasses import dataclass

import numpy as np

from . import model as model_mod
from .adaptation import acl_loss
from .errors import DegenerateVector
from .metrics import (
    check_markov_bound,
    check_stability_bound,
    loss_threshold_violations,
    verify_lemma1,
    verify_lemma2,
)
from .model import (
    Classifier,
    ModelConfig,
    classify,
    embed,
    init_model,
    model_params,
)
from .numerics import EPS_NORM, finite_diff_grad, l2_normalize, make_rng

EPS = np.finfo(np.float64).eps


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


def _random_units(rng, n, dim):
    """n unit rows from one (n, dim) normal draw, the same normals as n
    (dim,) draws. Raises DegenerateVector for a row below EPS_NORM, as
    l2_normalize does."""
    v = rng.standard_normal((n, dim))
    norm = np.linalg.norm(v, axis=1)
    if not (norm > EPS_NORM).all():
        raise DegenerateVector(f"norm {norm.min():g} <= {EPS_NORM:g}")
    return v / norm[:, None]


def _random_unit(rng, dim):
    return _random_units(rng, 1, dim)[0]


def _random_table(rng, dim, n_classes):
    """A cosine Classifier: ids 0..n_classes-1, random unit prototypes. A
    label is its own row of the table, so acl_loss takes the labels as they
    are."""
    return Classifier(list(range(n_classes)), _random_units(rng, n_classes, dim))


def _random_batches(rng, dim):
    """Endless (table, tau, e, y) batches: a table of 2-8 random unit
    prototypes, tau ~ U(0.02, 0.5), and 5-39 unit rows e with uniform labels
    y. The rows of a batch share its table and tau."""
    while True:
        n_classes = int(rng.integers(2, 9))
        tau = float(rng.uniform(0.02, 0.5))
        table = _random_table(rng, dim, n_classes)
        n = int(rng.integers(5, 40))
        yield table, tau, _random_units(rng, n, dim), rng.integers(n_classes, size=n)


def run_lemma1(seed, n_pairs, dims=(2, 16, 64)) -> CheckResult:
    if n_pairs == 0:
        return CheckResult("lemma1", True, "no pairs requested", vacuous=True)
    worst = 0.0
    for dim in dims:
        rng = make_rng(seed, 11, dim)
        worst = max(worst, verify_lemma1(n_pairs, dim, rng))
    return CheckResult(
        "lemma1", worst <= 1e-12, f"max residual {worst:.3e} (limit 1e-12)"
    )


def run_lemma2(seed, n_sets, n_probes, dim=16) -> CheckResult:
    if n_sets == 0:
        return CheckResult("lemma2", True, "no sets requested", vacuous=True)
    rng = make_rng(seed, 12)
    for i in range(n_sets):
        n = int(rng.integers(2, 51))
        embeds = _random_units(rng, n, dim)
        report = verify_lemma2(embeds, rng, n_probes)
        grad = report.extra["grad_norm_at_mean"]
        if not report.passed or grad > report.extra["grad_tolerance"]:
            return CheckResult(
                "lemma2",
                False,
                f"set {i}: lhs={report.lhs!r} rhs={report.rhs!r} grad={grad!r} "
                f"(tol {report.extra['grad_tolerance']:.3e})",
            )
    return CheckResult("lemma2", True, f"{n_sets} sets x {n_probes} probes")


def run_threshold(seed, n_draws, dim=16) -> CheckResult:
    """Cosine-misclassified draws must incur loss >= log 2.

    This per-sample threshold implies the Markov bound that run_markov
    checks: with losses >= 0 and every misclassified sample at loss >= log 2,
    the error rate of any batch is at most its mean loss / log 2.

    The draws are the rows of random batches, the last one cut to n_draws,
    so the first k draws are the same for every n_draws >= k."""
    if n_draws == 0:
        return CheckResult("loss-threshold", True, "no draws requested", vacuous=True)
    violations, first, done = 0, None, 0
    for table, tau, e, y in _random_batches(make_rng(seed, 13), dim):
        e, y = e[: n_draws - done], y[: n_draws - done]
        pred, _ = classify(table, e)
        loss, _ = acl_loss(e, y, table, tau)
        bad = loss_threshold_violations(loss, pred != y)
        if bad.size and first is None:
            first = (done + int(bad[0]), float(loss[bad[0]]))
        violations += bad.size
        done += len(y)
        if done == n_draws:
            break
    if violations:
        return CheckResult(
            "loss-threshold", False, f"{violations} violations, first {first}"
        )
    return CheckResult("loss-threshold", True, f"{n_draws} draws, zero violations")


def run_markov(seed, n_batches, dim=16) -> CheckResult:
    """Random batches: error rate <= mean loss / log 2. Each batch is one
    classify and one acl_loss call on its stacked rows."""
    if n_batches == 0:
        return CheckResult("markov", True, "no batches requested", vacuous=True)
    batches = _random_batches(make_rng(seed, 14), dim)
    for i, (table, tau, e, y) in zip(range(n_batches), batches):
        pred, _ = classify(table, e)
        losses, _ = acl_loss(e, y, table, tau)
        report = check_markov_bound(losses, pred == y, context=f"batch {i}")
        if not report.passed:
            return CheckResult(
                "markov", False, f"batch {i}: lhs={report.lhs!r} rhs={report.rhs!r}"
            )
    return CheckResult("markov", True, f"{n_batches} random batches")


def run_stability(seed, n_draws, dim=16) -> CheckResult:
    if n_draws == 0:
        return CheckResult("stability", True, "no draws requested", vacuous=True)
    rng = make_rng(seed, 15)
    for i in range(n_draws):
        old = _random_unit(rng, dim)
        new = _random_unit(rng, dim)
        # an odd draw's prototype is the normalized midpoint, where the bound
        # is tightest: the slack is 16 sin^4(theta / 4) at angle theta between
        # old and new, and the bound without its factor 2 fails every such draw
        p = l2_normalize(old + new) if i % 2 else _random_unit(rng, dim)
        report = check_stability_bound([old], [new], [p], context=f"draw {i}")
        if not report.passed:
            return CheckResult(
                "stability", False, f"draw {i}: lhs={report.lhs!r} rhs={report.rhs!r}"
            )
    return CheckResult(
        "stability", True, f"{n_draws} unit triples, the odd ones at the midpoint"
    )


def run_gradient_battery(
    seed, n_seeds, n_probes, rel_tol=1e-4, h=1e-5, with_adapter=True
) -> CheckResult:
    """Backprop through embed -> normalize -> contrastive loss vs central
    finite differences, per parameter group.

    Even probes are one (1, D) input row. Odd probes stack the same draw with
    two more rows from a separate stream and check the summed loss, so a
    gradient that drops or mixes rows of a batch fails too.

    A group passes when ||analytic - numeric|| <= rel_tol ||numeric|| + floor,
    the rounding error of the difference. The summed loss has one term per
    row, each of size up to about 1/tau, so with machine epsilon eps each
    evaluation is off by about c rows eps / tau, each central difference
    coordinate by c rows eps / (tau h), and the norm over a group of m
    coordinates by sqrt(m) times that. With c = 8 the floor is 6e-10 to 4e-8
    here: it only decides on saturated probes, whose true gradient is below
    the rounding error."""
    if n_seeds == 0 or n_probes == 0:
        return CheckResult("gradients", True, "no probes requested", vacuous=True)
    cfg, input_dim = ModelConfig(embed_dim=3, hidden=(4,), adapter_rank=2), 2
    for s in range(n_seeds):
        rng = make_rng(seed, 16, s)
        batch_rng = make_rng(seed, 17, s)
        backbone, adapter = init_model(cfg, input_dim, rng)
        if with_adapter:
            adapter.up[:] = rng.uniform(-0.3, 0.3, adapter.up.shape)
        else:
            adapter = None
        table = _random_table(rng, cfg.embed_dim, 3)
        for probe in range(n_probes):
            x = rng.standard_normal((1, input_dim))
            y = rng.integers(3, size=1)
            tau = float(rng.uniform(0.05, 0.5))
            if probe % 2 == 1:
                x = np.vstack([x, batch_rng.standard_normal((2, input_dim))])
                y = np.concatenate([y, batch_rng.integers(3, size=2)])

            def loss_fn(_params):
                e = embed(backbone, adapter, x)
                return float(np.sum(acl_loss(e, y, table, tau)[0]))

            params = model_params(backbone, adapter)
            e, tape = model_mod.embed_with_tape(backbone, adapter, x)
            _, d_e = acl_loss(e, y, table, tau)
            analytic = model_params(*model_mod.backprop(tape, backbone, adapter, d_e))
            numeric = finite_diff_grad(loss_fn, params, h)
            rows = len(y)
            for name in params:
                err = np.linalg.norm(analytic[name] - numeric[name])
                floor = 8 * rows * EPS * np.sqrt(numeric[name].size) / (tau * h)
                limit = rel_tol * np.linalg.norm(numeric[name]) + floor
                if err > limit:
                    return CheckResult(
                        "gradients",
                        False,
                        f"seed {s} probe {probe} group {name}: "
                        f"err {err:.3e} > limit {limit:.3e}",
                    )
    return CheckResult(
        "gradients",
        True,
        f"{n_seeds} seeds x {n_probes} probes of 1 or 3 rows, "
        f"rel tol {rel_tol:g} plus rounding floor",
    )


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
