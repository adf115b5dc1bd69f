import re

import numpy as np
import pytest

import adaptcl.metrics
import adaptcl.model
import adaptcl.verify
from adaptcl.adaptation import acl_loss
from adaptcl.errors import DegenerateVector
from adaptcl.metrics import BoundReport, check_loss_threshold, check_markov_bound
from adaptcl.model import Classifier, classify, embed
from adaptcl.numerics import l2_normalize, make_rng
from adaptcl.verify import (
    VerifySizes,
    _campaign,
    _gradient_probes,
    _numeric_gradients,
    _random_units,
    _rounding_floor,
    finite_diff_grad,
    run_all,
    run_gradient_battery,
    run_lemma1,
    run_lemma2,
    run_markov,
    run_stability,
    run_threshold,
)

SMALL = VerifySizes(
    lemma1_pairs=100,
    lemma2_sets=5,
    lemma2_probes=20,
    threshold_draws=500,
    markov_batches=20,
    stability_draws=100,
    grad_seeds=1,
    grad_probes=3,
)


def test_all_campaigns_pass():
    results = run_all(seed=0, sizes=SMALL)
    assert all(r.passed for r in results), [r.detail for r in results if not r.passed]


def test_zero_sizes_vacuous():
    sizes = VerifySizes(
        lemma1_pairs=0,
        lemma2_sets=0,
        threshold_draws=0,
        markov_batches=0,
        stability_draws=0,
        grad_seeds=0,
    )
    results = run_all(seed=0, sizes=sizes)
    assert all(r.passed for r in results)
    assert all(r.vacuous for r in results)


def test_campaign_without_reports_is_vacuous():
    result = _campaign("c", iter(()), "0 draws")
    assert result.passed and result.vacuous
    assert result.detail == "0 draws, nothing checked"


def test_campaign_names_first_failing_report():
    # the reports after the first failure are never made
    made = []

    def reports():
        for i, rhs in enumerate([2.0, 0.5, 0.25, 3.0]):
            made.append(i)
            yield BoundReport(f"case {i}", 1.0, rhs, tolerance=0.0)

    result = _campaign("c", reports(), "4 cases")
    assert not result.passed and not result.vacuous
    assert result.detail == "case 1: lhs=1.0 rhs=0.5"
    assert made == [0, 1]


def test_campaign_pass_names_tightest_slack():
    reports = [BoundReport(f"case {i}", 1.0, rhs, 0.0) for i, rhs in enumerate([3.0, 1.5, 2.0])]
    result = _campaign("c", reports, "3 cases")
    assert result.passed and not result.vacuous
    assert result.detail == "3 cases, tightest slack 5.00e-01 (case 1)"


def test_failure_details_print_plain_floats(monkeypatch):
    # a NumPy 2 scalar field would print as np.float64(...): every campaign
    # fails at its first report, then lemma2 alone at its first gradient report
    for failing, n_failed in (("", 6), ("gradient at mean", 1)):
        monkeypatch.setattr(BoundReport, "passed", property(lambda r: failing not in r.context))
        failed = [r for r in run_all(seed=0, sizes=SMALL) if not r.passed]
        assert len(failed) == n_failed
        for r in failed:
            assert "np.float64(" not in r.detail, r.detail
            assert "lhs=" in r.detail and "rhs=" in r.detail


def test_sign_flip_mutation_caught(monkeypatch):
    # canary: a corrupted analytic gradient must fail the battery
    real_backprop = adaptcl.model.backprop

    def flipped(tape, backbone, d_embedding):
        grads = real_backprop(tape, backbone, d_embedding)
        grads.flat *= -1.0
        return grads

    monkeypatch.setattr(adaptcl.model, "backprop", flipped)
    result = run_gradient_battery(0, 1, 3)
    assert not result.passed


def test_dropped_group_mutation_caught(monkeypatch):
    # a backprop that leaves out the gradient of one parameter array must fail
    # the battery and name that array
    real_backprop = adaptcl.model.backprop

    def without_down(tape, backbone, d_embedding):
        grads = real_backprop(tape, backbone, d_embedding)
        grads.down[:] = 0.0
        return grads

    monkeypatch.setattr(adaptcl.model, "backprop", without_down)
    result = run_gradient_battery(0, 1, 3)
    assert not result.passed
    assert "group adapter.down" in result.detail


def test_row_zero_only_mutation_caught(monkeypatch):
    # a backprop that drops every batch row but the first must fail the battery
    real_backprop = adaptcl.model.backprop

    def row_zero_only(tape, backbone, d_embedding):
        kept = np.array(d_embedding)
        if kept.ndim == 2:
            kept[1:] = 0.0
        return real_backprop(tape, backbone, kept)

    monkeypatch.setattr(adaptcl.model, "backprop", row_zero_only)
    result = run_gradient_battery(0, 1, 3)
    assert not result.passed
    assert "probe 1 " in result.detail


def test_lemma2_shifted_point_mutation_caught(monkeypatch):
    # the gradient check must fail when it probes the renormalized prototype
    # instead of the mean
    real_grad = adaptcl.verify._mean_sq_distance_grad

    def at_prototype(e, z, h):
        return real_grad(e, z / np.linalg.norm(z), h)

    assert run_lemma2(0, 5, 20).passed
    monkeypatch.setattr(adaptcl.verify, "_mean_sq_distance_grad", at_prototype)
    result = run_lemma2(0, 5, 20)
    assert not result.passed
    assert "lhs=" in result.detail


@pytest.mark.parametrize("seed", [0, 1, 59])
def test_lemma2_gradient_bits_equal_finite_diff_grad(seed):
    # the one-pass central difference at the mean is finite_diff_grad's, bit
    # for bit, on sets drawn as run_lemma2 draws them
    rng = make_rng(seed, 12)
    for _ in range(20):
        e = _random_units(rng, int(rng.integers(2, 51)), 16)
        mean = e.mean(axis=0)
        one_pass = adaptcl.verify._mean_sq_distance_grad(e, mean, 0.5)
        loss = lambda p: adaptcl.metrics.mean_sq_distance(e, p["z"])  # noqa: E731
        per_coordinate = finite_diff_grad(loss, {"z": mean.copy()}, 0.5)["z"]
        assert one_pass.tobytes() == per_coordinate.tobytes()


def test_lemma1_mutation_caught(monkeypatch):
    # vectors normalized by a norm one part in 1e6 too large must fail the identity
    real_normalize = adaptcl.verify.l2_normalize
    assert run_lemma1(0, SMALL.lemma1_pairs).passed
    monkeypatch.setattr(adaptcl.verify, "l2_normalize", lambda v: real_normalize(v) / (1 + 1e-6))
    result = run_lemma1(0, SMALL.lemma1_pairs)
    assert not result.passed
    assert "lhs=" in result.detail


def _drop_target_from_denominator(monkeypatch):
    # the contrastive loss with the target class left out of its denominator:
    # log sum_{c != y} exp((s_c - s_y) / tau), which is log(exp(loss) - 1)
    real_acl_losses = adaptcl.verify.acl_losses

    def mutated(e, y, table, tau):
        return np.log(np.expm1(real_acl_losses(e, y, table, tau)))

    monkeypatch.setattr(adaptcl.verify, "acl_losses", mutated)


def test_threshold_mutation_caught(monkeypatch):
    assert run_threshold(0, SMALL.threshold_draws).passed
    _drop_target_from_denominator(monkeypatch)
    result = run_threshold(0, SMALL.threshold_draws)
    assert not result.passed
    assert "lhs=" in result.detail


def test_threshold_reports_first_violation(monkeypatch):
    # the named batch is the earliest failing one: the draws before it pass
    # and the draws through it fail, since the first k draws are the same for
    # every size (seed 7 first fails in a later batch, at draws 132-152)
    _drop_target_from_denominator(monkeypatch)
    for seed in (0, 7):
        detail = run_threshold(seed, VerifySizes().threshold_draws).detail
        first, last = map(int, re.match(r"draws (\d+)-(\d+): lhs=", detail).groups())
        assert run_threshold(seed, first).passed
        shorter = run_threshold(seed, last + 1)
        assert not shorter.passed
        assert shorter.detail == detail


def _counted(monkeypatch, name):
    """Calls of adaptcl.verify.<name>, counted from now on."""
    real, calls = getattr(adaptcl.verify, name), []

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(adaptcl.verify, name, counted)
    return calls


def test_threshold_checks_batches(monkeypatch):
    # one classify and one acl_losses call per batch, and one normalization
    # pass per block of about 18 batches, not one per batch
    scored = [_counted(monkeypatch, name) for name in ("classify", "acl_losses")]
    batches = _counted(monkeypatch, "check_loss_threshold")
    blocks = _counted(monkeypatch, "l2_normalize")
    assert run_threshold(0, VerifySizes().threshold_draws).passed
    assert 0 < len(blocks) <= len(batches) / 15
    for calls in scored:
        assert len(calls) == len(batches)


def test_stability_checks_blocks(monkeypatch):
    # one stacked check per block of draws, not one per draw
    calls = _counted(monkeypatch, "check_stability_bounds")
    draws = VerifySizes().stability_draws
    assert run_stability(0, draws).passed
    assert 0 < len(calls) <= -(-draws // (adaptcl.verify.BLOCK_FLOATS // (6 * 16)))


def test_random_units():
    # the same normals as per-vector draws, and a zero row raises as
    # l2_normalize does
    class ZeroRow:
        def standard_normal(self, shape):
            v = np.ones(shape)
            v[1] = 0.0
            return v

    rng = make_rng(0)
    per_vector = [l2_normalize(rng.standard_normal(3)) for _ in range(4)]
    np.testing.assert_allclose(_random_units(make_rng(0), 4, 3), per_vector, rtol=0, atol=1e-15)
    with pytest.raises(DegenerateVector):
        _random_units(ZeroRow(), 3, 4)


def test_markov_mutation_caught(monkeypatch):
    assert run_markov(0, SMALL.markov_batches).passed
    _drop_target_from_denominator(monkeypatch)
    result = run_markov(0, SMALL.markov_batches)
    assert not result.passed
    assert "lhs=" in result.detail


def test_stability_mutation_caught(monkeypatch):
    # the bound without its factor 2, at the campaign's default size and at
    # 100 draws, which its midpoint prototypes make fail
    sizes = (VerifySizes().stability_draws, 100)
    real_check = adaptcl.verify.check_stability_bounds

    def without_factor_two(*args, **kwargs):
        reports = real_check(*args, **kwargs)
        for report in reports:
            report.rhs /= 2
        return reports

    for draws in sizes:
        assert run_stability(0, draws).passed
    monkeypatch.setattr(adaptcl.verify, "check_stability_bounds", without_factor_two)
    for draws in sizes:
        result = run_stability(0, draws)
        assert not result.passed
        assert "lhs=" in result.detail


def _reference_batches(rng, dim):
    # the per-batch draws the block passes must reproduce
    while True:
        n_classes = int(rng.integers(2, 9))
        tau = float(rng.uniform(0.02, 0.5))
        table = Classifier(list(range(n_classes)), _random_units(rng, n_classes, dim))
        n = int(rng.integers(5, 40))
        yield table, tau, _random_units(rng, n, dim), rng.integers(n_classes, size=n)


def _reference_threshold(seed, n_draws, dim=16):
    # one classify and one acl_loss call per batch, the last batch cut to n_draws
    batches, done = _reference_batches(make_rng(seed, 13), dim), 0
    while done < n_draws:
        table, tau, e, y = next(batches)
        e, y = e[: n_draws - done], y[: n_draws - done]
        pred, _ = classify(table, e)
        loss, _ = acl_loss(e, y, table, tau)
        yield check_loss_threshold(loss, pred != y, f"draws {done}-{done + len(y) - 1}")
        done += len(y)


def _reference_markov(seed, n_batches, dim=16):
    batches = _reference_batches(make_rng(seed, 14), dim)
    for i, (table, tau, e, y) in zip(range(n_batches), batches):
        pred, _ = classify(table, e)
        losses, _ = acl_loss(e, y, table, tau)
        yield check_markov_bound(losses, pred == y, context=f"batch {i}")


def _reference_stability(seed, n_draws, dim=16):
    # one unit triple per draw, and the bound's formula on its (1, dim) rows
    rng = make_rng(seed, 15)
    for i in range(n_draws):
        old = _random_units(rng, 1, dim)
        new = _random_units(rng, 1, dim)
        p = l2_normalize(old[0] + new[0])[None] if i % 2 else _random_units(rng, 1, dim)
        lhs = float(np.mean(np.sum((new - old) ** 2, axis=1)))
        rhs = 2.0 * (
            float(np.mean(np.sum((new - p) ** 2, axis=1)))
            + float(np.mean(np.sum((old - p) ** 2, axis=1)))
        )
        yield BoundReport(f"draw {i}", lhs, rhs, 1e-9)


def _campaign_reports(monkeypatch, run, *args):
    """(context, lhs, rhs) of every report of run(*args), in order."""
    real, seen = adaptcl.verify._campaign, []

    def capturing(name, reports, cases):
        reports = list(reports)
        seen.extend((r.context, r.lhs, r.rhs) for r in reports)
        return real(name, reports, cases)

    monkeypatch.setattr(adaptcl.verify, "_campaign", capturing)
    run(*args)
    monkeypatch.setattr(adaptcl.verify, "_campaign", real)
    return seen


@pytest.mark.parametrize(
    "seed, threshold_draws",
    # at 88 and 139 draws of seed 0 the last batch is cut to one row in a
    # block with another batch of its class count
    [(0, None), (7, None), (59, None), (0, 88), (0, 139)],
)
def test_block_campaigns_equal_per_draw_reference(monkeypatch, seed, threshold_draws):
    # the block passes report the floats of one kernel call per batch or draw
    sizes = VerifySizes()
    cases = [
        (run_threshold, _reference_threshold, threshold_draws or sizes.threshold_draws),
        (run_markov, _reference_markov, sizes.markov_batches),
        (run_stability, _reference_stability, sizes.stability_draws),
    ]
    if threshold_draws:
        cases = cases[:1]
    for run, reference, size in cases:
        expected = [(r.context, r.lhs, r.rhs) for r in reference(seed, size)]
        assert _campaign_reports(monkeypatch, run, seed, size) == expected


def test_saturated_gradient_probe_passes():
    # seed 20 has a saturated probe whose numeric layer0.W gradient is 0 and
    # whose analytic one is 2.4e-11, both within rounding of the true value;
    # a purely relative test failed it
    sizes = VerifySizes()
    assert run_gradient_battery(20, sizes.grad_seeds, sizes.grad_probes).passed


def test_stacked_numeric_gradient_is_per_probe():
    # each probe's slice of the one-pass oracle is the central difference of
    # that probe's own summed loss, within the battery's rounding floor
    h = 1e-5
    backbone, table, probes = _gradient_probes(0, 0, VerifySizes().grad_probes)
    stacked = _numeric_gradients(backbone, table, probes, h)
    params = backbone.param_dict()
    for k, (x, y, tau) in enumerate(probes):

        def own_loss(_params, x=x, y=y, tau=tau):
            return float(np.sum(acl_loss(embed(backbone, x), y, table, tau)[0]))

        own = finite_diff_grad(own_loss, params, h)
        for name, g in own.items():
            assert stacked[name].shape == g.shape + (len(probes),)
            err = np.linalg.norm(stacked[name][..., k] - g)
            assert err <= _rounding_floor(len(y), g.size, tau, h), (k, name, err)


def test_gradient_oracle_batches_probes(monkeypatch):
    # one embed call per side of each of the 39 coordinates, not one per
    # probe and side
    real_embed = adaptcl.verify.embed
    calls = []

    def counted(*args):
        calls.append(1)
        return real_embed(*args)

    monkeypatch.setattr(adaptcl.verify, "embed", counted)
    assert run_gradient_battery(0, 1, 10).passed
    assert 0 < len(calls) <= 2 * 39


def test_individual_campaigns_report_detail():
    assert "residual" in run_lemma1(0, 50).detail
    assert run_threshold(0, 100).passed
    assert run_markov(0, 10).passed
    assert run_stability(0, 50).passed
