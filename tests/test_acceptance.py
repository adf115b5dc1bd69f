"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Criteria 4, 5, 7, and 8 share one execution of the default benchmark
(5 seeds, adaptation on/off plus first-task-only) through the CLI runner.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from adaptcl.cli import cmd_run, load_config
from adaptcl.metrics import (
    avg_incremental_accuracy,
    forgetting,
    last_accuracy,
    plasticity,
)
from adaptcl.numerics import l2_normalize, make_rng
from adaptcl.verify import run_gradient_battery, run_threshold, verify_lemma1, verify_lemma2

LOG2 = math.log(2.0)
DEFAULT_CFG = Path(__file__).resolve().parent.parent / "configs" / "default.cfg"


def _report(criterion, passed, detail=""):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} {detail}")
    assert passed, detail


def _read_metrics(out):
    rows = {}
    for line in (out / "metrics.csv").read_text().splitlines()[1:]:
        run_id, seed, mode, la, aia, fg, pl = line.split(",")
        rows[(mode, int(seed))] = {
            "LA": float(la),
            "AIA": float(aia),
            "forgetting": float(fg) if fg else None,
            "plasticity": float(pl),
        }
    return rows


@pytest.fixture(scope="module")
def default_runs(tmp_path_factory):
    out = tmp_path_factory.mktemp("default_bench")
    config = load_config(DEFAULT_CFG, {"run.out": out / "main"})
    t0 = time.perf_counter()
    code = cmd_run(config)
    assert code == 0, "default benchmark run failed"

    fto_text = DEFAULT_CFG.read_text().replace(
        "adapt.first_task_only = false", "adapt.first_task_only = true"
    ).replace("adapt.modes = acl,disabled", "adapt.modes = acl")
    fto_path = out / "fto.cfg"
    fto_path.write_text(fto_text)
    fto_config = load_config(fto_path, {"run.out": out / "fto"})
    assert cmd_run(fto_config) == 0, "first-task-only run failed"
    elapsed = time.perf_counter() - t0
    return {
        "main": out / "main",
        "fto": out / "fto",
        "seeds": config.run_seeds,
        "elapsed": elapsed,
    }


def test_criterion_1_distance_cosine_identity():
    t0 = time.perf_counter()
    worst = 0.0
    for dim in (2, 16, 64):
        worst = max(worst, verify_lemma1(1000, dim, make_rng(0, 1, dim)))
    elapsed = time.perf_counter() - t0
    _report(
        1,
        worst <= 1e-12 and elapsed < 1.0,
        f"max residual {worst:.2e} over d in {{2,16,64}}, {elapsed:.2f}s",
    )


def test_criterion_2_mean_minimizer():
    t0 = time.perf_counter()
    rng = make_rng(0, 2)
    ok = True
    for _ in range(20):
        n = int(rng.integers(2, 60))
        dim = int(rng.integers(2, 32))
        embeds = np.stack([l2_normalize(rng.standard_normal(dim)) for _ in range(n)])
        r, gradient = verify_lemma2(embeds, rng, n_probes=100)
        ok &= r.passed and gradient.lhs <= 1e-12
    elapsed = time.perf_counter() - t0
    _report(2, ok and elapsed < 5.0, f"20 sets x 100 probes, {elapsed:.2f}s")


def test_criterion_3_misclassification_threshold():
    result = run_threshold(0, 10000)
    _report(3, result.passed, result.detail)


def _bounds_rows(out, prefix):
    rows = []
    for line in (out / "bounds.csv").read_text().splitlines()[1:]:
        context, lhs, rhs, slack, ok = line.split(",")
        if context.startswith(prefix):
            rows.append((context, float(lhs), float(rhs), ok == "True"))
    return rows


def test_criterion_4_markov_bound(default_runs):
    rows = _bounds_rows(default_runs["main"], "markov")
    violations = [r for r in rows if not r[3]]
    _report(
        4,
        rows and not violations,
        f"{len(rows)} markov rows across 5 seeds, {len(violations)} violations",
    )


def test_criterion_5_stability_bound(default_runs):
    rows = _bounds_rows(default_runs["main"], "stability")
    violations = [r for r in rows if not r[3]]
    _report(
        5,
        rows and not violations,
        f"{len(rows)} stability rows across 5 seeds, {len(violations)} violations",
    )


def test_criterion_6_gradient_correctness():
    t0 = time.perf_counter()
    result = run_gradient_battery(0, n_seeds=3, n_probes=10)
    elapsed = time.perf_counter() - t0
    _report(6, result.passed and elapsed < 30.0, f"{result.detail}, {elapsed:.2f}s")


def test_criterion_7_directional_reproduction(default_runs):
    metrics = _read_metrics(default_runs["main"])
    seeds = default_runs["seeds"]
    la_gap = [(metrics[("acl", s)]["LA"], metrics[("disabled", s)]["LA"]) for s in seeds]
    per_seed = all(a > d for a, d in la_gap)
    plas_acl = np.mean([metrics[("acl", s)]["plasticity"] for s in seeds])
    plas_frozen = np.mean([metrics[("disabled", s)]["plasticity"] for s in seeds])
    forg_acl = np.mean([metrics[("acl", s)]["forgetting"] for s in seeds])
    forg_frozen = np.mean([metrics[("disabled", s)]["forgetting"] for s in seeds])
    runtime_ok = default_runs["elapsed"] < 300.0
    _report(
        7,
        per_seed
        and plas_acl > plas_frozen
        and forg_acl <= forg_frozen + 0.05
        and runtime_ok,
        f"LA gaps {[round(a - d, 3) for a, d in la_gap]}, "
        f"plasticity {plas_acl:.3f} vs {plas_frozen:.3f}, "
        f"forgetting {forg_acl:.3f} vs {forg_frozen:.3f}, "
        f"{default_runs['elapsed']:.0f}s",
    )


def test_criterion_8_ablation_direction(default_runs):
    metrics = _read_metrics(default_runs["main"])
    fto_metrics = _read_metrics(default_runs["fto"])
    seeds = default_runs["seeds"]
    la_continual = np.mean([metrics[("acl", s)]["LA"] for s in seeds])
    la_first = np.mean([fto_metrics[("acl", s)]["LA"] for s in seeds])
    la_frozen = np.mean([metrics[("disabled", s)]["LA"] for s in seeds])
    _report(
        8,
        la_continual >= la_first >= la_frozen,
        f"continual {la_continual:.4f} >= first-only {la_first:.4f} >= frozen {la_frozen:.4f}",
    )


def test_criterion_9_metric_hand_matrices():
    cases = [
        # (rows, LA, AIA, forgetting, plasticity)
        ([[1.0]], 1.0, 1.0, None, 1.0),
        ([[0.9], [0.8, 0.7]], 0.75, 0.825, 0.1, 0.8),
        ([[0.9], [0.95, 0.7]], 0.825, 0.8625, -0.05, 0.825),
        ([[0.5], [0.5, 0.5], [0.5, 0.5, 0.5]], 0.5, 0.5, 0.0, 0.5),
        (
            [[0.8], [0.6, 0.9], [0.4, 0.5, 0.6]],
            0.5,
            (0.8 + 0.75 + 0.5) / 3,
            (0.4 + 0.4) / 2,
            (0.8 + 0.9 + 0.6) / 3,
        ),
        (
            [[0.6], [0.7, 0.5], [0.7, 0.6, 0.4], [0.5, 0.4, 0.45, 0.3]],
            (0.5 + 0.4 + 0.45 + 0.3) / 4,
            (0.6 + 0.6 + (0.7 + 0.6 + 0.4) / 3 + (0.5 + 0.4 + 0.45 + 0.3) / 4) / 4,
            ((0.7 - 0.5) + (0.6 - 0.4) + (0.4 - 0.45)) / 3,
            (0.7 + 0.6 + 0.45 + 0.3) / 4,
        ),
    ]
    ok = True
    for rows, la, aia, forg, plas in cases:
        ok &= abs(last_accuracy(rows) - la) < 1e-12
        ok &= abs(avg_incremental_accuracy(rows) - aia) < 1e-12
        ok &= abs(plasticity(rows) - plas) < 1e-12
        if forg is not None:
            ok &= abs(forgetting(rows) - forg) < 1e-12
    _report(9, ok, f"{len(cases)} hand matrices match exactly")


def test_criterion_10_determinism(tmp_path):
    config1 = load_config(DEFAULT_CFG, {"run.seeds": "1993", "run.out": tmp_path / "a"})
    config2 = load_config(DEFAULT_CFG, {"run.seeds": "1993", "run.out": tmp_path / "b"})
    assert cmd_run(config1) == 0
    assert cmd_run(config2) == 0
    names = ("accuracy_matrix_acl_1993.csv", "metrics.csv", "bounds.csv")
    same = all(
        (tmp_path / "a" / n).read_bytes() == (tmp_path / "b" / n).read_bytes()
        for n in names
    )
    _report(10, same, "byte-identical CSVs across repeated invocations")
