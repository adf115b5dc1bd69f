import contextlib
import io
import json
import os
import subprocess
import sys
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import adaptcl.adaptation
import adaptcl.cli
import adaptcl.continual
import adaptcl.data
import adaptcl.verify
from adaptcl.cli import CONFIG_KEYS, RETIRED_KEYS, config_text, load_config, main, parse_config
from adaptcl.errors import ConfigError, NonFiniteLoss
from adaptcl.model import ModelConfig, init_model, save_checkpoint
from adaptcl.numerics import make_rng

TINY_CFG = """
data.input_dim = 8
data.n_pretrain_classes = 4
data.n_incremental_classes = 4
data.n_tasks = 2
data.train_per_class = 15
data.test_per_class = 8
data.sigma = 0.3
data.domain_shift = 2.0
data.seed = 1
model.embed_dim = 6
model.hidden = 12
model.adapter_rank = 3
pretrain.epochs = 5
adapt.epochs = 1
adapt.batch_size = 8
adapt.modes = acl
run.seeds = 11
"""


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY_CFG)
    return path


class TestConfigErrors:
    def test_missing_required_key(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("data.sigma = 0.3\n")
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        assert not (tmp_path / "o").exists()

    def test_seeds_override_supplies_required_key(self, tmp_path, capsys):
        path = tmp_path / "no_seeds.cfg"
        path.write_text(TINY_CFG.replace("run.seeds = 11\n", ""))
        argv = ["run", "--config", str(path), "--out", str(tmp_path / "o")]
        assert main(argv) == 2
        assert "missing required key 'run.seeds'" in capsys.readouterr().err
        assert main(argv + ["--seeds", "5"]) == 0
        assert len((tmp_path / "o" / "metrics.csv").read_text().splitlines()) == 2

    def test_unknown_key(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("run.seeds = 1\nnot.a.key = 2\n")
        assert main(["run", "--config", str(path)]) == 2

    @pytest.mark.parametrize(
        "line",
        [
            "data.sigma = -1",
            "adapt.batch_size = 0",
            "adapt.batch_size = -4",
            "model.adapter_rank = -1",
            "pretrain.epochs = -1",
            "core.epochs = -3",
            "data.sigma = nan",
            "adapt.temperature = nan",
            "data.domain_shift = inf",
            "core.lr = -inf",
            "adapt.modes = disabled,acl,disabled",
            "adapt.modes = acl,lightweight_only",
            "run.seeds = 5,5",
            "run.seeds = 1\nrun.seeds = 2",
            "data.input_dim = 0",
            "run.seeds = -1",
            "run.seeds = 18446744073709551616",
            "run.seeds = -1,18446744073709551615",
            "data.seed = -1",
            "data.seed = 18446744073709551616",
            "run.out =",
        ],
        ids=[
            "sigma-negative",
            "batch-size-zero",
            "batch-size-negative",
            "adapter-rank-negative",
            "pretrain-epochs-negative",
            "core-epochs-negative",
            "sigma-nan",
            "temperature-nan",
            "domain-shift-inf",
            "core-lr-minus-inf",
            "mode-repeated",
            "mode-retired",
            "seed-repeated",
            "key-repeated",
            "input-dim-zero",
            "seed-negative",
            "seed-2-to-the-64",
            "seed-aliasing-the-largest",
            "data-seed-negative",
            "data-seed-2-to-the-64",
            "out-empty",
        ],
    )
    def test_bad_value(self, tmp_path, capsys, monkeypatch, line):
        # a case that sets run.seeds stands alone: a second line would repeat the key
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "bad.cfg"
        seeds = "" if line.startswith("run.seeds") else "run.seeds = 1\n"
        path.write_text(f"{seeds}{line}\n")
        assert main(["run", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert [p.name for p in tmp_path.iterdir()] == ["bad.cfg"]

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize("flag", ["--seeds=", "--out="])
    def test_empty_override(self, tiny_config, tmp_path, capsys, monkeypatch, command, flag):
        # an empty --seeds or --out is an error, not the config's value
        monkeypatch.chdir(tmp_path)
        argv = [command, "--config", str(tiny_config), flag]
        if command == "sweep":
            argv += ["--axis", "epochs", "--values", "1"]
        if flag == "--seeds=":
            argv += ["--out", "o"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert [p.name for p in tmp_path.iterdir()] == [tiny_config.name]

    def test_missing_file(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.cfg")]) == 2

    def test_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_bytes(b"run.seeds = 1\ndata.sigma = \xff\n")
        assert main(["run", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1

    def test_non_finite_sweep_value(self, tiny_config, tmp_path, capsys):
        # a bad value exits 2 before any cell runs, the good one before it included
        argv = ["sweep", "--config", str(tiny_config), "--axis", "temperature"]
        for values, reason in [
            ("0.1,nan", "sweep value 'nan': adapt.temperature must be finite"),
            ("0.1,-1", "sweep value '-1': adapt: temperature must be positive"),
        ]:
            assert main(argv + ["--values", values, "--out", str(tmp_path / "o")]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"config error: {reason}") and err.count("\n") == 1
            assert not (tmp_path / "o").exists()

    def test_repeated_sweep_value(self, tiny_config, tmp_path, capsys):
        argv = ["sweep", "--config", str(tiny_config), "--axis", "epochs", "--values", "1,2,1"]
        assert main(argv + ["--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err == "config error: --values repeats '1'\n"
        assert not (tmp_path / "o").exists()
        # two texts of one value repeat it too
        for axis, values, value in [("epochs", "1,01", "1"), ("temperature", "0.1,0.10", "0.1")]:
            argv = ["sweep", "--config", str(tiny_config), "--axis", axis, "--values", values]
            assert main(argv + ["--out", str(tmp_path / "o")]) == 2
            assert capsys.readouterr().err == f"config error: --values repeats '{value}'\n"
            assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("axis", ["run.seeds", "run.out", "nope", "adapt.nope"])
    def test_bad_sweep_axis(self, tiny_config, tmp_path, capsys, axis):
        argv = ["sweep", "--config", str(tiny_config), "--axis", axis, "--values", "1"]
        assert main(argv + ["--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert not (tmp_path / "o").exists()

    def test_nul_byte_in_out(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("run.seeds = 1\nrun.out = a\0b\n")
        assert main(["run", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: run.out") and err.count("\n") == 1

    @pytest.mark.parametrize("name", ["a#b", "out\n", "out ", "a\rb"])
    def test_out_override_a_config_line_cannot_hold(self, tiny_config, tmp_path, capsys, name):
        # the manifest records run.out as a config line, where '#' starts a
        # comment, a line break ends the line and outer spaces are stripped
        assert main(["run", "--config", str(tiny_config), "--out", str(tmp_path / name)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: run.out") and err.count("\n") == 1
        assert not (tmp_path / name).exists()

    def test_out_path_is_a_file(self, tiny_config, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert main(["run", "--config", str(tiny_config), "--out", str(blocker)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1


REPO = Path(__file__).resolve().parents[1]

# the config text of a manifest written while core.tune_adapter,
# adapt.momentum, metrics.plasticity and model.activation were keys
RETIRED_KEY_MANIFEST_CONFIG = """data.input_dim = 32
data.n_pretrain_classes = 10
data.n_incremental_classes = 8
data.n_tasks = 4
data.train_per_class = 100
data.test_per_class = 50
data.sigma = 0.3
data.domain_shift = 2.0
data.seed = 0
model.embed_dim = 16
model.hidden = 64,64
model.activation = tanh
model.adapter_rank = 8
pretrain.epochs = 30
pretrain.lr = 0.05
adapt.temperature = 0.1
adapt.epochs = 1
adapt.lr = 0.05
adapt.batch_size = 16
adapt.momentum = 0.0
adapt.first_task_only = false
adapt.modes = acl,disabled
core.strategy = ncm
core.epochs = 10
core.lr = 0.1
core.tune_adapter = false
metrics.plasticity = best_ever
run.seeds = 1993,1994,1995,1996,1997
run.out = out
"""


class TestSchema:
    def test_accepted_keys(self):
        assert set(CONFIG_KEYS) == {
            "data.input_dim",
            "data.n_pretrain_classes",
            "data.n_incremental_classes",
            "data.n_tasks",
            "data.train_per_class",
            "data.test_per_class",
            "data.sigma",
            "data.domain_shift",
            "data.seed",
            "model.embed_dim",
            "model.hidden",
            "model.adapter_rank",
            "pretrain.epochs",
            "pretrain.lr",
            "adapt.temperature",
            "adapt.epochs",
            "adapt.lr",
            "adapt.batch_size",
            "adapt.modes",
            "adapt.first_task_only",
            "core.strategy",
            "core.epochs",
            "core.lr",
            "run.seeds",
            "run.out",
        }
        table = (REPO / "README.md").read_text().split("### Config format")[1]
        table = table.split("\n### ")[0]
        assert [key for key in CONFIG_KEYS if f"`{key}`" not in table] == []
        rows = [line.split(" | ")[0] for line in table.splitlines() if line.startswith("| `")]
        named = {key for row in rows for key in row.split("`")[1::2]}
        assert named - set(CONFIG_KEYS) == set()
        assert len(CONFIG_KEYS) == 25
        config = load_config(REPO / "configs" / "default.cfg")
        assert config.run_seeds == (1993, 1994, 1995, 1996, 1997)
        assert load_config(REPO / "perfbench" / "default.cfg") == config

    def test_default_config_sets_every_key(self):
        lines = (REPO / "configs" / "default.cfg").read_text().splitlines()
        keys = [line.split("=")[0].strip() for line in lines if line.split("#")[0].strip()]
        assert sorted(keys) == sorted(CONFIG_KEYS)

    def test_retired_key_loads_only_as_false(self, tmp_path):
        # an old manifest's config reads as if it had none of its retired
        # lines; each retired key loads under its one value, in any case, only
        other = {
            "core.tune_adapter": "true",
            "adapt.momentum": "0.9",
            "metrics.plasticity": "immediate",
            "model.activation": "relu",
        }
        assert set(other) == set(RETIRED_KEYS)
        old = without = RETIRED_KEY_MANIFEST_CONFIG
        for key, value in RETIRED_KEYS.items():
            assert f"\n{key} = {value}\n" in without
            without = without.replace(f"\n{key} = {value}\n", "\n")
        config = parse_config(without)
        assert parse_config(old) == config
        for key, value in RETIRED_KEYS.items():
            for text in (value, value.upper(), value.title()):
                assert parse_config(f"{without}{key} = {text}\n") == config
            assert key not in config_text(parse_config(old))
            path = tmp_path / "retired.cfg"
            path.write_text(f"{without}{key} = {other[key]}\n")
            out = tmp_path / "o"
            code, err = _exit_and_stderr(["run", "--config", str(path), "--out", str(out)])
            assert code == 2 and _one_line(err, "config error:"), err
            assert f"{key!r} is retired; only '{key} = {value}' still loads" in err
            assert not out.exists()


class TestRun:
    def test_run_produces_artifacts(self, tiny_config, tmp_path):
        out = tmp_path / "out"
        assert main(["run", "--config", str(tiny_config), "--out", str(out)]) == 0
        assert (out / "accuracy_matrix_11.csv").exists()
        assert (out / "metrics.csv").exists()
        assert (out / "bounds.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"]["seed=11,mode=acl"] == "ok"
        assert "metrics.csv" in manifest["files"]

    def test_matrix_format(self, tiny_config, tmp_path):
        out = tmp_path / "out"
        main(["run", "--config", str(tiny_config), "--out", str(out)])
        lines = (out / "accuracy_matrix_11.csv").read_text().splitlines()
        assert lines[0] == "after_task,task_1,task_2,status"
        row1 = lines[1].split(",")
        assert row1[0] == "1" and row1[2] == "" and row1[3] == "ok"

    def test_disabled_baseline_no_bound_rows(self, tiny_config, tmp_path):
        cfg = tiny_config.read_text().replace("adapt.modes = acl", "adapt.modes = disabled")
        path = tiny_config.parent / "disabled.cfg"
        path.write_text(cfg)
        out = tmp_path / "out_disabled"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 0
        bounds = (out / "bounds.csv").read_text().splitlines()
        assert bounds == ["context,lhs,rhs,slack,pass"]

    def test_bounds_rows_pass(self, tiny_config, tmp_path):
        out = tmp_path / "out"
        main(["run", "--config", str(tiny_config), "--out", str(out)])
        rows = (out / "bounds.csv").read_text().splitlines()[1:]
        assert rows
        for row in rows:
            assert row.endswith(",True")

    def test_threshold_row_per_adapted_epoch(self, tiny_config, tmp_path):
        # ce_ablation does not score against the prototypes: no threshold check
        modes = ("acl", "ce_ablation")
        cfg = tiny_config.read_text().replace("adapt.epochs = 1", "adapt.epochs = 2")
        path = tiny_config.parent / "modes.cfg"
        path.write_text(cfg.replace("adapt.modes = acl", "adapt.modes = " + ",".join(modes)))
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 0
        rows = (out / "bounds.csv").read_text().splitlines()[1:]
        contexts = [row.split(",")[0].split("/", 1) for row in rows]

        def epochs(kind, mode):
            return [c for k, c in contexts if k == kind and c.startswith(f"mode={mode}/")]

        for mode in modes:
            assert len(epochs("markov", mode)) == 4  # 2 tasks x 2 epochs
            want = [] if mode == "ce_ablation" else epochs("markov", mode)
            assert epochs("threshold", mode) == want

    def test_threshold_row_is_tightest_batch(self, tiny_config, tmp_path, monkeypatch):
        # each epoch's batch reports come before its one stability check
        epochs = [[]]
        real_threshold = adaptcl.adaptation.check_loss_threshold
        real_stability = adaptcl.adaptation.check_stability_bound

        def threshold(*args, **kwargs):
            epochs[-1].append(real_threshold(*args, **kwargs))
            return epochs[-1][-1]

        def stability(*args, **kwargs):
            epochs.append([])
            return real_stability(*args, **kwargs)

        monkeypatch.setattr(adaptcl.adaptation, "check_loss_threshold", threshold)
        monkeypatch.setattr(adaptcl.adaptation, "check_stability_bound", stability)
        # at 2 epochs the tightest batches are the 4th, any (all inf), 2nd and 2nd
        path = tiny_config.parent / "two_epochs.cfg"
        path.write_text(tiny_config.read_text().replace("adapt.epochs = 1", "adapt.epochs = 2"))
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 0
        rows = [row.split(",") for row in (out / "bounds.csv").read_text().splitlines()[1:]]
        rhs = [float(r[2]) for r in rows if r[0].startswith("threshold/")]
        assert len(rhs) == len(epochs) - 1 == 4
        assert rhs == [min(r.rhs for r in batches) for batches in epochs[:-1]]

    def test_byte_identical_reruns(self, tiny_config, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["run", "--config", str(tiny_config), "--out", str(out1)])
        main(["run", "--config", str(tiny_config), "--out", str(out2)])
        for name in ("accuracy_matrix_11.csv", "metrics.csv", "bounds.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_plasticity_variant_invalid(self, tiny_config, tmp_path):
        cfg = tiny_config.read_text() + "metrics.plasticity = nope\n"
        path = tiny_config.parent / "bad_plas.cfg"
        path.write_text(cfg)
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "x")]) == 2

    def test_seeds_override(self, tiny_config, tmp_path):
        out = tmp_path / "out"
        assert (
            main(
                [
                    "run",
                    "--config",
                    str(tiny_config),
                    "--seeds",
                    "5,6",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        metrics = (out / "metrics.csv").read_text().splitlines()
        assert len(metrics) == 3  # header + 2 seeds


    def test_adapter_rank_zero_runs(self, tiny_config, tmp_path):
        path = tiny_config.parent / "rank0.cfg"
        path.write_text(tiny_config.read_text().replace("adapter_rank = 3", "adapter_rank = 0"))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 0

    def test_one_input_dimension_runs(self, tiny_config, tmp_path):
        path = tiny_config.parent / "dim1.cfg"
        path.write_text(tiny_config.read_text().replace("input_dim = 8", "input_dim = 1"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 0

    @pytest.mark.parametrize("strategy", ["ncm", "linear"])
    def test_one_class_per_task_acl_is_disabled(self, tiny_config, tmp_path, strategy):
        # ACL's softmax spans the current task's prototypes only: with one
        # class per task, its loss and gradient are exactly 0, so the adapted
        # model and every accuracy equal the frozen backbone's to the byte
        cfg = (
            tiny_config.read_text()
            .replace("n_incremental_classes = 4", "n_incremental_classes = 3")
            .replace("n_tasks = 2", "n_tasks = 3")
            .replace("adapt.modes = acl", "adapt.modes = acl,disabled")
        )
        path = tiny_config.parent / "one_class.cfg"
        path.write_text(cfg + f"core.strategy = {strategy}\n")
        out = tmp_path / "o"
        assert main(["run", "--config", str(path), "--seeds", "1,2", "--out", str(out)]) == 0
        assert "stability/mode=acl/seed=2/task=3/epoch=1," in (out / "bounds.csv").read_text()
        for seed in (1, 2):
            for stem, ext in (("accuracy_matrix", "csv"), ("model", "ckpt")):
                acl = (out / f"{stem}_acl_{seed}.{ext}").read_bytes()
                assert acl == (out / f"{stem}_disabled_{seed}.{ext}").read_bytes()

    @pytest.mark.parametrize(
        "command, n_calls",
        [
            (["run"], 1),
            (["sweep", "--axis", "epochs", "--values", "1,2,3"], 1),
            # a data.* key changes the data: once per cell
            (["sweep", "--axis", "data.domain_shift", "--values", "1,2,3"], 3),
            (["sweep", "--axis", "core.epochs", "--values", "1,2,3"], 1),
            # the data reads no pretrain.* key
            (["sweep", "--axis", "pretrain.epochs", "--values", "1,2,3"], 1),
        ],
        ids=["run", "sweep", "sweep-domain-shift", "sweep-core-epochs", "sweep-pretrain-epochs"],
    )
    def test_data_generated_once(self, tiny_config, tmp_path, monkeypatch, command, n_calls):
        import adaptcl.cli

        calls = []
        real = adaptcl.cli.generate_synthetic

        def counted(spec):
            calls.append(spec)
            return real(spec)

        monkeypatch.setattr(adaptcl.cli, "generate_synthetic", counted)
        cfg = tiny_config.read_text().replace("adapt.modes = acl", "adapt.modes = acl,disabled")
        path = tiny_config.parent / "two_modes.cfg"
        path.write_text(cfg)
        argv = [*command, "--config", str(path), "--seeds", "5,6", "--out", str(tmp_path / "o")]
        assert main(argv) == 0
        assert len(calls) == n_calls


class TestSweep:
    def test_temperature_sweep(self, tiny_config, tmp_path):
        out = tmp_path / "sweep"
        assert (
            main(
                [
                    "sweep",
                    "--config",
                    str(tiny_config),
                    "--axis",
                    "temperature",
                    "--values",
                    "0.1,0.5",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        agg = (out / "sweep.csv").read_text().splitlines()
        assert agg[0] == "axis,value,seed,mode,LA,AIA,forgetting,plasticity"
        assert len(agg) == 3
        assert (out / "sweep_temperature_0.1" / "metrics.csv").exists()

    def test_sweep_csv_rows_are_cell_metrics(self, tiny_config, tmp_path):
        # every row is axis,value and every field of the cell's metrics.csv
        # but its run_id, in cell order
        out = tmp_path / "sweep"
        argv = ["sweep", "--config", str(tiny_config), "--axis", "temperature"]
        assert main(argv + ["--values", "0.1,0.5", "--seeds", "5,6", "--out", str(out)]) == 0
        expected = ["axis,value,seed,mode,LA,AIA,forgetting,plasticity"]
        for value in ("0.1", "0.5"):
            metrics = (out / f"sweep_temperature_{value}" / "metrics.csv").read_text()
            for row in metrics.splitlines()[1:]:
                expected.append(f"temperature,{value}," + ",".join(row.split(",")[1:]))
        assert len(expected) == 1 + 2 * 2
        assert (out / "sweep.csv").read_bytes() == ("\n".join(expected) + "\n").encode()

    def test_single_value_equals_run(self, tiny_config, tmp_path):
        out = tmp_path / "sweep1"
        assert (
            main(
                [
                    "sweep",
                    "--config",
                    str(tiny_config),
                    "--axis",
                    "epochs",
                    "--values",
                    "1",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        assert (out / "sweep.csv").exists()

    @pytest.mark.parametrize(
        "axis, n_calls",
        # a data.* key changes the pretraining data: once per seed and cell;
        # a core.* key changes only the disabled runs
        [("epochs", 2), ("data.domain_shift", 6), ("core.epochs", 2)],
        ids=["epochs", "domain-shift", "core-epochs"],
    )
    def test_pretrains_once_per_seed(self, tiny_config, tmp_path, monkeypatch, axis, n_calls):
        import adaptcl.cli

        calls = []
        real = adaptcl.cli.pretrain_backbone

        def counted(backbone, data, config, rng):
            calls.append(config.epochs)
            return real(backbone, data, config, rng)

        monkeypatch.setattr(adaptcl.cli, "pretrain_backbone", counted)
        argv = ["sweep", "--config", str(tiny_config), "--axis", axis]
        argv += ["--values", "1,2,3", "--seeds", "5,6", "--out", str(tmp_path / "s")]
        assert main(argv) == 0
        assert len(calls) == n_calls

    @pytest.mark.parametrize(
        "axis, line, values",
        [
            ("epochs", "adapt.epochs = 1", ("1", "2")),
            # a sweep that reused the first cell's data or models fails this
            ("data.domain_shift", "data.domain_shift = 2.0", ("0.5", "4")),
            # and one that reused the first cell's disabled runs fails this
            ("core.epochs", "core.epochs = 2", ("1", "3")),
        ],
        ids=["epochs", "domain-shift", "core-epochs"],
    )
    def test_cells_match_standalone_runs(self, tiny_config, tmp_path, axis, line, values):
        text = tiny_config.read_text() + "core.strategy = linear\ncore.epochs = 2\n"
        text = text.replace("adapt.modes = acl", "adapt.modes = acl,disabled")
        path = tmp_path / "linear.cfg"
        path.write_text(text)
        sweep = tmp_path / "sweep"
        argv = ["sweep", "--config", str(path), "--axis", axis, "--values", ",".join(values)]
        assert main(argv + ["--seeds", "5,6", "--out", str(sweep)]) == 0
        key = line.partition(" =")[0]
        for value in values:
            cell_cfg = tmp_path / f"cell_{value}.cfg"
            cell_cfg.write_text(text.replace(line, f"{key} = {value}"))
            alone = tmp_path / f"run_{value}"
            argv = ["run", "--config", str(cell_cfg), "--seeds", "5,6", "--out", str(alone)]
            assert main(argv) == 0
            cell = sweep / f"sweep_{axis}_{value}"
            names = sorted(p.name for p in alone.iterdir() if p.name != "manifest.json")
            assert names == sorted(
                p.name for p in cell.iterdir() if p.name != "manifest.json"
            )
            assert any(n.endswith(".csv") for n in names)
            for name in names:
                assert (cell / name).read_bytes() == (alone / name).read_bytes(), name


    def test_cells_match_standalone_runs_disabled_first(self, tiny_config, tmp_path):
        # in this order the disabled run pretrains, and the acl runs reuse it
        text = tiny_config.read_text() + "core.strategy = linear\ncore.epochs = 2\n"
        text = text.replace("adapt.modes = acl", "adapt.modes = disabled,acl")
        path = tmp_path / "linear.cfg"
        path.write_text(text)
        sweep = tmp_path / "sweep"
        argv = ["sweep", "--config", str(path), "--axis", "epochs", "--values", "1,2"]
        assert main(argv + ["--seeds", "5,6", "--out", str(sweep)]) == 0
        for value in ("1", "2"):
            cell_cfg = tmp_path / f"cell_{value}.cfg"
            cell_cfg.write_text(text.replace("adapt.epochs = 1", f"adapt.epochs = {value}"))
            alone = tmp_path / f"run_{value}"
            argv = ["run", "--config", str(cell_cfg), "--seeds", "5,6", "--out", str(alone)]
            assert main(argv) == 0
            cell = sweep / f"sweep_epochs_{value}"
            names = sorted(p.name for p in alone.iterdir() if p.name != "manifest.json")
            assert names == sorted(
                p.name for p in cell.iterdir() if p.name != "manifest.json"
            )
            assert "model_disabled_6.ckpt" in names
            for name in names:
                assert (cell / name).read_bytes() == (alone / name).read_bytes(), name

    def test_cell_manifest_config_reads_back(self, tiny_config, tmp_path):
        # each cell's manifest holds the config the cell ran: the axis value,
        # the --seeds override and the cell's own run.out, also for a value
        # given with spaces around it
        out = tmp_path / "s"
        argv = ["sweep", "--config", str(tiny_config), "--axis", "epochs", "--values", "2, 3 "]
        assert main(argv + ["--seeds", "5,6", "--out", str(out)]) == 0
        base = load_config(tiny_config, {"run.seeds": "5,6"})
        for value in (2, 3):
            cell = out / f"sweep_epochs_{value}"
            path = tmp_path / f"cell_{value}.cfg"
            path.write_text(json.loads((cell / "manifest.json").read_text())["config"])
            config = load_config(path)
            assert config.adapt.epochs == value and config.run_seeds == (5, 6)
            assert config.run_out == cell
            assert config == replace(base, adapt=replace(base.adapt, epochs=value), run_out=cell)

    def _sweep_modes(self, tiny_config, tmp_path, monkeypatch, axis, values):
        """The mode of every run_acl call of a two-mode sweep over seeds 5
        and 6, and the sweep's output directory."""
        modes = []
        real = adaptcl.cli.run_acl

        def counted(stream, backbone, mode, *args, **kwargs):
            modes.append(mode)
            return real(stream, backbone, mode, *args, **kwargs)

        monkeypatch.setattr(adaptcl.cli, "run_acl", counted)
        path = tmp_path / "two_modes.cfg"
        path.write_text(
            tiny_config.read_text().replace("adapt.modes = acl", "adapt.modes = acl,disabled")
        )
        out = tmp_path / "s"
        argv = ["sweep", "--config", str(path), "--axis", axis]
        assert main(argv + ["--values", values, "--seeds", "5,6", "--out", str(out)]) == 0
        return modes, out

    def test_disabled_runs_once_per_seed(self, tiny_config, tmp_path, monkeypatch):
        args = tiny_config, tmp_path, monkeypatch, "temperature", "0.1,0.2,0.5"
        modes, out = self._sweep_modes(*args)
        assert modes.count("disabled") == 2 and modes.count("acl") == 6
        for value in ("0.1", "0.2", "0.5"):
            cell = out / f"sweep_temperature_{value}"
            for seed in (5, 6):
                assert (cell / f"accuracy_matrix_disabled_{seed}.csv").exists()
                assert (cell / f"model_disabled_{seed}.ckpt").exists()
            metrics = (cell / "metrics.csv").read_text().splitlines()[1:]
            assert sorted(row.split(",")[0] for row in metrics) == [
                "acl_5", "acl_6", "disabled_5", "disabled_6"
            ]

    def test_failed_disabled_run_shared(self, tiny_config, tmp_path, monkeypatch):
        # a failed disabled result is recorded by every cell, like a standalone run
        def fails(state, task_data):
            raise NonFiniteLoss("planted")

        monkeypatch.setattr(adaptcl.continual, "core_learn_ncm", fails)
        path = tmp_path / "disabled.cfg"
        path.write_text(
            tiny_config.read_text().replace("adapt.modes = acl", "adapt.modes = disabled")
        )
        out = tmp_path / "s"
        argv = ["sweep", "--config", str(path), "--axis", "epochs", "--values", "1,2"]
        assert main(argv + ["--out", str(out)]) == 1
        for value in ("1", "2"):
            cell = out / f"sweep_epochs_{value}"
            manifest = json.loads((cell / "manifest.json").read_text())
            assert manifest["status"] == {"seed=11,mode=disabled": "failed: NonFiniteLoss: planted"}
            assert manifest["failures"]["seed=11,mode=disabled"]["type"] == "NonFiniteLoss"
            assert (cell / "accuracy_matrix_11.csv").read_text().splitlines()[1:] == []


def _nudge_backbone_at_task(task):
    """A compute_prototypes for NCM core learning that moves one backbone
    entry by one ulp at its call for the given task: an entry of the
    backbone of its caller's state."""
    real, calls = adaptcl.continual.compute_prototypes, []

    def nudging(embeddings, labels):
        calls.append(1)
        if len(calls) == task:
            backbone = sys._getframe(1).f_locals["state"].backbone
            backbone.flat[0] = np.nextafter(backbone.flat[0], np.inf)
        return real(embeddings, labels)

    return nudging


class TestFailures:
    """A failed cell leaves its exception type and traceback in the manifest."""

    def test_non_finite_pretraining_loss(self, tiny_config, tmp_path, monkeypatch):
        real = adaptcl.data.ce_adapt_loss

        def nan_loss(e, labels, head):
            loss, *grads = real(e, labels, head)
            return (loss * np.nan, *grads)

        monkeypatch.setattr(adaptcl.data, "ce_adapt_loss", nan_loss)
        out = tmp_path / "o"
        assert main(["run", "--config", str(tiny_config), "--out", str(out)]) == 1
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"]["seed=11,mode=acl"].startswith(
            "failed: NonFiniteLoss: pretraining loss"
        )
        failure = manifest["failures"]["seed=11,mode=acl"]
        assert failure["type"] == "NonFiniteLoss"
        assert failure["traceback"].startswith("Traceback (most recent call last):")
        assert "in pretrain_backbone" in failure["traceback"]
        assert (
            "\nadaptcl.errors.NonFiniteLoss: pretraining loss: nan in 32 of 32 rows\n"
            in failure["traceback"]
        )
        assert "\n" not in manifest["status"]["seed=11,mode=acl"]
        assert (out / "metrics.csv").read_text() == "run_id,seed,mode,LA,AIA,forgetting,plasticity\n"

    def test_bound_violation(self, tiny_config, tmp_path, monkeypatch, capsys):
        real = adaptcl.adaptation.check_markov_bound

        def violated(*args, **kwargs):
            report = real(*args, **kwargs)
            report.lhs = report.rhs + 1.0
            return report

        monkeypatch.setattr(adaptcl.adaptation, "check_markov_bound", violated)
        out = tmp_path / "o"
        assert main(["run", "--config", str(tiny_config), "--out", str(out)]) == 1
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"]["seed=11,mode=acl"].startswith(
            "failed: BoundViolation: markov bound violated in epoch 1"
        )
        failure = manifest["failures"]["seed=11,mode=acl"]
        assert failure["type"] == "BoundViolation"
        assert "in run_acl" in failure["traceback"] and "in adapt" in failure["traceback"]
        assert failure["traceback"].splitlines()[-1].startswith(
            "adaptcl.errors.BoundViolation: markov bound violated"
        )
        rows = (out / "accuracy_matrix_11.csv").read_text().splitlines()
        assert rows == ["after_task,task_1,task_2,status"]
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(
            "error: seed=11,mode=acl: BoundViolation: markov bound violated in epoch 1: "
        )

    def test_freeze_violation(self, tiny_config, tmp_path, monkeypatch, capsys):
        # the frozen backbone moves in core learning of task 2: the cell
        # fails on one stderr line and keeps task 1's row
        monkeypatch.setattr(adaptcl.continual, "compute_prototypes", _nudge_backbone_at_task(2))
        out = tmp_path / "o"
        assert main(["run", "--config", str(tiny_config), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines() == [
            "error: seed=11,mode=acl: BoundViolation: "
            "frozen backbone bound violated in ncm core learning: 1 > 0"
        ]
        rows = (out / "accuracy_matrix_11.csv").read_text().splitlines()
        assert len(rows) == 2 and rows[1].startswith("1,") and rows[1].endswith(",failed")

    def test_freeze_violation_survives_optimize_flag(self, tiny_config, tmp_path):
        # python -O strips assert statements; the freeze checks must still fail the run
        code = (
            "import sys, adaptcl.continual, test_cli\n"
            "adaptcl.continual.compute_prototypes = test_cli._nudge_backbone_at_task(2)\n"
            "sys.exit(test_cli.main(sys.argv[1:]))\n"
        )
        argv = ["run", "--config", str(tiny_config), "--out", str(tmp_path / "o")]
        path = os.pathsep.join([str(REPO / "src"), str(REPO / "tests")])
        env = {**os.environ, "PYTHONPATH": path}
        done = subprocess.run(
            [sys.executable, "-O", "-c", code, *argv], env=env, capture_output=True, text=True
        )
        assert done.returncode == 1, done.stderr
        assert "BoundViolation: frozen backbone bound violated" in done.stderr

    def test_failed_cells_named_on_stderr(self, tiny_config, tmp_path, capsys):
        cfg = tiny_config.read_text().replace("adapt.modes = acl", "adapt.modes = acl,disabled")
        pretrain = "pretraining diverged in epoch 1: overflow encountered in multiply"
        adaptation = (
            "adaptation diverged in epoch 1: embedding norm inf: need a finite norm > 1e-08"
        )
        core = "core learning diverged in epoch 1: overflow encountered in "
        cases = {
            # pretraining diverges, so both cells of the seed fail before run_acl
            "pretrain.lr = 1e200": {
                "acl": ("failed: NonFiniteLoss: ", pretrain),
                "disabled": ("failed: NonFiniteLoss: ", pretrain),
            },
            # adaptation diverges; the disabled cell does not adapt and passes
            "adapt.lr = 1e200": {"acl": ("failed: NonFiniteLoss: ", adaptation)},
            # the head's core-learning step overflows in both cells
            "core.strategy = linear\ncore.lr = 1e308": {
                "acl": ("failed: NonFiniteLoss: ", core + "dot"),
                "disabled": ("failed: NonFiniteLoss: ", core + "subtract"),
            },
        }
        for i, (setting, cells) in enumerate(cases.items()):
            tiny_config.write_text(cfg + setting + "\n")
            out = tmp_path / f"o{i}"
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # divergence is reported, not warned about
                assert main(["run", "--config", str(tiny_config), "--out", str(out)]) == 1
            assert capsys.readouterr().err.splitlines() == [
                f"error: seed=11,mode={mode}: NonFiniteLoss: {reason}"
                for mode, (_, reason) in cells.items()
            ]
            manifest = json.loads((out / "manifest.json").read_text())
            for mode, (status, reason) in cells.items():
                assert manifest["status"][f"seed=11,mode={mode}"] == status + reason
            # every cell's time is recorded, a failed one's too
            assert set(manifest["wall_clock"]) == {"seed=11,mode=acl", "seed=11,mode=disabled"}

    @pytest.mark.parametrize(
        "setting",
        ["", "adapt.lr = 1e200", "pretrain.lr = 1e200"],
        ids=["ok", "adaptation-fails", "pretraining-fails"],
    )
    def test_directory_matches_manifest(self, tiny_config, tmp_path, setting):
        # an ok run, an adaptation failure and a pretraining failure: the
        # directory holds the manifest's files, with every cell's matrix
        cfg = tiny_config.read_text().replace("adapt.modes = acl", "adapt.modes = acl,disabled")
        tiny_config.write_text(cfg + setting + "\n")
        out = tmp_path / "o"
        code = main(["run", "--config", str(tiny_config), "--out", str(out)])
        assert code == (1 if setting else 0)
        files = json.loads((out / "manifest.json").read_text())["files"]
        assert sorted(p.name for p in out.iterdir()) == sorted(files + ["manifest.json"])
        assert len(set(files)) == len(files)
        assert {"accuracy_matrix_acl_11.csv", "accuracy_matrix_disabled_11.csv"} <= set(files)

    def test_huge_core_lr_head_only_passes(self, tiny_config, tmp_path, capsys):
        # a head-only linear core stays finite at this step size: the
        # per-epoch divergence guard must not fail it
        text = "core.strategy = linear\ncore.lr = 1e200\n"
        tiny_config.write_text(tiny_config.read_text() + text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", "--config", str(tiny_config), "--out", str(tmp_path / "o")]) == 0
        assert capsys.readouterr().err == ""

    def test_manifest_written_on_uncaught_exception(self, tiny_config, tmp_path, monkeypatch):
        real = adaptcl.cli.run_acl
        calls = []

        def raises_second(*args, **kwargs):
            calls.append(args[2])  # the mode
            if len(calls) == 2:
                raise TypeError("planted")
            return real(*args, **kwargs)

        monkeypatch.setattr(adaptcl.cli, "run_acl", raises_second)
        tiny_config.write_text(
            tiny_config.read_text().replace("adapt.modes = acl", "adapt.modes = acl,disabled")
        )
        out = tmp_path / "o"
        with pytest.raises(TypeError, match="planted"):
            adaptcl.cli.cmd_run(load_config(tiny_config, {"run.out": out}))
        assert calls == ["acl", "disabled"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == {"seed=11,mode=acl": "ok"}
        assert list(manifest["wall_clock"]) == ["seed=11,mode=acl"]
        assert manifest["failures"]["run"]["type"] == "TypeError"

    def test_no_failures_on_success(self, tiny_config, tmp_path):
        out = tmp_path / "o"
        assert main(["run", "--config", str(tiny_config), "--out", str(out)]) == 0
        assert json.loads((out / "manifest.json").read_text())["failures"] == {}

    @pytest.mark.parametrize(
        "message, line",
        [
            ("Unable to allocate 74.5 GiB", "error: Unable to allocate 74.5 GiB"),
            ("", "error: MemoryError"),
        ],
    )
    def test_data_that_does_not_fit(
        self, tiny_config, tmp_path, monkeypatch, capsys, message, line
    ):
        # data generation runs out of memory before any cell: one line, exit 1,
        # and the manifest is still written; no real memory is asked for
        def out_of_memory(spec):
            raise MemoryError(message)

        monkeypatch.setattr(adaptcl.cli, "generate_synthetic", out_of_memory)
        out = tmp_path / "o"
        assert main(["run", "--config", str(tiny_config), "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [line]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == {}
        assert manifest["failures"]["run"]["type"] == "MemoryError"

    def test_unwritable_artifact(self, tiny_config, tmp_path, capsys):
        # metrics.csv cannot be written after every cell ran: one line, exit 1,
        # and the manifest names the run's failure
        out = tmp_path / "o"
        (out / "metrics.csv").mkdir(parents=True)
        assert main(["run", "--config", str(tiny_config), "--out", str(out)]) == 1
        assert _one_line(capsys.readouterr().err, "error: [Errno 21] Is a directory")
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == {"seed=11,mode=acl": "ok"}
        assert manifest["failures"]["run"]["type"] == "IsADirectoryError"

    def test_overflowing_data(self, tiny_config, tmp_path, capsys):
        # data.sigma is finite, so the config check accepts it, but its draws
        # overflow: run and dump-embeddings each fail in one line, before any cell
        tiny_config.write_text(
            tiny_config.read_text().replace("data.sigma = 0.3", "data.sigma = 1e308")
        )
        line = "error: synthetic data generation failed: overflow encountered in multiply"
        out = tmp_path / "o"
        assert main(["run", "--config", str(tiny_config), "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [line]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["status"] == {}
        assert manifest["failures"]["run"]["type"] == "AdaptclError"
        checkpoint = tmp_path / "m.ckpt"
        model = ModelConfig(embed_dim=6, hidden=(12,), adapter_rank=3)
        save_checkpoint(checkpoint, init_model(model, 8, make_rng(0)))
        argv = ["dump-embeddings", "--config", str(tiny_config), "--checkpoint", str(checkpoint)]
        assert main(argv + ["--out", str(tmp_path / "e.csv")]) == 1
        assert capsys.readouterr().err.splitlines() == [line]
        assert not (tmp_path / "e.csv").exists()


class TestVerify:
    def test_verify_passes(self, capsys):
        small = (
            "lemma1_pairs=100,lemma2_sets=3,threshold_draws=200,"
            "markov_batches=10,stability_draws=50,grad_seeds=1,grad_probes=2"
        )
        # a --sizes item is read without its surrounding spaces
        for sizes in (small, "lemma1_pairs=1, grad_probes=2"):
            assert main(["verify", "--seed", "0", "--sizes", sizes]) == 0
            out = capsys.readouterr().out
            assert "PASS" in out and "FAIL" not in out

    def test_verify_zero_sizes_warns(self, capsys):
        sizes = (
            "lemma1_pairs=0,lemma2_sets=0,threshold_draws=0,"
            "markov_batches=0,stability_draws=0,grad_seeds=0"
        )
        assert main(["verify", "--sizes", sizes]) == 0
        assert "warning" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "sizes",
        [
            "foo",
            "lemma1_pairs=x",
            "not_a_size=3",
            "lemma1_pairs=-5",
            "__class__=3",
            "lemma1_pairs=0,lemma1_pairs=5",
        ],
    )
    def test_verify_malformed_sizes(self, sizes, capsys):
        assert main(["verify", "--sizes", sizes]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1

    def test_verify_seed_range(self, monkeypatch):
        # a seed is one Philox key word: -1 would print what 2^64 - 1 prints
        seeds = []
        monkeypatch.setattr(adaptcl.cli, "cmd_verify", lambda seed, sizes: seeds.append(seed) or 0)
        for seed in ("-1", "18446744073709551616"):
            code, err = _exit_and_stderr(["verify", "--seed", seed])
            assert code == 2 and _one_line(err, "config error: --seed must be in [0, 2^64), got")
        assert _exit_and_stderr(["verify", "--seed", "18446744073709551615"]) == (0, "")
        assert seeds == [2**64 - 1]


@pytest.fixture
def fresh_checkpoint(tmp_path):
    """An untrained checkpoint matching TINY_CFG's model shape."""
    path = tmp_path / "fresh.ckpt"
    cfg = ModelConfig(embed_dim=6, hidden=(12,), adapter_rank=3)
    save_checkpoint(path, init_model(cfg, 8, make_rng(0)))
    return path


class TestDumpEmbeddings:
    def test_dump(self, tiny_config, tmp_path):
        out = tmp_path / "out"
        main(["run", "--config", str(tiny_config), "--out", str(out)])
        emb = tmp_path / "embeddings.csv"
        assert (
            main(
                [
                    "dump-embeddings",
                    "--config",
                    str(tiny_config),
                    "--checkpoint",
                    str(out / "model_acl_11.ckpt"),
                    "--out",
                    str(emb),
                ]
            )
            == 0
        )
        lines = emb.read_text().splitlines()
        # 2 tasks x 2 classes x (15 train + 8 test) samples
        assert len(lines) == 1 + 2 * 2 * 23
        for line in lines[1:5]:
            vec = np.array([float(v) for v in line.split(",")[3:]])
            assert abs(np.linalg.norm(vec) - 1.0) <= 1e-9
        # a --splits item is read without its surrounding spaces
        spaced = tmp_path / "spaced.csv"
        argv = ["dump-embeddings", "--config", str(tiny_config), "--splits", "train, test"]
        argv += ["--checkpoint", str(out / "model_acl_11.ckpt"), "--out", str(spaced)]
        assert main(argv) == 0
        assert spaced.read_bytes() == emb.read_bytes()

    def test_unknown_split(self, tiny_config, fresh_checkpoint, tmp_path, capsys):
        argv = ["dump-embeddings", "--config", str(tiny_config), "--splits", "foo"]
        argv += ["--checkpoint", str(fresh_checkpoint), "--out", str(tmp_path / "e.csv")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1

    def test_repeated_split(self, tiny_config, fresh_checkpoint, tmp_path, capsys):
        # a repeated split would write its rows twice
        out = tmp_path / "e.csv"
        argv = ["dump-embeddings", "--config", str(tiny_config), "--splits", "test,test"]
        assert main(argv + ["--checkpoint", str(fresh_checkpoint), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "config error: --splits repeats 'test'\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "drop",
        [
            None,
            ["layer1.W"],
            ["layer0.b"],
            ["adapter.up"],
            ["adapter.down"],
            ["adapter.down", "adapter.up"],
        ],
        ids=[
            "garbage",
            "no-layer1.W",
            "no-layer0.b",
            "down-without-up",
            "up-without-down",
            "no-adapter",
        ],
    )
    def test_bad_checkpoint(self, tiny_config, fresh_checkpoint, tmp_path, capsys, drop):
        bad = tmp_path / "bad.ckpt"
        if drop is None:
            bad.write_text("not a checkpoint")
        else:
            lines = fresh_checkpoint.read_text().splitlines()
            for name in drop:
                i = next(k for k, line in enumerate(lines) if line.startswith(f"{name};"))
                lines = lines[:i] + lines[i + 2 :]
            bad.write_text("\n".join(lines) + "\n")
        assert (
            main(
                [
                    "dump-embeddings",
                    "--config",
                    str(tiny_config),
                    "--checkpoint",
                    str(bad),
                ]
            )
            == 1
        )
        err = capsys.readouterr().err
        assert err.startswith("checkpoint error:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "old, new",
        [
            ("activation;tanh", "activation;sigmoid"),
            ("activation;tanh", "activation;relu"),
            ("layer1.W;6x12", "layer1.W;12x6"),
            ("layer0.b;12\n0.0,", "layer0.b;12\nnan,"),
            ("n_layers;2\n", "n_layers;2\nlayer2.b;1\n0.0\n"),
            ("n_layers;2\n", "n_layers;2\nlayer0.b;12\n" + ",".join(["0.0"] * 12) + "\n"),
            ("activation;tanh", "colour;tanh"),
            ("n_layers;2", "widgets;2"),
            ("activation;tanh", "activation;tanh;relu"),
            ("layer0.W;12x8", "layer0.W;-1x8"),
            ("layer0.W;12x8", "layer0.W;+12x8"),
            ("layer0.W;12x8", "layer0.W; 12x8"),
            ("layer0.b;12\n0.0,", "layer0.b;12\n0,"),
        ],
        ids=[
            "unknown-activation",
            "relu-activation",
            "shapes-do-not-chain",
            "nan-value",
            "unknown-array",
            "repeated-array",
            "activation-key-renamed",
            "n_layers-key-renamed",
            "activation-extra-field",
            "negative-dim",
            "signed-dim",
            "spaced-dim",
            "non-canonical-value",
        ],
    )
    def test_invalid_checkpoint(self, tiny_config, fresh_checkpoint, tmp_path, capsys, old, new):
        text = fresh_checkpoint.read_text()
        assert old in text
        bad = tmp_path / "bad.ckpt"
        bad.write_text(text.replace(old, new, 1))
        argv = ["dump-embeddings", "--config", str(tiny_config), "--checkpoint", str(bad)]
        assert main(argv + ["--out", str(tmp_path / "e.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("checkpoint error:") and err.count("\n") == 1

    def test_overflowing_norm(self, tiny_config, fresh_checkpoint, tmp_path):
        # finite weights whose embedding norm overflows to inf gave all-zero
        # "unit" embeddings and exit 0
        lines = fresh_checkpoint.read_text().splitlines()
        i = next(k for k, line in enumerate(lines) if line.startswith("layer1.W;")) + 1
        lines[i] = ",".join(repr(1e300) for _ in lines[i].split(","))
        bad = tmp_path / "big.ckpt"
        bad.write_text("\n".join(lines) + "\n")
        argv = ["dump-embeddings", "--config", str(tiny_config), "--checkpoint", str(bad)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, err = _exit_and_stderr(argv + ["--out", str(tmp_path / "e.csv")])
        assert code == 1 and _one_line(err, "error: embedding norm inf"), err
        # the failure comes before --out is opened
        assert not (tmp_path / "e.csv").exists()

    def test_checkpoint_input_width_differs(self, tiny_config, tmp_path):
        # a valid checkpoint built for 5 inputs, on data of data.input_dim = 8
        ckpt = tmp_path / "narrow.ckpt"
        cfg = ModelConfig(embed_dim=6, hidden=(12,), adapter_rank=3)
        save_checkpoint(ckpt, init_model(cfg, 5, make_rng(0)))
        argv = ["dump-embeddings", "--config", str(tiny_config), "--checkpoint", str(ckpt)]
        code, err = _exit_and_stderr(argv + ["--out", str(tmp_path / "e.csv")])
        assert code == 1 and _one_line(err, "error: input shape"), err
        assert not (tmp_path / "e.csv").exists()


FUZZ = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def _exit_and_stderr(argv):
    """main's exit code and stderr; any exception fails the calling test."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    return code, err.getvalue()


def _one_line(err, *prefixes):
    return err.count("\n") == 1 and err.startswith(prefixes)


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["bogus"],
        ["run"],
        ["run", "--config", "x.cfg", "--bogus"],
        ["sweep", "--config", "x.cfg"],
        ["verify", "--seed", "1.5"],
        ["verify", "--sizes"],
    ],
    ids=[
        "no-command",
        "unknown-command",
        "missing-option",
        "unknown-option",
        "missing-axis",
        "seed-not-an-int",
        "option-without-value",
    ],
)
def test_bad_command_line(argv):
    # argparse would print usage plus an error line and raise SystemExit
    code, err = _exit_and_stderr(argv)
    assert code == 2 and _one_line(err, "config error: adaptcl"), err


def test_help_still_exits(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["verify", "-h"])
    assert exit_.value.code == 0
    assert capsys.readouterr().out.startswith("usage: adaptcl verify")


def _write(path, text):
    # a lone surrogate becomes bytes that are not UTF-8
    path.write_bytes(text.encode("utf-8", "surrogatepass"))


_text = st.text(st.characters(exclude_characters="\n"), max_size=10)
_value = st.sampled_from(
    ["0", "-1", "2", "0.5", "nan", "-inf", "1e400", "true", "no", "1,2", ",", "relu", "\udcff"]
)
_config_line = st.tuples(
    st.sampled_from(sorted(CONFIG_KEYS)) | _text,
    st.sampled_from([" = ", "=", " "]),
    _value | _text,
).map("".join)


def _fuzz_text(lines):
    """TINY_CFG without the lines whose keys the fuzzed lines set, then the
    fuzzed lines, so that each fuzzed value is read rather than repeating a key."""
    fuzzed = "\n".join(lines).splitlines()
    keys = {raw.split("#", 1)[0].partition("=")[0].strip() for raw in fuzzed}
    base = [raw for raw in TINY_CFG.splitlines() if raw.partition("=")[0].strip() not in keys]
    return "\n".join(base + lines)


@FUZZ
@given(lines=st.lists(_config_line | _text, max_size=6), repeat=st.booleans())
def test_fuzz_config(tiny_config, tmp_path, lines, repeat):
    # each config goes through load_config; an accepted one then fails on the
    # missing checkpoint, so nothing trains. With repeat, a last line sets
    # run.seeds a second time, which exits 2.
    path = tmp_path / "fuzz.cfg"
    _write(path, _fuzz_text(lines) + ("\nrun.seeds = 11" if repeat else ""))
    argv = ["dump-embeddings", "--config", str(path), "--checkpoint", str(tmp_path / "none")]
    code, err = _exit_and_stderr(argv + ["--out", str(tmp_path / "e.csv")])
    assert code == 2 or not repeat, err
    if code == 2:
        assert _one_line(err, "config error:"), err
        return
    assert code == 1 and _one_line(err, "checkpoint error:"), err
    config = load_config(path)
    sections = (config, config.data, config.model, config.pretrain, config.adapt, config.core)
    values = [getattr(obj, f.name) for obj in sections for f in fields(obj)]
    assert all(np.isfinite(v) for v in values if isinstance(v, float))


@FUZZ
@given(lines=st.lists(_config_line | _text, max_size=6))
@example(lines=["run.out = a b/c", "adapt.first_task_only = TRUE", "pretrain.lr = 1e-3"])
@example(lines=["run.seeds = 3, 1", "adapt.modes = disabled,acl", "data.sigma = 0.25"])
def test_fuzz_config_text_round_trip(tmp_path, lines):
    # every config that loads is written as a text that loads back to it
    path = tmp_path / "fuzz.cfg"
    _write(path, _fuzz_text(lines))
    try:
        config = load_config(path)
    except ConfigError:
        return
    path.write_text(config_text(config))
    assert load_config(path) == config


_token = st.sampled_from(
    ["tanh", "sigmoid", "", "-1", "0", "2", "9", "12x6", "6x3", "12", "nan", "1e999", "0.5", "\udcff"]
)


@FUZZ
@given(
    edits=st.lists(
        st.tuples(st.integers(0, 13), st.integers(0, 99), _token | _text, st.booleans()),
        min_size=1,
        max_size=3,
    )
)
def test_fuzz_checkpoint(tiny_config, fresh_checkpoint, tmp_path, edits):
    # each edit deletes a line, or replaces what follows the ';' of a header
    # line or one value of a value line
    lines = fresh_checkpoint.read_text().splitlines()
    for i, j, token, delete in edits:
        i %= len(lines) or 1
        if delete and lines:
            del lines[i]
        elif lines:
            head, sep, _ = lines[i].partition(";")
            values = lines[i].split(",")
            values[j % len(values)] = token
            lines[i] = f"{head};{token}" if sep else ",".join(values)
    path = tmp_path / "fuzz.ckpt"
    _write(path, "\n".join(lines) + "\n")
    out = tmp_path / "e.csv"
    argv = ["dump-embeddings", "--config", str(tiny_config), "--checkpoint", str(path)]
    code, err = _exit_and_stderr(argv + ["--out", str(out)])
    if code == 1:
        assert _one_line(err, "checkpoint error:", "error:"), err
        return
    assert (code, err) == (0, ""), err
    rows = out.read_text().splitlines()[1:]
    assert np.isfinite([float(v) for row in rows for v in row.split(",")[3:]]).all()


_size_names = [f.name for f in fields(adaptcl.verify.VerifySizes)]
_size_item = st.tuples(
    st.sampled_from([*_size_names, "__class__", "__init__", ""]) | _text,
    st.sampled_from(["=", "", "=="]),
    st.integers(-3, 10**6).map(str) | _text,
).map("".join)


@FUZZ
@given(items=st.lists(_size_item | _text, max_size=4))
def test_fuzz_verify_sizes(monkeypatch, items):
    # the campaigns are stubbed out: --sizes must parse into counts >= 0 or
    # exit 2
    runs = []
    monkeypatch.setattr(adaptcl.cli, "cmd_verify", lambda seed, sizes: runs.append(sizes) or 0)
    code, err = _exit_and_stderr(["verify", "--sizes=" + ",".join(items)])
    if code == 0:
        assert all(getattr(runs[-1], name) >= 0 for name in _size_names)
    else:
        assert code == 2 and _one_line(err, "config error:"), err


def test_cli_import_loads_no_scipy():
    # every adaptcl process imports the cli; SciPy at module load would
    # double its start-up time
    code = (
        "import sys, adaptcl.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "[]"
