"""Command-line entry point: benchmark runs, sweeps over one config key, the
standalone verification suite, and raw embedding dumps for external
plotting.

Config files are flat `section.key = value` text; every run directory gets a
manifest (written even on failure) plus deterministic CSV artifacts.
Exit codes: 0 success, 1 run/verification failure, 2 config or command-line error.
"""

import argparse
import json
import math
import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, fields, is_dataclass
from functools import partial
from pathlib import Path
from typing import get_args, get_origin

from . import __version__
from .adaptation import ADAPT_MODES, AdaptConfig
from .continual import CoreConfig, RunResult, run_acl
from .data import PretrainConfig, SyntheticSpec, generate_synthetic, pretrain_backbone
from .errors import AdaptclError, CheckpointError, ConfigError
from .metrics import avg_incremental_accuracy, forgetting, last_accuracy, plasticity
from .model import ModelConfig, embed, init_model, load_checkpoint, save_checkpoint
from .numerics import make_rng, require_seed


def _fmt(x) -> str:
    return repr(float(x))


@dataclass(frozen=True, kw_only=True)
class RunConfig:
    """The config schema. Key `section.key` is field `key` of section field
    `section`, or else field `section_key`; a field's default is the key's
    default, and a field without one is a required key."""

    data: SyntheticSpec
    model: ModelConfig
    pretrain: PretrainConfig
    adapt: AdaptConfig
    adapt_modes: tuple[str, ...] = ("acl",)
    core: CoreConfig
    run_seeds: tuple[int, ...]
    run_out: Path = Path("out")

    def __post_init__(self):
        for m in self.adapt_modes:
            if m not in ADAPT_MODES:
                raise ConfigError(f"unknown adaptation mode {m!r}")
        _require_distinct("adapt.modes", self.adapt_modes)
        _require_distinct("run.seeds", self.run_seeds)
        for seed in self.run_seeds:
            require_seed(seed, "run.seeds")


def _require_distinct(what: str, items) -> None:
    """A repeated mode, seed or sweep value would run one cell twice, a
    repeated split would write its rows twice, a repeated size would drop
    the first count, and an empty list would run none."""
    if not items:
        raise ConfigError(f"{what} is empty")
    repeated = [v for i, v in enumerate(items) if v in items[:i]]
    if repeated:
        raise ConfigError(f"{what} repeats {repeated[0]!r}")


def _comma_list(text: str) -> list:
    """The comma-separated items of text, each stripped, empty ones dropped."""
    return [item.strip() for item in text.split(",") if item.strip()]


def _config_keys() -> dict:
    """section.key -> (RunConfig section field or None, the key's field)."""
    keys = {}
    for f in fields(RunConfig):
        if is_dataclass(f.type):
            keys.update({f"{f.name}.{g.name}": (f, g) for g in fields(f.type)})
        else:
            keys[f.name.replace("_", ".", 1)] = (None, f)
    return keys


CONFIG_KEYS = _config_keys()
# retired keys, each with the one value (in any case) that parse_config still
# skips, so that manifests and configs written before it was retired load
RETIRED_KEYS = {
    "core.tune_adapter": "false",
    "adapt.momentum": "0.0",
    "metrics.plasticity": "best_ever",
    "model.activation": "tanh",
}


def _convert(key: str, text: str, f):
    """A config value by its field's type; a tuple is a comma list, a float
    must be finite and a path must be one non-empty config line's value,
    without a NUL byte. Config files, overrides and sweep values all come here."""
    if f.type is bool:
        if text.lower() not in ("true", "false"):
            raise ConfigError(f"{key} must be true or false")
        return text.lower() == "true"
    if get_origin(f.type) is tuple:
        return tuple(map(get_args(f.type)[0], _comma_list(text)))
    value = f.type(text)
    if f.type is float and not math.isfinite(value):
        raise ConfigError(f"{key} must be finite, got {text!r}")
    if f.type is Path:  # the manifest writes it back as a config line
        one_line = len(text.splitlines()) == 1 and text == text.strip()
        if not one_line or "\0" in text or "#" in text:
            raise ConfigError(
                f"{key} must be one non-empty line without NUL, '#' or outer spaces: {text!r}"
            )
    return value


@contextmanager
def _config_errors(prefix=""):
    """Report an invalid value or combination as a ConfigError."""
    try:
        yield
    except (ValueError, AdaptclError) as e:
        raise ConfigError(prefix + str(e)) from e


def load_config(path, overrides=None) -> RunConfig:
    """parse_config of the file's text."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(str(e)) from e
    return parse_config(text, overrides)


def parse_config(text: str, overrides=None) -> RunConfig:
    """The config of `key = value` lines, each item of the key -> value
    mapping overrides replacing its key's line. Config files, --seeds,
    --out and sweep cells all come here."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'section.key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in RETIRED_KEYS:
            if value.lower() == RETIRED_KEYS[key]:
                continue
            raise ConfigError(
                f"line {lineno}: {key!r} is retired; only '{key} = {RETIRED_KEYS[key]}' still loads"
            )
        if key not in CONFIG_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: repeated key {key!r}")
        values[key] = value
    values.update((key, str(value)) for key, value in (overrides or {}).items())
    for key, (_, f) in CONFIG_KEYS.items():
        if f.default is MISSING and key not in values:
            raise ConfigError(f"missing required key {key!r}")
    kwargs = {section: {} for section, _ in CONFIG_KEYS.values()}
    with _config_errors():
        for key, value in values.items():
            section, f = CONFIG_KEYS[key]
            kwargs[section][f.name] = _convert(key, value, f)
        own = kwargs.pop(None)
        for section, section_kwargs in kwargs.items():
            with _config_errors(f"{section.name}: "):
                own[section.name] = section.type(**section_kwargs)
        return RunConfig(**own)


def _value_text(config: RunConfig, key: str) -> str:
    """The value of key in config, as a config line writes it."""
    section, f = CONFIG_KEYS[key]
    value = getattr(getattr(config, section.name) if section else config, f.name)
    text = ",".join(map(str, value)) if isinstance(value, tuple) else str(value)
    return text.lower() if f.type is bool else text


def config_text(config: RunConfig) -> str:
    """The config as one `key = value` line per key, in CONFIG_KEYS order;
    parse_config reads it back to an equal RunConfig."""
    return "".join(f"{key} = {_value_text(config, key)}\n" for key in CONFIG_KEYS)


def _write_csv(path, header, rows) -> None:
    """The one text format of every CSV artifact: the header's names, then
    each row's fields (strings, floats already _fmt), comma-joined, one line
    each. Fields are written unquoted, so none may hold a comma or a line end."""
    with open(path, "w", newline="\n") as f:
        f.write(",".join(header) + "\n")
        f.writelines(",".join(row) + "\n" for row in rows)


def _write_matrix_csv(path, rows, n_tasks, status):
    """Row b: the accuracies on tasks 1..b after learning task b, empty
    fields up to task n_tasks, then the status."""
    header = ["after_task", *(f"task_{j + 1}" for j in range(n_tasks)), "status"]
    lines = (
        [str(b), *map(_fmt, row), *[""] * (n_tasks - len(row)), status]
        for b, row in enumerate(rows, start=1)
    )
    _write_csv(path, header, lines)


def _cached(cache: dict, stage, key, make):
    """make()'s result, kept as cache[stage] while key stays the same: a call
    with another key makes it again and replaces it."""
    if stage not in cache or cache[stage][0] != key:
        cache[stage] = key, make()
    return cache[stage][1]


@dataclass(frozen=True)
class Cell:
    """One (seed, mode) cell: its RunResult and its manifest wall_clock
    seconds. They cover its continual run, and its seed's pretraining only
    when the seed has no pretrained model yet, so only in the seed's first
    cell; in a sweep, a disabled cell that reuses its seed's result records
    about 0. Writing its artifacts is not counted."""

    seed: int
    mode: str
    result: RunResult
    seconds: float

    @property
    def ok(self) -> bool:
        return self.result.exception is None


def run_single(config: RunConfig, seed: int, mode: str, data, cache: dict) -> RunResult:
    """One (seed, mode) cell on generate_synthetic's data: the seed's
    pretrained model, kept in cache while the data, model and pretrain
    sections stay, then the continual run on the seed's task order. A
    pretraining that raises fails the cell with no accuracy row."""
    pre_train, _, tasks = data

    def pretrained():
        backbone = init_model(config.model, config.data.input_dim, make_rng(seed, 2))
        return pretrain_backbone(backbone, pre_train, config.pretrain, make_rng(seed, 3))

    sections = config.data, config.model, config.pretrain
    try:
        backbone = _cached(cache, ("pretrained", seed), sections, pretrained)
    except AdaptclError as e:
        return RunResult([], [], None, e)
    tasks = [tasks[i] for i in make_rng(seed, 1).permutation(len(tasks))]
    return run_acl(tasks, backbone, mode, config.adapt, config.core, make_rng(seed, 4))


def run_cells(config: RunConfig, cache: dict):
    """Yield a Cell for every (seed, mode) of config, in order. cache keeps
    each stage's result while the config sections it reads stay: the data
    (data), each seed's pretrained model (data, model, pretrain) and its
    mode=disabled run (those and core)."""
    data = _cached(cache, "data", config.data, lambda: generate_synthetic(config.data))
    for seed in config.run_seeds:
        for mode in config.adapt_modes:
            t0 = time.perf_counter()
            run = partial(run_single, config, seed, mode, data, cache)
            if mode == "disabled":
                sections = config.data, config.model, config.pretrain, config.core
                result = _cached(cache, ("disabled", seed), sections, run)
            else:
                result = run()
            yield Cell(seed, mode, result, time.perf_counter() - t0)


METRICS_HEADER = ("run_id", "seed", "mode", "LA", "AIA", "forgetting", "plasticity")


def _metrics_row(cell: Cell) -> list:
    """The metrics.csv fields of an ok cell, in METRICS_HEADER order."""
    rows = cell.result.rows
    return [
        f"{cell.mode}_{cell.seed}",
        str(cell.seed),
        cell.mode,
        _fmt(last_accuracy(rows)),
        _fmt(avg_incremental_accuracy(rows)),
        _fmt(forgetting(rows)) if len(rows) >= 2 else "",
        _fmt(plasticity(rows)),
    ]


def _failure(e: BaseException) -> dict:
    """The manifest entry of a failure: the exception's type and traceback."""
    return {"type": type(e).__name__, "traceback": "".join(traceback.format_exception(e))}


def write_artifacts(config: RunConfig, cells):
    """Write each cell's files as the cell arrives, then metrics.csv and
    bounds.csv; manifest.json is written last, also when an exception ends
    the run, which it records as failures["run"] before raising it on.
    Returns the exit code and the cells."""
    out = config.run_out
    out.mkdir(parents=True, exist_ok=True)
    manifest = {
        "tool_version": __version__,
        "config": config_text(config),
        "status": {},
        "failures": {},
        "files": [],
        "wall_clock": {},
    }
    done, bounds = [], []
    try:
        for cell in cells:
            done.append(cell)
            name = f"seed={cell.seed},mode={cell.mode}"
            manifest["wall_clock"][name] = round(cell.seconds, 3)
            result, stem = cell.result, f"{cell.mode}_{cell.seed}"
            files = [f"accuracy_matrix_{stem if len(config.adapt_modes) > 1 else cell.seed}.csv"]
            status = "ok" if cell.ok else "failed"
            _write_matrix_csv(out / files[0], result.rows, config.data.n_tasks, status)
            if cell.ok:
                manifest["status"][name] = "ok"
                files.append(f"model_{stem}.ckpt")
                save_checkpoint(out / files[-1], result.backbone)
            else:
                e = result.exception
                error = f"{type(e).__name__}: {e}"
                print(f"error: {name}: {error}", file=sys.stderr)
                manifest["status"][name] = f"failed: {error}"
                manifest["failures"][name] = _failure(e)
            manifest["files"] += files
            for k, records in result.epoch_records:
                for r in records:
                    at = f"mode={cell.mode}/seed={cell.seed}/task={k}/epoch={r.epoch}"
                    checks = filter(None, (r.stability, r.markov, r.threshold))
                    bounds += [(f"{c.context}/{at}", c) for c in checks]

        _write_csv(out / "metrics.csv", METRICS_HEADER, (_metrics_row(c) for c in done if c.ok))
        manifest["files"].append("metrics.csv")
        rows = ([at, *map(_fmt, (c.lhs, c.rhs, c.slack)), str(c.passed)] for at, c in bounds)
        _write_csv(out / "bounds.csv", ["context", "lhs", "rhs", "slack", "pass"], rows)
        manifest["files"].append("bounds.csv")
    except Exception as e:
        manifest["failures"]["run"] = _failure(e)
        raise
    finally:
        with open(out / "manifest.json", "w", newline="\n") as f:
            json.dump(manifest, f, indent=2)
            f.write("\n")
    failed = manifest["failures"] or not all(check.passed for _, check in bounds)
    return (1 if failed else 0), done


def cmd_run(config: RunConfig) -> int:
    """Every (seed, mode) cell of one config."""
    return write_artifacts(config, run_cells(config, {}))[0]


def cmd_sweep(config: RunConfig, axis: str, values) -> int:
    """One run per value, of config with key axis (a bare name is an adapt.*
    key) set to the value and run.out set to the value's own directory.
    One run_cells cache passes through every value, so over an adapt.* axis
    the data, each seed's pretraining and its disabled run are made once;
    every cell still writes the files of a standalone run."""
    key = axis if "." in axis else f"adapt.{axis}"
    if key not in CONFIG_KEYS or key.startswith("run."):
        raise ConfigError(f"sweep axis must be a config key outside run.*, got {axis!r}")
    root, text, configs = config.run_out, config_text(config), []
    for value in values:  # every value is checked before any cell runs
        overrides = {key: value, "run.out": root / f"sweep_{axis}_{value}"}
        with _config_errors(f"sweep value {value!r}: "):
            configs.append(parse_config(text, overrides))
    _require_distinct("--values", [_value_text(c, key) for c in configs])
    root.mkdir(parents=True, exist_ok=True)
    overall, rows, cache = 0, [], {}
    for value, cell_config in zip(values, configs):
        code, cells = write_artifacts(cell_config, run_cells(cell_config, cache))
        overall = max(overall, code)
        rows += ([axis, value, *_metrics_row(c)[1:]] for c in cells if c.ok)
    _write_csv(root / "sweep.csv", ["axis", "value", *METRICS_HEADER[1:]], rows)
    return overall


def cmd_verify(seed: int, sizes) -> int:
    """Run the campaigns at the given verify.VerifySizes and print one line
    per campaign."""
    from .verify import run_all

    results = run_all(seed, sizes)
    width = max(len(r.name) for r in results)
    failed = False
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        if r.vacuous:
            status = "PASS (vacuous)"
            print(f"warning: {r.name} ran zero cases", file=sys.stderr)
        print(f"{r.name:<{width}}  {status}  {r.detail}")
        failed |= not r.passed
    return 1 if failed else 0


def cmd_dump_embeddings(config: RunConfig, checkpoint, out_path, splits) -> int:
    """Every task's embeddings are computed before out_path is opened, so a
    model that fails on the data leaves an earlier file as it was."""
    backbone = load_checkpoint(checkpoint)
    _, _, tasks = generate_synthetic(config.data)
    d = backbone.weights[-1].shape[0]
    blocks = []
    for k, task in enumerate(tasks, start=1):
        for split in splits:
            x, labels = getattr(task, split)
            blocks.append((k, split, labels, embed(backbone, x)))
    header = ["task_id", "class_id", "split", *(f"e_{i + 1}" for i in range(d))]
    rows = (
        [str(k), str(y), split, *map(_fmt, e)]  # str, not repr, of an np.int64 id
        for k, split, labels, embeddings in blocks
        for y, e in zip(labels, embeddings)
    )
    _write_csv(out_path, header, rows)
    return 0


class _Parser(argparse.ArgumentParser):
    """Raises a bad command line as a ConfigError, which main reports in one
    line with exit code 2; its subparsers are of this class too."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def main(argv=None) -> int:
    parser = _Parser(
        prog="adaptcl",
        description="Continual-learning benchmark with a pre-task adaptation phase",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the benchmark for each seed")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--seeds", help="comma-separated seed list override")
    p_run.add_argument("--out", help="output directory override")

    p_sweep = sub.add_parser("sweep", help="one run per value of one config key")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--axis", required=True, help="a config key; a bare name is adapt.<name>")
    p_sweep.add_argument(
        "--values", required=True, help="comma-separated; a list-valued key takes one-item lists"
    )
    p_sweep.add_argument("--seeds")
    p_sweep.add_argument("--out")

    p_verify = sub.add_parser("verify", help="run the verification campaigns")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--sizes", help="comma list of name=count overrides")

    p_dump = sub.add_parser("dump-embeddings", help="export embeddings as CSV")
    p_dump.add_argument("--config", required=True)
    p_dump.add_argument("--checkpoint", required=True)
    p_dump.add_argument("--out", default="embeddings.csv")
    p_dump.add_argument("--splits", default="train,test")

    try:
        args = parser.parse_args(argv)
        if args.command in ("run", "sweep"):
            overrides = {"run.seeds": args.seeds, "run.out": args.out}
            config = load_config(args.config, {k: v for k, v in overrides.items() if v is not None})
        if args.command == "run":
            return cmd_run(config)
        if args.command == "sweep":
            return cmd_sweep(config, args.axis, _comma_list(args.values))
        if args.command == "verify":
            from .verify import VerifySizes  # here, so other commands skip loading it

            sizes = VerifySizes()
            if args.sizes:
                items = _comma_list(args.sizes)
                for item in items:
                    name, sep, count = item.partition("=")
                    if not sep:
                        raise ConfigError(f"--sizes item {item!r} is not name=count")
                    if name not in {f.name for f in fields(sizes)}:
                        raise ConfigError(f"unknown size {name!r}")
                    if not count.strip().isdecimal():
                        raise ConfigError(f"size {name} must be a count >= 0, got {count!r}")
                    setattr(sizes, name, int(count))
                _require_distinct("--sizes", [item.partition("=")[0] for item in items])
            with _config_errors():
                seed = require_seed(args.seed, "--seed")
            return cmd_verify(seed, sizes)
        if args.command == "dump-embeddings":
            config = load_config(args.config)
            splits = tuple(_comma_list(args.splits))
            if not splits or not set(splits) <= {"train", "test"}:
                raise ConfigError(f"--splits must name train and/or test, got {args.splits!r}")
            _require_distinct("--splits", splits)
            return cmd_dump_embeddings(config, args.checkpoint, args.out, splits)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except CheckpointError as e:
        print(f"checkpoint error: {e}", file=sys.stderr)
        return 1
    # OSError: an output path cannot be written; MemoryError: the data does not fit
    except (AdaptclError, OSError, MemoryError) as e:
        print(f"error: {str(e) or type(e).__name__}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
