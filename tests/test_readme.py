"""Every `adaptcl` command in README.md's sh blocks parses, loads its config
and passes the checks of its flags, with the numeric work stubbed out; and
the README's Layout table has one row per module of src/adaptcl."""

import re
import shlex
from pathlib import Path

import pytest

import adaptcl.cli

REPO = Path(__file__).resolve().parents[1]
README = (REPO / "README.md").read_text()


def readme_commands() -> list:
    """The argv after `adaptcl` of each command line of the README's sh
    blocks, with continuation lines joined and comments dropped."""
    commands = []
    for block in re.findall(r"^```sh\n(.*?)^```", README, re.S | re.M):
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line, comments=True)
            if argv[:1] == ["adaptcl"]:
                commands.append(argv[1:])
    return commands


COMMANDS = readme_commands()


def test_readme_lists_every_subcommand():
    assert {argv[0] for argv in COMMANDS} == {"run", "sweep", "verify", "dump-embeddings"}


@pytest.mark.parametrize(
    "argv", COMMANDS, ids=[f"{i}-{argv[0]}" for i, argv in enumerate(COMMANDS)]
)
def test_readme_command(argv, tmp_path, monkeypatch):
    # relative paths resolve in tmp_path: configs/default.cfg is a copy, and
    # shift4.cfg is built as the README describes it
    default = (REPO / "configs" / "default.cfg").read_text()
    (tmp_path / "configs").mkdir()
    (tmp_path / "configs" / "default.cfg").write_text(default)
    shift4 = default.replace("data.domain_shift = 2.0\n", "data.domain_shift = 4.0\n")
    assert shift4 != default
    (tmp_path / "shift4.cfg").write_text(shift4)
    monkeypatch.chdir(tmp_path)
    calls = []
    monkeypatch.setattr(adaptcl.cli, "run_cells", lambda config, cache: calls.append(config) or [])
    monkeypatch.setattr(adaptcl.cli, "cmd_verify", lambda *args: calls.append(args) or 0)
    monkeypatch.setattr(adaptcl.cli, "cmd_dump_embeddings", lambda *args: calls.append(args) or 0)
    assert adaptcl.cli.main(argv) == 0
    assert calls


def test_layout_has_one_row_per_module():
    layout = README.split("\n## Layout\n")[1].split("\n## ")[0]
    rows = [line for line in layout.splitlines() if line.startswith("| `")]
    named = sorted(row.split("`")[1] for row in rows)
    modules = [p.stem for p in (REPO / "src" / "adaptcl").glob("*.py")]
    assert named == sorted("adaptcl" if m == "__init__" else f"adaptcl.{m}" for m in modules)
    assert max(map(len, rows)) <= 250
