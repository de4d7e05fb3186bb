"""Every narrative demo, and the README's Python code, runs to completion as a script with
warnings as errors; the README names only commands and options the CLI has."""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from crosswatch import cli

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run_python(args: list[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-W", "error", *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=300
    )


def test_all_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_exits_cleanly(demo):
    result = _run_python([str(demo)])
    assert result.returncode == 0, result.stderr[-2000:]


def test_readme_python_blocks_run():
    # the blocks share names (the second reads the first's `process`), so they run as one script
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S)
    assert len(blocks) == 2
    result = _run_python(["-c", "\n".join(blocks)])
    assert result.returncode == 0, result.stderr[-2000:]


def test_readme_names_only_live_cli_options_and_commands():
    # pip's own flags are the one other tool's options the README shows
    text = "\n".join(line for line in (ROOT / "README.md").read_text().splitlines() if "pip install" not in line)
    options = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", text))
    assert options and options <= set(cli._build_parser()._option_string_actions)
    commands = set(re.findall(r"(?<!from )crosswatch ([a-z]\w*)", text))
    assert commands and commands <= set(cli._COMMANDS)
