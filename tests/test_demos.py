"""Each demo script, and the README's Quick start block, runs to completion
as a fresh process and prints; the block prints the values it states."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS


def _run(*args: str) -> subprocess.CompletedProcess:
    """Run python with args as a fresh process that imports src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
        timeout=120,
    )


@pytest.mark.parametrize("script", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(script):
    proc = _run(str(script))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def test_readme_quick_start_prints_what_it_states():
    # The python block under the "## Quick start" heading.  Each print
    # line's comment, if it has one, states what that line prints; a
    # trailing "..." marks a prefix of a longer number.
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Quick start\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    prints = [line for line in code.splitlines() if line.startswith("print(")]
    proc = _run("-c", code)
    assert proc.returncode == 0, proc.stderr
    printed = proc.stdout.splitlines()
    assert len(printed) == len(prints)
    stated = [(line.partition("#")[2].strip(), got) for line, got in zip(prints, printed)]
    stated = [(want, got) for want, got in stated if want]
    assert stated
    for want, got in stated:
        if want.endswith("..."):
            assert got.startswith(want[:-3]), (want, got)
        else:
            assert got == want
