"""The package needs numpy only: importing the CLI loads no scipy, and the
commands run with scipy made unimportable."""

import subprocess
import sys
import textwrap

import pytest

# Makes every scipy import fail, as on an environment without scipy.
_BLOCK_SCIPY = textwrap.dedent(
    """
    import sys

    class _NoScipy:
        def find_spec(self, name, path=None, target=None):
            if name == "scipy" or name.startswith("scipy."):
                raise ImportError(f"{name} is not installed")
            return None

    sys.meta_path.insert(0, _NoScipy())
    """
)


def _python(code, *args, **kwargs):
    return subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, **kwargs
    )


def test_cli_import_loads_no_scipy():
    proc = _python(
        "import sys, wsumdist.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--config", "{cfg}", "--json"],
        ["nb", "--json"],
        ["example", "--json"],
    ],
    ids=["check", "nb", "example"],
)
def test_commands_run_without_scipy(tmp_path, argv):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"count": 5}')
    code = _BLOCK_SCIPY + "from wsumdist import cli\nsys.exit(cli.main(sys.argv[1:]))\n"
    proc = _python(code, *(arg.format(cfg=cfg) for arg in argv))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("{")
