"""Default CLI outputs match the files in tests/golden/ byte for byte.

Each golden file is the stdout of one command on its built-in defaults,
as plain text (``.txt``) or as JSON (``.json``).  A change that moves any
byte of these outputs fails here until the file is regenerated, e.g.
``python -m wsumdist nb --json > tests/golden/nb.json`` with ``src`` on
the path, and the change says which outputs moved.
"""

from pathlib import Path

import pytest

from wsumdist import cli

GOLDEN = Path(__file__).resolve().parent / "golden"
COMMANDS = {
    "example.txt": ("example",),
    "markov.txt": ("markov",),
    "nb.txt": ("nb",),
    "demo-intro.txt": ("demo-intro",),
    "example.json": ("example", "--json"),
    "markov.json": ("markov", "--json"),
    "nb.json": ("nb", "--json"),
    "demo-intro.json": ("demo-intro", "--json"),
    "check-seed1.json": ("check", "--json", "--seed", "1"),
    "check-seed2.json": ("check", "--json", "--seed", "2"),
    "check-seed3.json": ("check", "--json", "--seed", "3"),
}


def test_every_golden_file_has_a_command():
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(COMMANDS)


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_stdout_matches_golden(name, capsys):
    assert cli.main(list(COMMANDS[name])) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / name).read_bytes()
