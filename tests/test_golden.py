"""Golden CLI output: every case of tests/golden/regen.py, byte for byte.

Each case runs cli.main in process and must reproduce the exit code, stdout
and stderr recorded in tests/golden/cli.json; the acceptance sweep must also
reproduce sweep.csv and sweep.json with wall_time_s masked.  Regenerate the
fixtures with tests/golden/regen.py only for an intended output change.
"""

import json
import os

import pytest

from golden import regen


def _fixture(name):
    with open(os.path.join(regen.GOLDEN_DIR, name), encoding="utf-8") as f:
        return f.read()


GOLDEN = {tuple(r["argv"]): r for r in json.loads(_fixture("cli.json"))}


def test_fixture_covers_every_case():
    assert set(GOLDEN) == {tuple(argv) for argv in regen.CASES} | {("sweep",)}


@pytest.mark.parametrize("argv", regen.CASES, ids=" ".join)
def test_cli_output(argv, capsys):
    code = regen.call(argv)
    captured = capsys.readouterr()
    assert regen.record(argv, code, captured.out, captured.err) == GOLDEN[tuple(argv)]


def test_acceptance_sweep(capsys, tmp_path):
    code = regen.call(regen.sweep_argv(str(tmp_path)))
    files = regen.sweep_files(str(tmp_path), capsys.readouterr().out)
    assert regen.record(["sweep"], code, files.pop("stdout"), "") == GOLDEN[("sweep",)]
    for name, text in files.items():
        assert text == _fixture(name), name
