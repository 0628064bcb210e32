"""The paper commands print exactly the reference output in perfbench/goldens.

Each golden file ``state-<name>.out`` holds the stdout of ``eprsim state
<name>``, and ``<command>.out`` that of ``eprsim <command>`` with no
arguments. The commands run in process, and stdout must match byte for byte.
"""

from pathlib import Path

import pytest

from eprsim.cli import main

GOLDENS = sorted((Path(__file__).resolve().parent.parent / "perfbench" / "goldens").glob("*.out"))


def test_all_paper_commands_have_goldens():
    assert len(GOLDENS) == 8


@pytest.mark.parametrize("path", GOLDENS, ids=lambda p: p.stem)
def test_stdout_matches_golden(capsysbinary, path):
    name = path.stem
    argv = ["state", name[len("state-"):]] if name.startswith("state-") else [name]
    assert main(argv) == 0
    assert capsysbinary.readouterr().out == path.read_bytes()
