"""`solve` and `verify` outputs against their golden digests.

Byte mode on a host that computes the recorded bits, value mode
elsewhere (see `golden_outputs`); the terminal summary names the mode
that ran. Refresh the digests only for an intended output change, with
``PYTHONPATH=src python tests/golden/golden_outputs.py --write``.
"""

import os
import sys

import pytest

# the generator sits beside this file, under any import mode
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import golden_outputs  # noqa: E402

GOLDEN = golden_outputs.load()
MODE = golden_outputs.mode(GOLDEN)


def test_golden_covers_every_command():
    assert sorted(GOLDEN["commands"]) == sorted(
        golden_outputs.command_id(*c) for c in golden_outputs.COMMANDS)


@pytest.mark.parametrize("command", golden_outputs.COMMANDS,
                         ids=[golden_outputs.command_id(*c)
                              for c in golden_outputs.COMMANDS])
def test_outputs_match_golden(command, tmp_path, golden_mode_ran):
    key = golden_outputs.command_id(*command)
    record = golden_outputs.run_command(*command, str(tmp_path / key))
    golden_mode_ran.add(MODE)
    assert golden_outputs.mismatches(GOLDEN["commands"][key], record,
                                     MODE) == [], MODE
