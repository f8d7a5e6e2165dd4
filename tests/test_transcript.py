"""Every command line of tools/cli_parity.py prints what the checked-in
transcript, tests/cli_transcript.txt, records for it.

The lines run in-process through `cli.main`, as `tools/cli_parity.py`
runs them. An intended change to what the CLI prints re-records the file
with `python3 tools/cli_parity.py --record`, so that its diff shows each
changed line.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import cli_parity  # noqa: E402


def test_every_command_line_prints_its_recorded_output():
    recorded_head, recorded = cli_parity.read()
    head, records = cli_parity.transcript()
    # the numbers round as the numpy build and its BLAS round them
    assert head == recorded_head, f"recorded on {recorded_head[2:]}, running on {head[2:]}"
    assert [r[0] for r in records] == [r[0] for r in recorded]
    differ = [new[0][4:] for new, old in zip(records, recorded) if new != old]
    assert differ == []
