"""The CLI's outputs on a fixed sweep stay byte for byte as recorded.

golden_outputs.json holds the sha256 of stdout and stderr and the exit
code of every command of record_golden.sweep_commands().  This test only
reads it; record_golden.py rewrites it when an output is meant to change.
"""

import json

from record_golden import GOLDEN, sweep


def test_outputs_match_the_recorded_digests():
    with open(GOLDEN) as fh:
        want = json.load(fh)
    got = sweep()
    assert got.keys() == want.keys()
    changed = sorted(k for k in want if got[k] != want[k])
    assert not changed, f"{len(changed)} outputs changed, first: {changed[:5]}"
