"""Every benchmark command and the verify suites give the output recorded in output_digests.txt.

A change meant to alter output rewrites the file (see output_digests.py)
and names the changed entries; any other difference is a regression.
"""

import output_digests


def test_output_matches_the_recorded_digests(tmp_path):
    recorded_versions, recorded = output_digests.read()
    current = output_digests.compute(tmp_path)
    changed = output_digests.changed(recorded, current)
    assert not changed, (
        f"{len(changed)} of {len(recorded)} entries differ: {changed}; recorded on "
        f"{recorded_versions}, run on {output_digests.versions()}"
    )
