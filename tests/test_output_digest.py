"""Every output byte of the commands in ``output_digest.py``, against the
digest pinned in ``data/output_digest.txt``.

To regenerate the pinned file after a change that is meant to move outputs
(and to record which lines changed and why), run from the repository root::

    PYTHONPATH=src python tests/output_digest.py OUT > tests/data/output_digest.txt
"""

from pathlib import Path

import output_digest

PINNED = Path(__file__).parent / "data" / "output_digest.txt"


def by_name(lines: list) -> dict:
    """Digest lines keyed by their command name, in order."""
    return {line.split(" ", 1)[0]: line for line in lines}


def test_every_command_output_matches_the_pinned_digest(tmp_path):
    pinned = PINNED.read_text().splitlines()
    header = [line for line in pinned if line.startswith("#")]
    want = by_name(line for line in pinned if not line.startswith("#"))
    got = by_name(output_digest.digest(tmp_path))
    differ = [name for name in {**want, **got} if want.get(name) != got.get(name)]
    running = output_digest.environment()
    assert running == header, (
        f"pinned under {header}, running under {running}; commands that differ: {differ}")
    assert not differ, f"{len(differ)} commands differ from {PINNED.name}: {differ}"
