"""Golden CSV traces: pinned runs must reproduce their committed bytes.

Each trace under ``tests/data/golden/`` was written by ``beepsim.cli`` with
the flags below.  Any change to what the simulator computes for these
seeds shows up here as a byte difference.
"""

from pathlib import Path

import pytest

from beepsim.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden"

JJ_REGULAR = ["static", "--protocol", "jitterjump", "--graph", "random-regular:16:4",
              "--seed", "7"]

RUNS = {
    "jj_regular16_simultaneous": JJ_REGULAR + ["--wakeup", "simultaneous"],
    "jj_regular16_random": JJ_REGULAR + ["--wakeup", "random"],
    "jj_regular16_stagger3": JJ_REGULAR + ["--wakeup", "stagger:3"],
    "dyn_star17": ["dynamic", "--graph", "star:17", "--events", str(GOLDEN / "star17.events"),
                   "--r", "4", "--max-periods", "24", "--wakeup", "random", "--seed", "7"],
    "bf_gnp16": ["static", "--protocol", "beepfirst", "--graph", "gnp:16:0.2",
                 "--wakeup", "random", "--seed", "7"],
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_golden_trace_bytes(name, tmp_path, capsys):
    out = tmp_path / f"{name}.csv"
    assert main(RUNS[name] + ["--out", str(out)]) == 0
    assert "all validators passed" in capsys.readouterr().out
    assert out.read_bytes() == (GOLDEN / f"{name}.csv").read_bytes()
