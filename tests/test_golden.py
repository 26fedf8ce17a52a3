"""Golden CSV traces: pinned runs must reproduce their committed bytes.

Each trace under ``tests/data/golden/`` was written by ``beepsim.cli`` with
the flags below.  Any change to what the simulator computes for these
seeds shows up here as a byte difference.  The beep-first grid below pins
more runs by digest only: SHA-256 of a run's ``--json`` stdout followed by
its CSV bytes.
"""

import hashlib
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


# (graph, wakeup, seed) -> SHA-256 of stdout + CSV of
# ``static --protocol beepfirst --graph G --wakeup W --seed S --json --out C``
BEEPFIRST_DIGESTS = {
    ('gnp:256:0.05', 'random', 7): '6b2617bfff4396f8cba00f59b92ee75f268716c1f0ef2134d97efa131e3572f4',
    ('gnp:256:0.05', 'random', 31): '907c18142670073824d9320428ee9095d6ec8408e151c093647f7ce07154cfe8',
    ('gnp:256:0.05', 'simultaneous', 7): 'f42d93fa735a04f149aa0cbd60f8b6850dd796138412bfc6c3a01cf5cbc6921a',
    ('gnp:256:0.05', 'simultaneous', 31): '188bb9ce3b6b787a8135c13801c55c4529e7e49ef5a5055e1a0776d20d02e459',
    ('gnp:256:0.05', 'stagger:1', 7): 'a70268476e8be0cea9667f02f3cd37b1e00f0cb84ff627ef522eeb8d066cf125',
    ('gnp:256:0.05', 'stagger:1', 31): '4ca7905b3fa4f6cd215118131e0ed96812cbb84ccf87f20f585ccf650ad066b4',
    ('gnp:64:0.1', 'random', 7): '753805a4a1e484492f7da7d81c3be8c2a203f1ef9b62900ee1637c3089030946',
    ('gnp:64:0.1', 'random', 31): '802062a20347c6e66af775457eb72052adc1f20de11badf42b9c308e80af7f15',
    ('gnp:64:0.1', 'simultaneous', 7): 'b82167288ee5a12f820a6415eec0718d85101935fa21b21e16c177ca15a08e16',
    ('gnp:64:0.1', 'simultaneous', 31): 'e2a5a64774f1326f588984b1d5971d5590cef1d6488c7a972c22af23400309ec',
    ('gnp:64:0.1', 'stagger:1', 7): '0ebbd2aa70d0aad2163cb2d2cba5f373b12dfdd59ee417c639568e5702af4e88',
    ('gnp:64:0.1', 'stagger:1', 31): 'e8bbb6478309eef78d17db2274379f1ca777b8af02fab8c9134619ba300917a5',
    ('clique:16', 'random', 7): 'fb5c9881ae46d95f7d679689dd0bc4666cc5858df2f32cc467174a0cb3aba299',
    ('clique:16', 'random', 31): '003af3ca30d0342903b2ed322b335321c5e8029de1cb872a001af5f59e2dccc7',
    ('clique:16', 'simultaneous', 7): 'c1c1811a35b1408dca7fdcc65e72a9f3f5572172a2404efdfc8f22cc2c8672f4',
    ('clique:16', 'simultaneous', 31): 'c3220f646ac5a4df8c7ae6cfdcaddcd53c3b6f7121a089bbb0957a7f11ac75e6',
    ('clique:16', 'stagger:1', 7): 'e5afccc3e1f8cde557d033b3b0459ae5e5115000c0e27d729dc6e701c1d2b2e6',
    ('clique:16', 'stagger:1', 31): 'bb23d9982e77471548ead07151f9bffc7b2a67aff07723420ce773ef6f758336',
}


@pytest.mark.parametrize("case", sorted(BEEPFIRST_DIGESTS), ids=lambda c: "-".join(map(str, c)))
def test_beepfirst_run_digest(case, tmp_path, capsys):
    graph, wakeup, seed = case
    out = tmp_path / "run.csv"
    assert main(["static", "--protocol", "beepfirst", "--graph", graph, "--wakeup", wakeup,
                 "--seed", str(seed), "--json", "--out", str(out)]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode() + out.read_bytes()).hexdigest()
    assert digest == BEEPFIRST_DIGESTS[case]
