"""Nothing in ``src/`` exists only for tests: every function there is
entered by some CLI command.

A fixed list of commands runs through ``cli.main`` in-process, once, with
``bench/spans.py`` installed, since the benchmark calls the program too.
A profile hook watches this thread and every thread started meanwhile
(``bb_montecarlo`` counts on a helper thread).  Each ``def`` and
``lambda`` in ``src/beepsim`` that no command enters fails the test by
name, unless :data:`ALLOWED` gives the reason it is never entered.
"""

import inspect
import sys
import threading
import types
from pathlib import Path

from helpers import beepsim_modules, load_spans

import beepsim
from beepsim.discrete import DiscreteEngine

SRC = Path(beepsim.__file__).parent
GOLDEN = Path(__file__).parent / "data" / "golden"
COMPREHENSIONS = {"<listcomp>", "<setcomp>", "<dictcomp>", "<genexpr>"}

# name -> why no command enters it
ALLOWED = {
    "continuous._Command.__repr__": "a debug repr",
    "phases.PhaseSet.__repr__": "a debug repr",
    "discrete.DiscreteEngine.fingerprint":
        "bench/spans.py patches it for lowerbound.fingerprint_s; nothing calls it since the "
        "twin experiment steps arrays",
    "discrete.DiscreteEngine.pending_phases": "only DiscreteEngine.fingerprint calls it",
    "jitterjump.JitterAndJump.fingerprint": "only DiscreteEngine.fingerprint calls it",
}


def commands(tmp):
    """``(argv, bad)`` pairs: every subcommand, every wakeup kind, both
    protocols, an events file and bad input, which must exit 2."""
    (tmp / "ring.txt").write_text("0 1\n1 2\n2 3\n3 0\n")
    (tmp / "wake.txt").write_text("0 0\n1 5\n2 9\n3 1\n")
    (tmp / "bad.events").write_text("1 explode 3\n")
    # ten nodes join a hub whose Q was sized for degree 1: no free slot is left
    (tmp / "crowd.events").write_text("".join(f"1 add_node {v} 0\n" for v in range(2, 12)))
    jj = ["static", "--protocol", "jitterjump"]
    bf = ["static", "--protocol", "beepfirst"]
    return [
        (jj + ["--graph", "random-regular", "--n", "8,16", "--delta", "4", "--json",
               "--out", str(tmp / "rr.csv")], False),
        (jj + ["--graph", "gnp:16:0.3", "--wakeup", "random", "--trials", "2", "--seed", "3",
               "--out", str(tmp / "gnp.csv")], False),
        (jj + ["--graph", str(tmp / "ring.txt"), "--wakeup", f"file:{tmp / 'wake.txt'}",
               "--json"], False),
        (jj + ["--graph", "clique", "--n", "6", "--wakeup", "stagger:3"], False),
        (bf + ["--graph", "gnp:16:0.2", "--json", "--out", str(tmp / "bf.csv")], False),
        (bf + ["--graph", "star:8", "--wakeup", "random", "--epsilon", "0.3"], False),
        (bf + ["--graph", "cycle-of-blocks:2", "--wakeup", "stagger:1"], False),
        (["dynamic", "--graph", "star:17", "--events", str(GOLDEN / "star17.events"), "--r", "4",
          "--max-periods", "24", "--wakeup", "random", "--seed", "7",
          "--out", str(tmp / "dyn.csv")], False),
        (["oracle", "ballsbins", "--m", "12", "--n", "12", "--trials", "200"], False),
        (["oracle", "amplify", "--c", "2", "--p", "0.5", "--q", "1", "--n", "64"], False),
        (["oracle", "lowerbound", "--k", "2", "--slots", "300", "--trials", "2"], False),
        (jj + ["--graph", str(tmp / "missing.txt")], True),
        (jj + ["--graph", "gnp:8:0.5", "--delta", "3"], True),
        (["dynamic", "--graph", "star:5", "--events", str(tmp / "bad.events")], True),
        (["dynamic", "--graph", "star:2", "--events", str(tmp / "crowd.events"),
          "--max-periods", "4"], True),
        (["oracle", "ballsbins", "--m", "4", "--n", "4", "--seed", "-1"], True),
    ]


def src_functions():
    """``{(file, first line, name): qualified name}`` of every def and
    lambda in ``src/beepsim``, comprehensions left out."""
    found = {}

    def walk(code, prefix):
        for const in code.co_consts:
            if not isinstance(const, types.CodeType):
                continue
            if const.co_flags & inspect.CO_NEWLOCALS:  # a function, not a class body
                if const.co_name not in COMPREHENSIONS:
                    key = (const.co_filename, const.co_firstlineno, const.co_name)
                    found[key] = prefix + const.co_name
                walk(const, f"{prefix}{const.co_name}.<locals>.")
            else:
                walk(const, f"{prefix}{const.co_name}.")

    for path in sorted(SRC.glob("*.py")):
        walk(compile(path.read_text(), str(path), "exec"), f"{path.stem}.")
    return found


def test_every_src_function_is_entered_by_a_command(tmp_path, capsys):
    bs = beepsim_modules()
    bs.cli.build_parser.cache_clear()  # so that this run builds the parser
    spans = load_spans()
    tracer = spans.Tracer()
    entered = set()

    def hook(frame, event, arg):
        entered.add(frame.f_code)

    exits = []
    old, old_threads = sys.getprofile(), threading.getprofile()
    sys.setprofile(hook)
    threading.setprofile(hook)
    try:
        spans.install(tracer, bs)
        patched = {(owner, name) for owner, name, _ in tracer.patched()}
        for argv, bad in commands(tmp_path):
            try:
                code = bs.cli.main(argv)
            except SystemExit as exc:  # argparse rejects a value
                code = exc.code
            exits.append((argv, bad, code, capsys.readouterr().err))
        bs.ballsbins.bb_enumerate(4, 3)
    finally:
        sys.setprofile(old)
        threading.setprofile(old_threads)
        tracer.restore()

    assert [(argv, code) for argv, bad, code, _ in exits if (code == 2) != bad] == []
    assert all("error" in err for _, bad, _, err in exits if bad)
    # the fingerprint entries hold only while the benchmark still wraps it
    assert (DiscreteEngine, "fingerprint") in patched
    reached = {(c.co_filename, c.co_firstlineno, c.co_name) for c in entered}
    unreached = {name for key, name in src_functions().items() if key not in reached}
    assert sorted(unreached - ALLOWED.keys()) == []
    assert sorted(ALLOWED.keys() - unreached) == []  # an entry no longer needed
