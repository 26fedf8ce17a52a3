"""Command-line interface: exit codes, CSV schema, determinism."""

import dataclasses
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from beepsim import cli, runner
from beepsim.cli import main
from beepsim.config import SimConfig
from beepsim.errors import ConfigError
from beepsim.trace import COLUMNS


def run_cli(args):
    return main(args)


def test_static_jitterjump_small_run(tmp_path, capsys):
    out = tmp_path / "run.csv"
    code = run_cli([
        "static", "--protocol", "jitterjump", "--graph", "clique:6",
        "--seed", "3", "--out", str(out),
    ])
    captured = capsys.readouterr()
    assert code == 0
    assert "all validators passed" in captured.out
    header = out.read_text().splitlines()[0]
    assert header == ",".join(COLUMNS)


def test_static_is_byte_deterministic(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = ["static", "--graph", "random-regular", "--n", "12", "--delta", "4",
            "--seed", "9", "--trials", "2"]
    assert run_cli(args + ["--out", str(out1)]) == 0
    assert run_cli(args + ["--out", str(out2)]) == 0
    for t in ("_t000", "_t001"):
        a = (tmp_path / f"a{t}.csv").read_bytes()
        b = (tmp_path / f"b{t}.csv").read_bytes()
        assert a == b


def test_static_seed_changes_output(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    base = ["static", "--graph", "clique:6"]
    run_cli(base + ["--seed", "1", "--out", str(out1)])
    run_cli(base + ["--seed", "2", "--out", str(out2)])
    assert out1.read_bytes() != out2.read_bytes()


def test_static_beepfirst_run(capsys):
    code = run_cli([
        "static", "--protocol", "beepfirst", "--graph", "gnp", "--n", "16",
        "--p", "0.2", "--seed", "5", "--json",
    ])
    captured = capsys.readouterr()
    assert code == 0
    summary = json.loads(captured.out)
    assert summary["protocol"] == "beepfirst"
    assert summary["failures"] == []


def test_sweep_reports_log_fit(capsys):
    code = run_cli([
        "static", "--graph", "random-regular", "--n", "12,16", "--delta", "4",
        "--seed", "7", "--trials", "2", "--json",
    ])
    captured = capsys.readouterr()
    assert code == 0
    summary = json.loads(captured.out)
    assert "log_fit_constant" in summary


def test_bad_kappa_is_config_error(capsys):
    code = run_cli([
        "static", "--graph", "clique:4", "--kappa", "32", "--eta", "0.0625",
    ])
    assert code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("kappa, message", [
    ("nan", "kappa must be finite, got nan"),
    ("inf", "kappa must be finite, got inf"),
    # Q = 2e9 * 3 slots: draws from 2**32 on would no longer match numpy's
    ("2e9", "kappa*delta = 6e+09 slots exceeds the 2**32 a slot draw covers"),
])
def test_kappa_without_a_valid_slot_count_exits_2(kappa, message, capsys, monkeypatch):
    def no_steps(*args):
        raise AssertionError("a trial stepped")

    # the slot count is checked before a trial takes its first step
    monkeypatch.setattr(runner._ArraySteps, "__init__", no_steps)
    code = run_cli(["static", "--graph", "clique:4", f"--kappa={kappa}"])
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_colors_used_counts_distinct_colors(capsys, monkeypatch):
    # color 0 counts like any other
    monkeypatch.setattr(cli, "hardness_reduction", lambda *args: np.array([0, 5, 0, 3]))
    assert run_cli(["static", "--graph", "clique:4", "--json"]) == 0
    (trial,) = json.loads(capsys.readouterr().out)["sizes"][0]["trials"]
    assert trial["colors_used"] == 3


def test_slot_count_is_capped_at_2_to_the_32():
    assert SimConfig(kappa=2.0**30).resolve_q(4) == 2**32
    with pytest.raises(ConfigError, match="exceeds the 2"):
        SimConfig(kappa=2.0**30 + 1).resolve_q(4)
    for kappa in (math.nan, math.inf, -math.inf):
        with pytest.raises(ConfigError, match="kappa must be finite"):
            SimConfig(kappa=kappa)


@pytest.mark.parametrize("flags", [
    ["--eta", "0.5", "--kappa", "1"],
    ["--eta", "0.0625"],
    ["--kappa", "64"],
    ["--max-periods", "3"],
])
def test_beepfirst_rejects_jitterjump_flags(flags, capsys):
    code = run_cli(["static", "--protocol", "beepfirst", "--graph", "clique:4", *flags])
    assert code == 2
    err = capsys.readouterr().err
    assert f"{flags[0]} does not apply to the beepfirst protocol" in err


@pytest.mark.parametrize("command", [
    ["static", "--graph", "clique:4"],
    ["static", "--protocol", "jitterjump", "--graph", "clique:4"],
    ["dynamic", "--graph", "clique:4"],
])
def test_jitterjump_rejects_epsilon(command, capsys):
    code = run_cli([*command, "--epsilon", "7"])
    assert code == 2
    assert "--epsilon does not apply to the jitterjump protocol" in capsys.readouterr().err


def test_each_protocol_keeps_its_own_flags():
    assert run_cli(["static", "--protocol", "beepfirst", "--graph", "clique:4",
                    "--epsilon", "0.2"]) == 0
    assert run_cli(["static", "--graph", "clique:4", "--eta", "0.05", "--kappa", "80",
                    "--max-periods", "40"]) == 0


def test_unknown_graph_file_is_config_error(tmp_path, capsys):
    code = run_cli(["static", "--graph", str(tmp_path / "missing.edges")])
    assert code == 2


def test_edge_list_file_input(tmp_path):
    graph = tmp_path / "g.edges"
    graph.write_text("0 1\n1 2\n2 0\n")
    assert run_cli(["static", "--graph", str(graph), "--seed", "4"]) == 0


def test_dynamic_with_empty_events_matches_dynamic_no_churn(tmp_path):
    events = tmp_path / "events.txt"
    events.write_text("")
    out1 = tmp_path / "with.csv"
    out2 = tmp_path / "without.csv"
    base = ["dynamic", "--graph", "clique:5", "--seed", "11", "--r", "3",
            "--max-periods", "12"]
    assert run_cli(base + ["--events", str(events), "--out", str(out1)]) == 0
    assert run_cli(base + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_dynamic_malformed_events_exit_2(tmp_path, capsys):
    events = tmp_path / "events.txt"
    events.write_text("5 explode 1 2\n")
    code = run_cli(["dynamic", "--graph", "clique:5", "--events", str(events)])
    assert code == 2


def test_dynamic_event_after_the_last_period_exits_2(tmp_path, capsys):
    events = tmp_path / "events.txt"
    events.write_text("100 add_edge 0 1\n")
    code = run_cli(["dynamic", "--graph", "clique:4", "--events", str(events),
                    "--max-periods", "40"])
    assert code == 2
    assert "event at period 100 comes after the last period 40" in capsys.readouterr().err


@pytest.mark.parametrize("event,message", [
    ("3 remove_node 99", "cannot remove unknown node 99"),
    ("3 add_edge 0 0", "self-loops are not allowed"),
    ("3 add_edge 0 1", "edge (0, 1) already exists"),
    ("3 add_edge 0 9", "edge (0, 9) references an unknown node"),
    ("3 remove_edge 0 9", "cannot remove unknown edge (0, 9)"),
    ("3 add_node 2", "node 2 already exists"),
    ("3 add_node -1", "node ids must be nonnegative"),
    ("3 add_node 7 7", "self-loops are not allowed"),
    ("3 add_node 7 0 0", "edge (7, 0) already exists"),
    ("3 add_node 8 42", "edge (8, 42) references an unknown node"),
])
def test_dynamic_bad_event_exits_2_with_its_message(tmp_path, capsys, event, message):
    events = tmp_path / "events.txt"
    events.write_text(event + "\n")
    code = run_cli(["dynamic", "--graph", "clique:4", "--max-periods", "8",
                    "--events", str(events)])
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_dynamic_event_at_the_last_period_is_applied(tmp_path):
    events = tmp_path / "events.txt"
    events.write_text("40 remove_node 3\n")
    base = ["dynamic", "--graph", "clique:4", "--max-periods", "40"]
    assert run_cli(base + ["--events", str(events), "--out", str(tmp_path / "with.csv")]) == 0
    assert run_cli(base + ["--out", str(tmp_path / "without.csv")]) == 0
    assert (tmp_path / "with.csv").read_bytes() != (tmp_path / "without.csv").read_bytes()


def test_dynamic_beep_bound_violation_fails(monkeypatch, capsys):
    run_trial = cli.run_jitterjump_trial

    def one_violation(*args, **kwargs):
        return dataclasses.replace(run_trial(*args, **kwargs), beep_bound_violations=1)

    monkeypatch.setattr(cli, "run_jitterjump_trial", one_violation)
    assert run_cli(["dynamic", "--graph", "clique:4", "--max-periods", "8"]) == 1
    out = capsys.readouterr().out
    assert "FAIL graph trial=0: per-period beep bound violated" in out
    assert "all validators passed" not in out


def test_failure_tag_labels_a_full_spec_as_graph(capsys):
    assert run_cli(["static", "--graph", "clique:4", "--max-periods", "1"]) == 1
    out = capsys.readouterr().out
    assert "graph: 1 trial(s) complete" in out
    assert "FAIL graph trial=0: did not converge within 1 periods" in out
    assert "n=None" not in out


def test_oracle_ballsbins_gate(capsys):
    assert run_cli(["oracle", "ballsbins", "--m", "12", "--n", "12"]) == 0
    out = capsys.readouterr().out
    assert "P[occupied > m/4]" in out
    assert "pass" in out


def test_oracle_ballsbins_montecarlo(capsys):
    assert run_cli(["oracle", "ballsbins", "--m", "4", "--n", "6",
                    "--trials", "20000"]) == 0
    assert "monte carlo" in capsys.readouterr().out


@pytest.mark.parametrize("m, n", [("0", "3"), ("5", "1")])
def test_oracle_ballsbins_point_mass_is_compared_exactly(m, n, capsys, monkeypatch):
    # every placement occupies the same number of bins, so sigma is 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(["oracle", "ballsbins", "--m", m, "--n", n, "--trials", "100"]) == 0
    assert "worst bin deviation 0.00 sigma" in capsys.readouterr().out
    occupied = min(int(m), int(n))
    monkeypatch.setattr(cli, "bb_montecarlo",
                        lambda *args: {occupied: 0.99, occupied + 1: 0.01})
    assert run_cli(["oracle", "ballsbins", "--m", m, "--n", n, "--trials", "100"]) == 1
    assert "worst bin deviation inf sigma" in capsys.readouterr().out


def test_oracle_amplify(capsys):
    assert run_cli(["oracle", "amplify", "--c", "2", "--p", "0.5",
                    "--q", "1", "--n", "16"]) == 0
    out = capsys.readouterr().out
    assert "22.18" in out


def test_oracle_amplify_domain_error(capsys):
    assert run_cli(["oracle", "amplify", "--c", "2", "--p", "0",
                    "--q", "1", "--n", "16"]) == 2


@pytest.mark.parametrize("flag", ["--c", "--q", "--n"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_oracle_amplify_rejects_non_finite_parameters(flag, value, capsys):
    values = {"--c": "1", "--p": "0.5", "--q": "1", "--n": "4", flag: value}
    assert run_cli(["oracle", "amplify", *(x for pair in values.items() for x in pair)]) == 2
    captured = capsys.readouterr()
    assert "finite" in captured.err
    assert captured.out == ""


def test_oracle_lowerbound(capsys):
    code = run_cli(["oracle", "lowerbound", "--k", "4", "--slots", "256",
                    "--trials", "20", "--seed", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "divergences: 0" in out


@pytest.mark.parametrize("slots", ["1", "100", "192"])
def test_oracle_lowerbound_refuses_runs_inside_the_listen_only_period(slots, capsys):
    # Q = 64 * 3 = 192 on the block graph: no twin acts before slot Q
    code = run_cli(["oracle", "lowerbound", "--k", "4", "--slots", slots,
                    "--trials", "2", "--seed", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert "Q = 192" in captured.err
    assert captured.out == ""


def test_sweep_text_summary_labels_the_median_fit(capsys):
    code = run_cli([
        "static", "--graph", "random-regular", "--n", "12,16", "--delta", "4",
        "--seed", "7", "--trials", "2",
    ])
    out = capsys.readouterr().out
    assert code == 0
    fit_lines = [line for line in out.splitlines() if line.startswith("fit:")]
    assert len(fit_lines) == 1
    assert fit_lines[0].startswith("fit: median-convergence ~= ")


def test_sweep_of_single_nodes_prints_no_fit(capsys):
    # ln 1 = 0 at every size, so there is no C*ln(n) to fit
    code = run_cli(["static", "--graph", "clique", "--n", "1,1"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert out[:2] == ["n=1: median convergence 2 periods, max 2"] * 2
    assert not [line for line in out if line.startswith("fit:")]


@pytest.mark.parametrize("args", [
    ["static", "--graph", "clique:4", "--trials", "0"],
    ["static", "--protocol", "beepfirst", "--graph", "clique:4", "--trials", "-1"],
    ["dynamic", "--graph", "clique:4", "--trials", "0"],
    ["oracle", "lowerbound", "--k", "4", "--slots", "40", "--trials", "0"],
    ["oracle", "lowerbound", "--k", "4", "--slots", "0", "--trials", "5"],
    ["oracle", "ballsbins", "--m", "5", "--n", "5", "--trials", "0"],
])
def test_counts_below_one_exit_2(args, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(args)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "must be at least 1" in captured.err
    assert "all validators passed" not in captured.out


def test_beepfirst_stagger_wakeup(capsys):
    code = run_cli(["static", "--protocol", "beepfirst", "--graph", "gnp:16:0.2",
                    "--wakeup", "stagger:1", "--seed", "5", "--trials", "2"])
    assert code == 0
    assert "all validators passed" in capsys.readouterr().out


def test_beepfirst_file_wakeup(tmp_path, capsys):
    schedule = tmp_path / "wake.txt"
    schedule.write_text("".join(f"{v} {v % 3}\n" for v in range(8)))
    code = run_cli(["static", "--protocol", "beepfirst", "--graph", "clique:8",
                    "--wakeup", f"file:{schedule}", "--seed", "5", "--json"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["failures"] == []


def test_wakeup_file_with_a_repeated_node_exits_2(tmp_path, capsys):
    schedule = tmp_path / "wake.txt"
    schedule.write_text("0 5\n0 7\n")
    code = run_cli(["static", "--graph", "clique:3", "--wakeup", f"file:{schedule}"])
    assert code == 2
    captured = capsys.readouterr()
    assert "wakeup line 2: node 0 is listed twice" in captured.err
    assert "all validators passed" not in captured.out


@pytest.mark.parametrize("graph", ["clique:6:junk", "gnp:16:0.2:3", "random-regular:16"])
def test_graph_spec_with_wrong_field_count_exits_2(graph, capsys):
    code = run_cli(["static", "--graph", graph])
    captured = capsys.readouterr()
    assert code == 2
    assert f"bad graph spec {graph!r}" in captured.err
    assert "all validators passed" not in captured.out


def test_n_with_full_spec_or_edge_file_exits_2(tmp_path, capsys):
    graph = tmp_path / "g.edges"
    graph.write_text("0 1\n1 2\n2 0\n")
    for spec in ("clique:6", str(graph)):
        code = run_cli(["static", "--graph", spec, "--n", "12,16"])
        captured = capsys.readouterr()
        assert code == 2
        assert "--n applies only to a bare generator name" in captured.err
        assert "n=12" not in captured.out


@pytest.mark.parametrize("args, flag", [
    (["--graph", "clique:4", "--delta", "7", "--p", "0.5"], "delta"),
    (["--graph", "random-regular", "--n", "8", "--delta", "3", "--p", "0.9"], "p"),
    (["--graph", "gnp", "--n", "8", "--p", "0.5", "--delta", "3"], "delta"),
])
def test_graph_flag_the_graph_does_not_take_exits_2(args, flag, capsys):
    code = run_cli(["static", *args])
    captured = capsys.readouterr()
    assert code == 2
    assert f"--{flag} does not apply to --graph" in captured.err
    assert "all validators passed" not in captured.out


def test_delta_with_edge_file_exits_2(tmp_path, capsys):
    graph = tmp_path / "g.edges"
    graph.write_text("0 1\n1 2\n2 0\n")
    code = run_cli(["static", "--graph", str(graph), "--delta", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert f"--delta does not apply to --graph {str(graph)!r}" in captured.err
    assert "all validators passed" not in captured.out


# -- stdout pins: exact text and JSON summaries of five campaigns -------------

STDOUT_PINS = Path(__file__).parent / "data" / "cli_stdout.json"
STAR17_EVENTS = Path(__file__).parent / "data" / "golden" / "star17.events"

PINNED_RUNS = {
    # a two-size sweep on the array path: medians and the log fit
    "sweep": ["static", "--graph", "random-regular", "--n", "16,32", "--delta", "4",
              "--trials", "2", "--seed", "3"],
    # the same sweep on the per-node engine, with its overlap failures
    "sweep_random": ["static", "--graph", "random-regular", "--n", "16,32", "--delta", "4",
                     "--trials", "2", "--seed", "3", "--wakeup", "random"],
    "dyn_star17": ["dynamic", "--graph", "star:17", "--events", str(STAR17_EVENTS),
                   "--r", "4", "--max-periods", "24", "--wakeup", "random", "--seed", "7"],
    "beepfirst": ["static", "--protocol", "beepfirst", "--graph", "gnp:16:0.2", "--trials", "2"],
    "fail": ["static", "--graph", "random-regular", "--n", "16", "--delta", "4",
             "--max-periods", "1", "--seed", "3"],
}


@pytest.mark.parametrize("mode", ["text", "json"])
@pytest.mark.parametrize("name", sorted(PINNED_RUNS))
def test_stdout_is_pinned(name, mode, capsys):
    expected = json.loads(STDOUT_PINS.read_text())[name][mode]
    code = run_cli(PINNED_RUNS[name] + (["--json"] if mode == "json" else []))
    assert capsys.readouterr().out == expected["stdout"]
    assert code == expected["exit"]


# the oracles have no --json mode, so they are pinned as text only
PINNED_ORACLES = {
    "oracle_ballsbins": ["oracle", "ballsbins", "--m", "24", "--n", "240", "--trials", "200000",
                         "--seed", "5"],
    "oracle_lowerbound": ["oracle", "lowerbound", "--k", "16", "--slots", "512", "--trials", "20",
                          "--seed", "5"],
}


@pytest.mark.parametrize("name", sorted(PINNED_ORACLES))
def test_oracle_stdout_is_pinned(name, capsys):
    expected = json.loads(STDOUT_PINS.read_text())[name]["text"]
    code = run_cli(PINNED_ORACLES[name])
    assert capsys.readouterr().out == expected["stdout"]
    assert code == expected["exit"]


def test_parser_is_built_once_and_survives_a_bad_argv(capsys):
    assert cli.build_parser() is cli.build_parser()
    with pytest.raises(SystemExit) as exc:
        run_cli(["static", "--graph", "clique:4", "--trials", "0"])
    assert exc.value.code == 2
    capsys.readouterr()
    # the same parser then reads the next argv as a fresh process would
    expected = json.loads(STDOUT_PINS.read_text())["fail"]["text"]
    code = run_cli(PINNED_RUNS["fail"])
    assert capsys.readouterr().out == expected["stdout"]
    assert code == expected["exit"]
