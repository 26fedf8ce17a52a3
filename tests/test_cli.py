"""Command-line interface: exit codes, CSV schema, determinism."""

import json

import pytest

from beepsim.cli import main
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


def test_dynamic_event_at_the_last_period_is_applied(tmp_path):
    events = tmp_path / "events.txt"
    events.write_text("40 remove_node 3\n")
    base = ["dynamic", "--graph", "clique:4", "--max-periods", "40"]
    assert run_cli(base + ["--events", str(events), "--out", str(tmp_path / "with.csv")]) == 0
    assert run_cli(base + ["--out", str(tmp_path / "without.csv")]) == 0
    assert (tmp_path / "with.csv").read_bytes() != (tmp_path / "without.csv").read_bytes()


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


def test_oracle_amplify(capsys):
    assert run_cli(["oracle", "amplify", "--c", "2", "--p", "0.5",
                    "--q", "1", "--n", "16"]) == 0
    out = capsys.readouterr().out
    assert "22.18" in out


def test_oracle_amplify_domain_error(capsys):
    assert run_cli(["oracle", "amplify", "--c", "2", "--p", "0",
                    "--q", "1", "--n", "16"]) == 2


def test_oracle_lowerbound(capsys):
    code = run_cli(["oracle", "lowerbound", "--k", "4", "--slots", "40",
                    "--trials", "20", "--seed", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "divergences: 0" in out


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


@pytest.mark.parametrize("args", [
    ["static", "--graph", "clique:4", "--trials", "0"],
    ["static", "--protocol", "beepfirst", "--graph", "clique:4", "--trials", "-1"],
    ["dynamic", "--graph", "clique:4", "--trials", "0"],
    ["oracle", "lowerbound", "--k", "4", "--slots", "40", "--trials", "0"],
    ["oracle", "lowerbound", "--k", "4", "--slots", "0", "--trials", "5"],
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
