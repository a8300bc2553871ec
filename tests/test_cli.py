from __future__ import annotations

import json

import numpy as np
import pytest

from plcroute import dlc, sfn
from plcroute.channel import PerMatrix, load_matrix, save_matrix
from plcroute.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def perfect2(tmp_path):
    path = tmp_path / "perfect2.per"
    save_matrix(PerMatrix(np.zeros((2, 2))), path)
    return str(path)


@pytest.fixture
def ring10(tmp_path):
    code = main(["generate", "ring", "--nodes", "10",
                 "--per-adj", "0.1", "--per-2", "0.6",
                 "-o", str(tmp_path / "ring10.per")])
    assert code == 0
    return str(tmp_path / "ring10.per")


def test_generate_ring_writes_matrix_and_manifest(tmp_path, capsys, ring10):
    matrix = load_matrix(ring10)
    assert matrix.node_count == 10
    manifest = json.loads((tmp_path / "ring10.per.manifest.json").read_text())
    assert manifest["channel"]["kind"] == "ring"
    assert manifest["channel"]["node_count"] == 10
    assert manifest["tool"] == "plcroute"


def test_generate_rand_area_deterministic(tmp_path, capsys):
    out1, out2 = tmp_path / "a.per", tmp_path / "b.per"
    for out in (out1, out2):
        code, _, _ = run(capsys, "generate", "rand-area", "--nodes", "20",
                         "--seed", "7", "-o", str(out))
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_generate_ring_too_small_fails(tmp_path, capsys):
    code, _, err = run(capsys, "generate", "ring", "--nodes", "2",
                       "-o", str(tmp_path / "x.per"))
    assert code == 1
    assert "at least 3 nodes" in err


def test_analyze_perfect_two_nodes_both(perfect2, capsys, tmp_path):
    out = tmp_path / "analysis.json"
    code, text, _ = run(capsys, "analyze", "--protocol", "both",
                        "-o", str(out), perfect2)
    assert code == 0
    assert "totals: dlc1000 2.0000, sfn 2.0000" in text
    doc = json.loads(out.read_text())
    assert doc["dlc1000"]["reachable_total"] == 2.0
    assert doc["sfn"]["reachable_total"] == 2.0


def test_analyze_ring_orders_protocols(ring10, capsys, tmp_path):
    out = tmp_path / "analysis.json"
    code, _, _ = run(capsys, "analyze", "-o", str(out), ring10)
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["sfn"]["reachable_total"] < doc["dlc1000"]["reachable_total"]


def test_analyze_reports_unreachable(tmp_path, capsys):
    path = tmp_path / "cut.per"
    path.write_text("0,0.1,1\n0.1,0,1\n1,1,0\n")
    code, text, _ = run(capsys, "analyze", "--protocol", "dlc1000",
                        "--max-level", "1", str(path))
    assert code == 0
    assert "unreachable" in text
    assert "inf" in text


def test_analyze_invalid_matrix_fails(tmp_path, capsys):
    path = tmp_path / "bad.per"
    path.write_text("0,2\n0.5,0\n")
    code, _, err = run(capsys, "analyze", str(path))
    assert code == 1
    assert "out of range" in err


def test_simulate_reports_relative_difference(ring10, capsys, tmp_path):
    out = tmp_path / "sim.json"
    code, text, _ = run(capsys, "simulate", "--protocol", "sfn",
                        "--cycles", "200", "--seed", "1", "-o", str(out),
                        ring10)
    assert code == 0
    assert "relative difference (analytic-sim)/sim" in text
    doc = json.loads(out.read_text())
    analytic = doc["analytic_total"]
    simulated = doc["simulation"]["mean_cycle_duration"]
    assert doc["relative_difference"] == pytest.approx(
        (analytic - simulated) / simulated, rel=1e-12)


def test_simulate_same_command_same_output(ring10, capsys, tmp_path):
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        code, _, _ = run(capsys, "simulate", "--protocol", "dlc1000",
                         "--cycles", "100", "--seed", "5", "-o", str(out),
                         ring10)
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


DLC_SLAVE_KEYS = {"slave", "best_level", "repeaters", "expected_duration",
                  "per_level"}
DLC_LEVEL_KEYS = {"level", "success_prob", "expected_duration"}
SFN_SLAVE_KEYS = {"slave", "r_dl", "r_ul", "poll_success", "expected_duration",
                  "candidates"}
SFN_CANDIDATE_KEYS = {"r_dl", "r_ul", "poll_success", "expected_duration"}
ANALYSIS_KEYS = {"per_slave", "reachable_total", "unreachable", "complete"}


def test_json_keys_are_stable(ring10, capsys, tmp_path):
    out = tmp_path / "analysis.json"
    assert run(capsys, "analyze", "-o", str(out), ring10)[0] == 0
    doc = json.loads(out.read_text())
    assert set(doc["dlc1000"]) == set(doc["sfn"]) == ANALYSIS_KEYS
    for entry in doc["dlc1000"]["per_slave"]:
        assert set(entry) == DLC_SLAVE_KEYS
        assert all(set(o) == DLC_LEVEL_KEYS for o in entry["per_level"])
    for entry in doc["sfn"]["per_slave"]:
        assert set(entry) == SFN_SLAVE_KEYS
        assert entry["candidates"]
        assert all(set(c) == SFN_CANDIDATE_KEYS for c in entry["candidates"])

    out = tmp_path / "sim.json"
    assert run(capsys, "simulate", "--protocol", "dlc1000", "--cycles", "5",
               "-o", str(out), ring10)[0] == 0
    sim = json.loads(out.read_text())["simulation"]
    assert set(sim) == {"protocol", "cycles", "per_slave",
                        "mean_cycle_duration", "reached_count", "total_slots",
                        "seed_echo"}
    for entry in sim["per_slave"]:
        assert set(entry) == {"slave", "attempts", "successes",
                              "mean_round_trip_slots", "give_ups", "slots"}


def _count_calls(monkeypatch, module, name: str) -> list:
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_compare_analyses_each_protocol_once(ring10, capsys, monkeypatch):
    dlc_calls = _count_calls(monkeypatch, dlc, "cycle_analysis")
    sfn_calls = _count_calls(monkeypatch, sfn, "cycle_analysis")
    path_calls = _count_calls(monkeypatch, dlc, "best_path")
    assert run(capsys, "compare", "--cycles", "5", ring10)[0] == 0
    assert len(dlc_calls) == 1
    assert len(sfn_calls) == 1
    compare_paths = len(path_calls)
    del path_calls[:]
    dlc.cycle_analysis(load_matrix(ring10))
    assert compare_paths == len(path_calls) > 0


def test_simulate_zero_cycles_is_argument_error(ring10, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--protocol", "sfn", "--cycles", "0", ring10])
    assert exc.value.code == 1


def test_simulate_text_and_csv_formats(ring10, capsys):
    code, text, _ = run(capsys, "simulate", "--protocol", "dlc1000",
                        "--cycles", "50", ring10)
    assert code == 0 and "mean cycle duration" in text
    code, text, _ = run(capsys, "simulate", "--protocol", "dlc1000",
                        "--cycles", "50", "--format", "csv", ring10)
    assert code == 0
    assert text.splitlines()[0].startswith("slave,attempts,successes")


def test_compare_single_perfect_matrix(perfect2, capsys, tmp_path):
    out = tmp_path / "cmp.json"
    code, text, _ = run(capsys, "compare", "--cycles", "20",
                        "-o", str(out), perfect2)
    assert code == 0
    assert "4.7%" in text and "1.6%" in text
    doc = json.loads(out.read_text())
    model = doc["models"][0]
    assert model["dlc1000"]["reachable_total"] == 2.0
    assert model["sfn"]["reachable_total"] == 2.0
    assert doc["overhead"]["dlc1000"]["routing_bits_per_packet"] == 24
    assert doc["overhead"]["sfn"]["routing_bits_per_packet"] == 8


def test_compare_rejects_csv_format(ring10, capsys):
    # compare prints several tables and has no CSV layout
    with pytest.raises(SystemExit) as exc:
        main(["compare", "--cycles", "5", "--format", "csv", ring10])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "invalid choice: 'csv'" in captured.err


def test_compare_empty_input_is_usage_error(capsys):
    code, _, err = run(capsys, "compare")
    assert code == 1
    assert "no matrices" in err


def test_compare_continues_past_bad_file(perfect2, tmp_path, capsys):
    bad = tmp_path / "bad.per"
    bad.write_text("not,numbers\n")
    out = tmp_path / "cmp.json"
    code, text, _ = run(capsys, "compare", "--cycles", "10", "-o", str(out),
                        perfect2, str(bad))
    assert code == 1  # a failure row forces a nonzero exit
    doc = json.loads(out.read_text())
    assert "error" in doc["models"][1]
    assert "reachable_total" in doc["models"][0]["dlc1000"]
    assert "failed" in text


def test_compare_table_numbers_appear_in_json_full_precision(
        ring10, capsys, tmp_path):
    out = tmp_path / "cmp.json"
    code, text, _ = run(capsys, "compare", "--cycles", "30", "--seed", "2",
                        "-o", str(out), ring10)
    assert code == 0
    doc = json.loads(out.read_text())
    model = doc["models"][0]
    # the rounded text cell comes from the full-precision JSON value
    rounded = f"{model['sfn']['reachable_total']:.4f}"
    assert rounded in text
    assert len(repr(model["sfn"]["reachable_total"]).split(".")[-1]) >= 10


def test_compare_defaults_orders_protocols(capsys, tmp_path):
    out = tmp_path / "defaults.json"
    code, text, _ = run(capsys, "compare", "--defaults", "--cycles", "2",
                        "--seed", "1", "-o", str(out))
    assert code == 0
    doc = json.loads(out.read_text())
    assert [m["model"] for m in doc["models"]] == [
        "ring_10", "ring_100", "rand_area_20", "rand_area_100",
        "rand_area_200"]
    for model in doc["models"]:
        assert model["sfn"]["reachable_total"] <= \
            model["dlc1000"]["reachable_total"]


def test_unknown_argument_exits_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--bogus-flag"])
    assert exc.value.code == 1


@pytest.mark.parametrize("option", [["--slot-time", "0.5"], ["--horizon", "2"]],
                         ids=["slot_time", "horizon"])
def test_unknown_option_error_names_the_option_not_the_matrix(ring10, capsys,
                                                              option):
    # argparse takes the unknown option's value as the matrix path, which
    # leaves the real path among the unrecognized arguments
    with pytest.raises(SystemExit) as exc:
        main(["analyze", *option, ring10])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert f"unrecognized arguments: {option[0]}\n" in err
    assert ring10 not in err


def test_json_format_prints_document(perfect2, capsys):
    code, text, _ = run(capsys, "analyze", "--format", "json", perfect2)
    assert code == 0
    doc = json.loads(text)
    assert doc["command"] == "analyze"


SIM_TABLE = (
    "protocol {protocol}, 5 cycles, seed 0\n"
    "slave  attempts  successes  mean_slots  give_ups\n"
    "------------------------------------------------\n"
    "    1         5          5       2.000         0\n"
    "mean cycle duration 2.0000 (1 slaves reached), 10 slots total\n"
    "analytic total 2.0000, relative difference (analytic-sim)/sim: +0.00%\n")
SIM_CSV = ("slave,attempts,successes,mean_round_trip_slots,give_ups\r\n"
           "1,5,5,2.0,0\r\n")


@pytest.mark.parametrize("argv,expected", [
    (["analyze"],
     "slave  dlc_level  dlc_duration  sfn_levels  sfn_duration\n"
     "--------------------------------------------------------\n"
     "    1          0        2.0000         0/0        2.0000\n"
     "totals: dlc1000 2.0000, sfn 2.0000\n"),
    (["analyze", "--format", "csv"],
     "slave,dlc_level,dlc_duration,sfn_levels,sfn_duration\r\n"
     "1,0,2.0000,0/0,2.0000\r\n"),
    (["simulate", "--protocol", "dlc1000", "--cycles", "5"],
     SIM_TABLE.format(protocol="dlc1000")),
    (["simulate", "--protocol", "dlc1000", "--cycles", "5", "--format", "csv"],
     SIM_CSV),
    (["simulate", "--protocol", "sfn", "--cycles", "5"],
     SIM_TABLE.format(protocol="sfn")),
    (["simulate", "--protocol", "sfn", "--cycles", "5", "--format", "csv"],
     SIM_CSV),
], ids=["analyze-text", "analyze-csv", "simulate-dlc1000-text",
        "simulate-dlc1000-csv", "simulate-sfn-text", "simulate-sfn-csv"])
def test_text_and_csv_layout_on_perfect_matrix(perfect2, capsys, argv,
                                               expected):
    # every try succeeds on a perfect matrix, so the bytes do not depend
    # on the random streams
    code, text, err = run(capsys, *argv, perfect2)
    assert (code, err) == (0, "")
    assert text == expected
