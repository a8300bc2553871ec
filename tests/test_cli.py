from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

import plcroute
from plcroute import dlc, sfn
from plcroute.channel import (ChannelSpec, PerMatrix, load_matrix,
                              save_matrix)
from plcroute.cli import _total_text, main
from plcroute.metrics import routing_overhead
from plcroute.simulator import PROTOCOLS, SimConfig, analyze, compare


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
def dead2(tmp_path):
    # every link is lost, so no poll ever succeeds
    path = tmp_path / "dead2.per"
    path.write_text("0,1\n1,0\n")
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
    code, text, _ = run(capsys, "analyze", "-o", str(out), perfect2)
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
    code, text, _ = run(capsys, "analyze", "--max-level", "1", str(path))
    assert code == 0
    assert "unreachable" in text
    assert "inf" in text


def test_analyze_ring100_lists_unreachable_slaves_as_runs(tmp_path, capsys):
    path = str(tmp_path / "ring100.per")
    assert run(capsys, "generate", "ring", "--nodes", "100", "-o", path)[0] == 0
    code, text, _ = run(capsys, "analyze", path)
    assert code == 0
    assert text.splitlines()[-1] == (
        "totals: dlc1000 inf (79 unreachable: 11-89; "
        "reachable sum 237747.7448), sfn 5282.0866")


def test_unreachable_runs_mix_single_slaves_and_ranges():
    assert _total_text(1.5, (2, 3, 4, 7, 9, 10)) == (
        "inf (6 unreachable: 2-4,7,9-10; reachable sum 1.5000)")


def test_analyze_invalid_matrix_fails(tmp_path, capsys):
    path = tmp_path / "bad.per"
    path.write_text("0,2\n0.5,0\n")
    code, _, err = run(capsys, "analyze", str(path))
    assert code == 1
    assert "out of range" in err


def test_analyze_reads_a_matrix_file_with_a_byte_order_mark(ring10, capsys,
                                                             tmp_path):
    # Windows editors may re-save a file with a UTF-8 BOM before its
    # header comment; the BOM must not hide the comment's '#'
    plain = Path(ring10)
    assert not plain.read_bytes().startswith(b"\xef\xbb\xbf")
    marked = tmp_path / "bom.per"
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    assert np.array_equal(load_matrix(marked).per, load_matrix(plain).per)
    code, out, err = run(capsys, "analyze", str(marked))
    assert code == 0, err
    assert out == run(capsys, "analyze", ring10)[1]


@pytest.mark.parametrize("text,message", [
    ("0\n", "channel model needs at least 2 nodes"),
    ("# per matrix\n#\n", "no matrix rows found in "),
], ids=["one-node", "comments-only"])
def test_analyze_unusable_matrix_file_fails(tmp_path, capsys, text, message):
    path = tmp_path / "bad.per"
    path.write_text(text)
    code, out, err = run(capsys, "analyze", str(path))
    assert code == 1
    assert message in err
    assert out == ""


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


def test_relative_difference_is_na_when_no_slave_is_reached(dead2, capsys,
                                                           tmp_path):
    # a simulated mean of 0 has no relative difference
    for protocol in ("dlc1000", "sfn"):
        out = tmp_path / f"{protocol}.json"
        code, text, _ = run(capsys, "simulate", "--protocol", protocol,
                            "--cycles", "5", "-o", str(out), dead2)
        assert code == 0
        assert text.splitlines()[-1] == (
            "analytic total 0.0000, relative difference (analytic-sim)/sim: "
            "n/a")
        assert '"relative_difference": null' in out.read_text()
    code, text, _ = run(capsys, "compare", "--cycles", "5", dead2)
    assert code == 0
    cells = re.split(r"\s{2,}", text.splitlines()[3].strip())
    assert cells == [dead2, *["inf (1 unreachable: 1; reachable sum 0.0000)",
                              "0.00 (0 slaves)", "n/a"] * 2]


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_simulate_counts_give_ups_past_int64(capsys, tmp_path, protocol):
    # slave 1 answers now and then, slave 2 never: its 3 cycles make 2**63
    # tries each, at 2 slots a try for dlc1000 and 2**63 + 1 on average
    # for sfn
    path = tmp_path / "half.per"
    path.write_text("0,0.5,1\n0.5,0,1\n1,1,0\n")
    out = tmp_path / "sim.json"
    code, text, err = run(capsys, "simulate", "--protocol", protocol,
                          "--cycles", "3", "--max-retries", str(2**63 - 1),
                          "-o", str(out), str(path))
    assert (code, err) == (0, "")
    stats = json.loads(out.read_text())["simulation"]["per_slave"][1]
    per_try = 2**63 + 1 if protocol == "sfn" else 2
    assert (stats["attempts"], stats["slots"]) == (3 * 2**63,
                                                   3 * 2**63 * per_try)
    assert str(3 * 2**63) in text


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
MANIFEST_KEYS = {"tool", "version", "command", "cycles", "max_retries",
                 "max_level", "seed"}
COMPARISON_KEYS = {"simulation", "analytic_total", "analytic_unreachable",
                   "relative_difference"}


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
    doc = json.loads(out.read_text())
    assert set(doc) == MANIFEST_KEYS | COMPARISON_KEYS | {"matrix"}
    sim = doc["simulation"]
    assert set(sim) == {"protocol", "cycles", "per_slave",
                        "mean_cycle_duration", "reached_count", "total_slots",
                        "seed_echo"}
    for entry in sim["per_slave"]:
        assert set(entry) == {"slave", "attempts", "successes",
                              "mean_round_trip_slots", "give_ups", "slots"}

    out = tmp_path / "cmp.json"
    assert run(capsys, "compare", "--cycles", "5", "-o", str(out),
               ring10)[0] == 0
    doc = json.loads(out.read_text())
    assert set(doc) == MANIFEST_KEYS | {"packet_bytes", "models", "overhead"}
    (entry,) = doc["models"]
    assert set(entry) == {"model", "node_count", "dlc1000", "sfn",
                          "dlc1000_sim", "sfn_sim"}
    assert set(entry["dlc1000"]) == set(entry["sfn"]) == ANALYSIS_KEYS
    assert set(entry["dlc1000_sim"]) == set(entry["sfn_sim"]) == \
        COMPARISON_KEYS
    assert set(doc["overhead"]) == {"dlc1000", "sfn"}
    assert all(set(o) == {"protocol", "routing_bits_per_packet",
                          "packet_bits", "overhead_ratio",
                          "signaling_bits_per_poll_response"}
               for o in doc["overhead"].values())


# Each document must carry exactly dataclasses.asdict of the library's own
# results, key order included; its layout (whitespace) is not pinned.

def _ordered(value):
    """value with each dict as its list of (key, value) pairs and each tuple
    as a list, so that == also compares key order."""
    if isinstance(value, dict):
        return [(k, _ordered(v)) for k, v in value.items()]
    if isinstance(value, (list, tuple)):
        return [_ordered(v) for v in value]
    return value


def _json_document(capsys, tmp_path, code: int, *argv) -> dict:
    """argv's document under --format json -o, after checking its exit code
    and that stdout carries the file's bytes."""
    out = tmp_path / "doc.json"
    got, stdout, _ = run(capsys, *argv, "--format", "json", "-o", str(out))
    written = out.read_bytes()
    assert (got, stdout.encode("utf-8")) == (code, written)
    return json.loads(written)


def _manifest(command: str, **entries) -> dict:
    return {"tool": "plcroute", "version": plcroute.__version__,
            "command": command, **entries}


def _settings(cfg: SimConfig) -> dict:
    return {k: v for k, v in asdict(cfg).items() if k != "protocol"}


def _analysis(analysis) -> dict:
    return {"per_slave": [asdict(a) for a in analysis.slaves],
            "reachable_total": analysis.total,
            "unreachable": list(analysis.unreachable),
            "complete": analysis.complete}


def test_analyze_document_is_asdict_of_both_analyses(ring10, capsys,
                                                     tmp_path):
    doc = _json_document(capsys, tmp_path, 0, "analyze", "--max-level", "3",
                         ring10)
    matrix = load_matrix(ring10)
    expected = _manifest("analyze", matrix=ring10, node_count=10, max_level=3,
                         **{p: _analysis(analyze(matrix, p, 3))
                            for p in PROTOCOLS})
    assert _ordered(doc) == _ordered(expected)


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_simulate_document_is_asdict_of_the_comparison(ring10, capsys,
                                                       tmp_path, protocol):
    doc = _json_document(capsys, tmp_path, 0, "simulate", "--protocol",
                         protocol, "--cycles", "20", "--seed", "4", ring10)
    matrix = load_matrix(ring10)
    cfg = SimConfig(protocol, cycles=20, seed=4)
    result = compare(matrix, cfg, analyze(matrix, protocol, cfg.max_level))
    expected = _manifest("simulate", matrix=ring10, **_settings(cfg),
                         **asdict(result))
    assert _ordered(doc) == _ordered(expected)


def test_compare_document_is_asdict_of_every_result(ring10, capsys,
                                                    tmp_path):
    missing = str(tmp_path / "missing.per")
    doc = _json_document(capsys, tmp_path, 1, "compare", "--cycles", "5",
                         "--max-retries", "3", ring10, missing)
    with pytest.raises(OSError) as exc:
        load_matrix(missing)
    matrix = load_matrix(ring10)
    configs = {p: SimConfig(p, cycles=5, max_retries=3) for p in PROTOCOLS}
    analyses = {p: analyze(matrix, p) for p in PROTOCOLS}
    expected = _manifest(
        "compare", **_settings(configs["sfn"]), packet_bytes=64,
        models=[{"model": ring10, "node_count": 10,
                 **{p: _analysis(a) for p, a in analyses.items()},
                 **{f"{p}_sim": asdict(compare(matrix, configs[p], a))
                    for p, a in analyses.items()}},
                {"model": missing, "error": str(exc.value)}],
        overhead={p: asdict(routing_overhead(p)) for p in PROTOCOLS})
    assert _ordered(doc) == _ordered(expected)


@pytest.mark.parametrize("argv,spec", [
    (["ring", "--nodes", "6", "--per-adj", "0.2"],
     ChannelSpec(kind="ring", node_count=6, per_adjacent=0.2)),
    (["rand-area", "--nodes", "6", "--seed", "3"],
     ChannelSpec(kind="rand_area", node_count=6, seed=3)),
], ids=["ring", "rand-area"])
def test_generate_manifest_is_the_channel_spec(tmp_path, capsys, argv, spec):
    out = str(tmp_path / "m.per")
    assert run(capsys, "generate", *argv, "-o", out)[0] == 0
    doc = json.loads(Path(out + ".manifest.json").read_text(encoding="utf-8"))
    expected = _manifest("generate", channel=spec.to_dict(), output=out)
    assert _ordered(doc) == _ordered(expected)


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
    code, out, err = run(capsys, "simulate", "--protocol", "sfn",
                         "--cycles", "0", ring10)
    assert (code, out) == (1, "")
    assert "cycles must be >= 1" in err


SEED_RANGE = "seed must be an integer in 0..2**64-1"


@pytest.mark.parametrize("argv,message", [
    # simulate's matrix does not exist: its settings are checked first
    (["simulate", "--protocol", "sfn", "--cycles", "0", "{missing}"],
     "cycles must be >= 1"),
    (["simulate", "--protocol", "dlc1000", "--max-retries", "-1",
      "{missing}"], "max_retries must be >= 0"),
    (["simulate", "--protocol", "sfn", "--max-level", "-1", "{missing}"],
     "max_level must be >= 0"),
    (["analyze", "--max-level", "-1", "{ring10}"], "max_level must be >= 0"),
    (["compare", "--defaults", "--cycles", "0"], "cycles must be >= 1"),
    (["generate", "ring", "--nodes", "0"], "at least 3 nodes"),
    (["generate", "rand-area", "--nodes", "1"], "at least 2 nodes"),
    (["generate", "rand-area", "--nodes", "20", "--d50", "0"], "d50 > 0"),
    (["generate", "rand-area", "--nodes", "20", "--width", "-1"],
     "width > 0"),
    # a seed is an integer in 0..2**64-1 wherever it is taken
    (["generate", "rand-area", "--nodes", "5", "--seed", "-1"], SEED_RANGE),
    (["simulate", "--protocol", "sfn", "--seed", "-3", "{missing}"],
     SEED_RANGE),
    (["compare", "--defaults", "--seed", "-1"], SEED_RANGE),
    (["simulate", "--protocol", "dlc1000", "--seed", str(1 << 64),
      "{missing}"], SEED_RANGE),
], ids=["simulate-cycles", "simulate-max-retries", "simulate-max-level",
        "analyze-max-level", "compare-cycles", "ring-nodes",
        "rand-area-nodes", "rand-area-d50", "rand-area-width",
        "rand-area-seed", "simulate-seed", "compare-seed",
        "simulate-seed-too-large"])
def test_library_range_check_exits_one_and_writes_nothing(
        ring10, tmp_path, capsys, monkeypatch, argv, message):
    outdir = tmp_path / "out"
    outdir.mkdir()
    paths = {"ring10": ring10, "missing": str(tmp_path / "missing.per")}
    argv = [a.format(**paths) for a in argv]
    output = str(outdir / ("x.per" if argv[0] == "generate" else "x.json"))
    analyses = _count_calls(monkeypatch, dlc, "cycle_analysis")
    code, out, err = run(capsys, *argv, "-o", output)
    assert (code, out) == (1, "")
    assert err.startswith("error:") and message in err
    assert list(outdir.iterdir()) == []
    if argv[0] in ("simulate", "compare"):
        assert analyses == []  # rejected before the first analysis


def test_compare_defaults_with_files_fails_before_any_model(ring10, capsys,
                                                           monkeypatch):
    analyses = _count_calls(monkeypatch, dlc, "cycle_analysis")
    code, out, err = run(capsys, "compare", "--defaults", "--cycles", "1",
                         ring10)
    assert (code, out) == (1, "")
    assert err == "error: pass matrix files or --defaults, not both\n"
    assert analyses == []


def test_unwritable_output_prints_no_result(ring10, tmp_path, capsys):
    code, out, err = run(capsys, "analyze", ring10,
                         "-o", str(tmp_path / "missing" / "x.json"))
    assert (code, out) == (1, "")
    assert err.startswith("error:")


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
    # compare prints two tables and has no CSV layout
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


@pytest.mark.parametrize("argv", [["analyze", "--slot-time", "0.5"],
                                  ["analyze", "--horizon", "2"],
                                  ["analyze", "--protocol", "sfn"],
                                  ["compare", "--packet-bytes", "64"]],
                         ids=["slot_time", "horizon", "protocol",
                              "packet_bytes"])
def test_unknown_option_error_names_the_option_not_the_matrix(ring10, capsys,
                                                              argv):
    # argparse takes the unknown option's value as the matrix path, which
    # leaves the real path among the unrecognized arguments
    with pytest.raises(SystemExit) as exc:
        main([*argv, ring10])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert f"unrecognized arguments: {argv[1]}\n" in err
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
COMPARE_TABLE = (
    "== expected cycle duration: analytic vs simulation ==\n"
    "       model  dlc_analytic    dlc_simulated  dlc_rel_diff"
    "  sfn_analytic    sfn_simulated  sfn_rel_diff\n"
    + "-" * 102 + "\n"
    "perfect2.per        2.0000  2.00 (1 slaves)         +0.0%"
    "        2.0000  2.00 (1 slaves)         +0.0%\n"
    "\n"
    "== routing overhead (64-byte packets) ==\n"
    "protocol  routing_bits  of_packet  signaling_bits_per_response\n"
    "--------------------------------------------------------------\n"
    " dlc1000            24       4.7%                          100\n"
    "     sfn             8       1.6%                            0\n")
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
    (["compare", "--cycles", "5"], COMPARE_TABLE),
], ids=["analyze-text", "analyze-csv", "simulate-dlc1000-text",
        "simulate-dlc1000-csv", "simulate-sfn-text", "simulate-sfn-csv",
        "compare-text"])
def test_text_and_csv_layout_on_perfect_matrix(perfect2, capsys, monkeypatch,
                                               argv, expected):
    # every try succeeds on a perfect matrix, so the bytes do not depend
    # on the random streams; compare names the model by the path it gets
    monkeypatch.chdir(Path(perfect2).parent)
    code, text, err = run(capsys, *argv, Path(perfect2).name)
    assert (code, err) == (0, "")
    assert text == expected


def test_compare_prints_one_failed_row_per_failed_model(perfect2, capsys,
                                                       monkeypatch):
    monkeypatch.chdir(Path(perfect2).parent)
    code, text, _ = run(capsys, "compare", "--cycles", "5", "perfect2.per",
                        "missing.per")
    assert code == 1
    failed = [line for line in text.splitlines() if "failed" in line]
    assert len(failed) == 1
    assert failed[0].split()[:2] == ["missing.per", "failed"]
    assert failed[0].endswith("No such file or directory: 'missing.per'")


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE")
def test_closed_stdout_pipe_ends_process_by_sigpipe_silently():
    # the JSON document is far larger than a pipe buffer (64 KiB), so the
    # writer is still writing when the reader goes away after one byte (the
    # document is one line, so a readline would wait for all of it)
    src = str(Path(plcroute.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.Popen(
        [sys.executable, "-m", "plcroute.cli", "compare", "--defaults",
         "--cycles", "1", "--format", "json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.read(1) == b"{"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.wait(timeout=120)
    assert proc.returncode == -signal.SIGPIPE
    assert err == b""
