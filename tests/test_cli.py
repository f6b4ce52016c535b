"""Exit codes, table output, and stable JSON for the command-line front end."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from loopspace.cli import main
from loopspace.dsl import parse
from loopspace.spaceforms import SpaceFormSpec, theorem3_model

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
QUOTIENT = str(FIXTURES / "quotient_s2.dga")
CP2 = str(FIXTURES / "cp2.dga")
SPHERE5 = str(FIXTURES / "sphere5.dga")
LENS = str(FIXTURES / "lens_s3_r8.spaceform")
RP2 = str(FIXTURES / "rp2.spaceform")
QUARTER = str(FIXTURES / "quarter_turn.bott")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_homotopy_lambda_table(capsys):
    code, out, _ = run(capsys, "homotopy", "--which", "lambda", LENS)
    assert code == 0
    assert "pi_2  Q" in out and "pi_3  Q" in out and "pi_1  Z_8" in out
    assert "(truncated at degree 24)" in out


def test_homotopy_quotient_table(capsys):
    code, out, _ = run(capsys, "homotopy", "--which", "quotient", LENS)
    assert code == 0
    assert "pi_2  Q^2" in out and "pi_1  Z_4" in out


def test_homotopy_json_schema_and_determinism(capsys):
    code, out1, _ = run(capsys, "homotopy", "--which", "lambda", "--json", LENS)
    assert code == 0
    code, out2, _ = run(capsys, "homotopy", "--which", "lambda", "--json", LENS)
    assert out1 == out2
    doc = json.loads(out1)
    assert set(doc) == {"kind", "input", "result", "version"}
    assert doc["kind"] == "homotopy"
    assert doc["result"] == {"dims": [[2, 1], [3, 1]], "pi1": 8}
    assert "spaceform" in doc["input"]


def test_cohomology_table_and_json(capsys):
    code, out, _ = run(capsys, "cohomology", "--max-degree", "6", QUOTIENT)
    assert code == 0
    assert "(truncated at degree 6)" in out
    code, out, _ = run(capsys, "cohomology", "--max-degree", "6", "--json", QUOTIENT)
    doc = json.loads(out)
    assert doc["result"]["dims"] == [1, 0, 2, 0, 2, 0, 2]
    assert doc["result"]["representatives"][2] == ["u2", "v2"]


def test_ring_verify_pass_and_fail(capsys):
    code, out, _ = run(capsys, "ring-verify", "--deg-z", "2", "--nilpotency", "2",
                       "--max-degree", "10", QUOTIENT)
    assert code == 0 and out.startswith("pass")
    code, out, _ = run(capsys, "ring-verify", "--deg-z", "2", "--nilpotency", "3",
                       "--max-degree", "10", QUOTIENT)
    assert code == 1 and out.startswith("FAIL")


def test_spaceform_model_emits_parseable_dsl(capsys):
    code, out, _ = run(capsys, "spaceform-model", RP2)
    assert code == 0
    reparsed = parse(out)
    assert reparsed.ok
    assert reparsed.value == theorem3_model(SpaceFormSpec(2, 2, 2))


def test_gysin_check_pass_and_fail(capsys):
    code, out, _ = run(capsys, "gysin-check", "--max-degree", "9", CP2, SPHERE5)
    assert code == 0 and out.startswith("pass")
    # a circle bundle over CP^2 cannot have the cohomology of the base itself
    code, out, _ = run(capsys, "gysin-check", "--max-degree", "9", CP2, CP2)
    assert code == 1 and out.startswith("FAIL")


def test_bott_index_command(capsys):
    code, out, _ = run(capsys, "bott", "index", "--iterate", "7", QUARTER)
    assert code == 0
    assert "ind gamma^7 = 4" in out
    code, out, _ = run(capsys, "bott", "index", "--iterate", "2", "--json", QUARTER)
    doc = json.loads(out)
    assert doc["result"] == {"index": 1, "iterate": 2, "nondegenerate": False, "parity": "odd"}


def test_certify_rp2_small(capsys):
    code, out, _ = run(capsys, "certify", "rp2", "--grid", "4", "--values", "1", "--cutoff", "9")
    assert code == 0
    assert "contradiction-established" in out
    code, out, _ = run(capsys, "certify", "rp2", "--grid", "4", "--values", "0", "--cutoff", "9")
    assert code == 1
    assert "inconclusive" in out


def test_certify_rp2_full_grid_json(capsys):
    code, out, _ = run(capsys, "certify", "rp2", "--grid", "360", "--values", "2",
                       "--cutoff", "721", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["verdict"] == "contradiction-established"
    assert doc["result"]["survivors"] == [{"arcs": [1, 0], "disc": ["1/4", "3/4"], "points": [0, 0]}]


def test_certify_theorem5_command(capsys):
    code, out, _ = run(capsys, "certify", "theorem5", "--k", "1", "--iterates", "10",
                       LENS, QUARTER)
    assert code == 0
    assert "contradiction-established" in out


def test_usage_errors_exit_2(capsys):
    for argv in [(), ("bott",), ("certify",)]:
        code, _, err = run(capsys, *argv)
        assert code == 2 and "the following arguments are required" in err
    assert run(capsys, "cohomology", "--max-degree", "-1", QUOTIENT)[0] == 2
    assert run(capsys, "cohomology", "/no/such/file.dga")[0] == 2
    assert run(capsys, "cohomology", RP2)[0] == 2  # wrong document kind
    assert run(capsys, "certify", "rp2", "--grid", "5", "--values", "1", "--cutoff", "11")[0] == 2
    code, _, err = run(capsys, "certify", "theorem5", "--k", "2", "--iterates", "3", LENS, QUARTER)
    assert code == 2 and "index 0" in err  # ind(c) = bott_index(f, 2) = 1 != 0


def test_calls_in_one_process_do_not_depend_on_each_other(capsys, monkeypatch):
    monkeypatch.delenv("LOOPSPACE_MAX_DEGREE", raising=False)
    calls = [
        ("cohomology", "--max-degree", "6", QUOTIENT),
        ("cohomology", QUOTIENT),
        ("certify", "rp2", "--grid", "4", "--values", "1", "--cutoff", "9"),
        ("cohomology", "--max-degree", "-1", QUOTIENT),
        ("--version",),
        ("bott", "index", "--iterate", "7", QUARTER),
        ("certify",),
        ("homotopy", "--which", "lambda", "--json", LENS),
    ]
    forward = [run(capsys, *argv) for argv in calls]
    backward = [run(capsys, *argv) for argv in reversed(calls)][::-1]
    assert forward == backward
    assert [code for code, _, _ in forward] == [0, 0, 0, 2, 0, 0, 2, 0]
    assert "(truncated at degree 24)" in forward[1][1]


def test_closed_stdout_exits_141_without_traceback():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cli = [sys.executable, "-m", "loopspace.cli"]
    # about 84 kB of JSON, more than a pipe holds: the reader takes the
    # first 100 bytes and closes while the rest is still being written
    big = subprocess.Popen(cli + ["certify", "rp2", "--grid", "360", "--values", "2",
                                  "--cutoff", "721", "--json"],
                           stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    head = big.stdout.read(100)
    big.stdout.close()
    err = big.stderr.read()
    big.stderr.close()
    assert big.wait(timeout=60) == 141
    assert head.startswith(b'{"input": null, "kind": "certificate"')
    assert b"Traceback" not in err and err == b""
    # a short output is written at the final flush; here nothing ever reads
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        small = subprocess.run(cli + ["bott", "index", "--iterate", "7", QUARTER],
                               stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert small.returncode == 141
    assert small.stderr == b""


def test_invalid_model_reported_not_raised(capsys, tmp_path):
    bad = tmp_path / "bad.dga"
    bad.write_text("model m { generator u2:2; generator u3:3; d u2 = u3; }")
    code, _, err = run(capsys, "cohomology", "--max-degree", "4", str(bad))
    assert code == 2
    assert "minimality" in err


def test_parse_diagnostics_go_to_stderr(capsys, tmp_path):
    bad = tmp_path / "broken.dga"
    bad.write_text("model m { d u3 = u2^2; }")
    code, out, err = run(capsys, "cohomology", str(bad))
    assert code == 2
    assert "undeclared generator" in err
    assert out == ""


def test_env_max_degree_override(capsys, monkeypatch):
    monkeypatch.setenv("LOOPSPACE_MAX_DEGREE", "4")
    code, out, _ = run(capsys, "cohomology", QUOTIENT)
    assert code == 0
    assert "(truncated at degree 4)" in out
    monkeypatch.setenv("LOOPSPACE_MAX_DEGREE", "not-a-number")
    assert run(capsys, "cohomology", QUOTIENT)[0] == 2
    # an explicit flag wins over the environment
    monkeypatch.setenv("LOOPSPACE_MAX_DEGREE", "4")
    code, out, _ = run(capsys, "cohomology", "--max-degree", "6", QUOTIENT)
    assert "(truncated at degree 6)" in out
