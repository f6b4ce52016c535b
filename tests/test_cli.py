"""Exit codes, table output, and stable JSON for the command-line front end."""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from loopspace.cli import build_parser, main
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


def test_ring_verify_nilpotency_one_passes_with_w_zero(capsys, tmp_path):
    path = tmp_path / "one.dga"
    path.write_text("model m { generator z:2; }\n")
    args = ("ring-verify", "--deg-w", "2", "--deg-z", "2", "--nilpotency", "1", "--max-degree", "10")
    code, out, err = run(capsys, *args, str(path))
    assert (code, err) == (0, "")
    assert out == ("pass  H* = Q[w,z]/(w^1), deg w = 2, deg z = 2, up to degree 10\n"
                   "w = 0\nz = z\n(truncated at degree 10)\n")
    code, out, _ = run(capsys, *args, "--json", str(path))
    result = json.loads(out)["result"]
    assert code == 0 and result["passed"] and result["messages"] == []
    assert (result["w"], result["z"]) == ("0", "z")
    assert result["actual_dims"] == result["expected_dims"] == [1, 0] * 5 + [1]


def test_ring_verify_with_deg_z_above_every_degree_it_reads(capsys):
    """A deg z above both --max-degree and a*deg w gives the verdict of a
    deg z the complex already reaches, not a truncation error."""
    for deg_z in ("1", "5"):
        code, out, err = run(capsys, "ring-verify", "--deg-z", deg_z, "--nilpotency", "1",
                             "--max-degree", "0", CP2)
        assert (code, err) == (1, "")
        assert out == (f"FAIL  H* = Q[w,z]/(w^1), deg w = 2, deg z = {deg_z}, up to degree 0\n"
                       f"w = 0\nno degree-{deg_z} class z with independent products w^i z^j was found\n"
                       "(truncated at degree 0)\n")


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


@pytest.mark.parametrize("degree", ["0", "1"])
def test_gysin_check_below_degree_two_is_a_usage_error(capsys, monkeypatch, degree):
    def forbidden(*args, **kwargs):
        raise AssertionError("a complex was built")

    monkeypatch.setattr("loopspace.cli.cochain_complex", forbidden)
    code, out, err = run(capsys, "gysin-check", "--max-degree", degree, "--json", CP2, CP2)
    assert code == 2 and out == ""
    assert "max_degree >= 2" in err


def test_gysin_check_below_degree_two_from_the_environment(capsys, monkeypatch):
    monkeypatch.setenv("LOOPSPACE_MAX_DEGREE", "1")
    code, out, err = run(capsys, "gysin-check", CP2, CP2)
    assert code == 2 and out == ""
    assert "got 1" in err


def test_gysin_check_at_degree_two_checks_degree_zero(capsys):
    code, out, _ = run(capsys, "gysin-check", "--max-degree", "2", "--json", CP2, CP2)
    result = json.loads(out)["result"]
    assert code == 0 and result["passed"] and result["checked_up_to"] == 0


def test_gysin_check_ranks_no_euler_matrix(capsys, monkeypatch):
    """gysin-check ranks each Euler map from class numerators: it forms,
    gates and ranks no matrix, and prints the bytes it printed before."""
    import loopspace.gca.linalg as linalg_module
    import loopspace.spaceforms as spaceforms_module

    six_gen = str(FIXTURES / "six_gen.dga")
    calls = [("9", CP2, SPHERE5), ("9", CP2, CP2), ("9", QUOTIENT, CP2), ("8", six_gen, CP2)]
    expected = [run(capsys, "gysin-check", "--max-degree", d, "--json", b, t) for d, b, t in calls]
    assert {code for code, _, _ in expected} == {0, 1}

    def forbidden(*args, **kwargs):
        raise AssertionError("an Euler matrix was formed, gated or ranked")

    for module, name in ((spaceforms_module, "euler_action_matrices"), (spaceforms_module, "_matrix"),
                         (linalg_module, "rank")):
        monkeypatch.setattr(module, name, forbidden)
    assert [run(capsys, "gysin-check", "--max-degree", d, "--json", b, t) for d, b, t in calls] == expected


def test_bott_index_command(capsys):
    code, out, _ = run(capsys, "bott", "index", "--iterate", "7", QUARTER)
    assert code == 0
    assert "ind gamma^7 = 4" in out
    code, out, _ = run(capsys, "bott", "index", "--iterate", "2", "--json", QUARTER)
    doc = json.loads(out)
    assert doc["result"] == {"index": 1, "iterate": 2, "nondegenerate": False, "parity": "odd"}


def test_bott_index_command_computes_the_index_once(capsys, monkeypatch):
    import loopspace.bott as bott_module
    import loopspace.cli as cli_module

    calls = []
    original = bott_module.bott_index

    def counted(f, m):
        calls.append(m)
        return original(f, m)

    # the cli binds the name at import; the bott module's own callers read it there
    monkeypatch.setattr(cli_module, "bott_index", counted)
    monkeypatch.setattr(bott_module, "bott_index", counted)
    for m, parity in (("7", "even"), ("2", "odd")):
        calls.clear()
        code, out, _ = run(capsys, "bott", "index", "--iterate", m, "--json", QUARTER)
        assert code == 0 and json.loads(out)["result"]["parity"] == parity
        assert calls == [int(m)]


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


def test_library_refusals_exit_2_and_faults_propagate(capsys, monkeypatch):
    """A GcaError, the library's one way to refuse an input, exits 2 with
    its text; any other ValueError is a fault of the program and leaves
    main as it was raised."""
    from loopspace import cli
    from loopspace.gca import GcaError

    code, out, err = run(capsys, "gysin-check", SPHERE5, SPHERE5)
    assert (code, out) == (2, "")
    assert err == "loopspace: error: model 'sphere5' has no closed degree-2 generator\n"

    def fault(*args):
        raise ValueError("a fault of the program")

    def refusal(*args):
        raise GcaError("an input refused")

    commands = {
        "certify_theorem4": ("certify", "rp2", "--grid", "8", "--values", "1", "--cutoff", "17"),
        "euler_class": ("gysin-check", "--max-degree", "9", CP2, SPHERE5),
    }
    for name, argv in commands.items():
        monkeypatch.setattr(cli, name, fault)
        with pytest.raises(ValueError, match="^a fault of the program$"):
            main(list(argv))
        monkeypatch.setattr(cli, name, refusal)
        assert run(capsys, *argv) == (2, "", "loopspace: error: an input refused\n"), name


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
    """A model whose d does not square to zero (d(dy) = a^4) is refused
    with exit 2 and the failed check named; one that is only not minimal
    (du2 = u3) is computed."""
    bad = tmp_path / "bad.dga"
    bad.write_text("model m { generator a:2; generator x:3; generator y:6; d x = a^2; d y = a^2*x; }")
    code, out, err = run(capsys, "cohomology", "--max-degree", "4", str(bad))
    assert (code, out) == (2, "")
    assert err == "loopspace: error: model fails validation: d-squared: d(dy) != 0\n"
    loose = tmp_path / "loose.dga"
    loose.write_text("model m { generator u2:2; generator u3:3; d u2 = u3; }")
    code, out, err = run(capsys, "cohomology", "--max-degree", "4", "--json", str(loose))
    assert (code, err) == (0, "")
    assert json.loads(out)["result"]["dims"] == [1, 0, 0, 0, 0]


def test_a_dga_that_is_not_minimal_is_computed(capsys):
    """fixtures/ls2.dga, the free loop space model of S^2, fails only
    minimality: cohomology exits 0 with one class in every degree to 30."""
    code, out, err = run(capsys, "cohomology", "--max-degree", "30", "--json", str(FIXTURES / "ls2.dga"))
    assert (code, err) == (0, "")
    assert json.loads(out)["result"]["dims"] == [1] * 31


def test_parse_diagnostics_go_to_stderr(capsys, tmp_path):
    bad = tmp_path / "broken.dga"
    bad.write_text("model m { d u3 = u2^2; }")
    code, out, err = run(capsys, "cohomology", str(bad))
    assert code == 2
    assert "undeclared generator" in err
    assert out == ""


@pytest.mark.parametrize("name, text, argv, diagnostic", [
    ("big_n.spaceform", "spaceform { n = " + "7" * 5000 + "; r = 8; ord = 2; }",
     ("homotopy", "--which", "lambda"), "1:17: error: value of 'n' has too many digits"),
    ("big_disc.bott", "bott { disc = 1/" + "7" * 5000 + "; arcs = 1; points = 0; }",
     ("bott", "index", "--iterate", "2"), "1:15: error: value in 'disc' has too many digits"),
    # each number is readable, but the term's degree has too many digits to print
    ("big_degree.dga", "model m {\n  generator x:" + "7" * 4000 + ";\n  generator y:3;\n"
     "  d y = x^" + "9" * 4000 + ";\n}", ("cohomology",),
     "4:9: error: term has degree <26576-bit integer>; d y requires degree 4"),
], ids=["spaceform-integer", "bott-denominator", "term-degree"])
def test_oversize_numbers_are_located_errors(capsys, tmp_path, name, text, argv, diagnostic):
    path = tmp_path / name
    path.write_text(text)
    code, out, err = run(capsys, *argv, str(path))
    assert code == 2 and out == ""
    assert err.splitlines()[0] == f"{path}:{diagnostic}"


def test_undecodable_input_is_a_read_error(tmp_path):
    # behind a byte order mark the offset still counts from the file's start
    for name, prefix, offset in [("latin1.dga", b"", 25), ("bom_latin1.dga", b"\xef\xbb\xbf", 28)]:
        path = tmp_path / name
        path.write_bytes(prefix + b"model m {\n generator x:2;\xff\n}\n")
        done = subprocess.run([sys.executable, "-m", "loopspace.cli", "cohomology", str(path)], capture_output=True,
                              env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), timeout=60)
        assert done.returncode == 2 and done.stdout == b""
        assert done.stderr.decode() == (
            f"loopspace: error: cannot read {path}: not UTF-8: invalid start byte at byte offset {offset}\n")


def test_a_leading_byte_order_mark_is_dropped(capsys, tmp_path):
    """A copy of each fixture behind a UTF-8 byte order mark prints the
    same bytes as the fixture; a second mark, or one anywhere else, is
    still a located error."""
    commands = {".dga": ("cohomology", "--max-degree", "8"), ".spaceform": ("homotopy", "--which", "lambda"),
                ".bott": ("bott", "index", "--iterate", "3")}
    for fixture in sorted(FIXTURES.iterdir()):
        copy = tmp_path / fixture.name
        copy.write_bytes(b"\xef\xbb\xbf" + fixture.read_bytes())
        argv = (*commands[fixture.suffix], "--json")
        want = run(capsys, *argv, str(fixture))
        assert want[0] == 0, fixture.name
        assert run(capsys, *argv, str(copy)) == want, fixture.name
    for name, text, location in [("twice.dga", "\ufeff\ufeffmodel m { generator x:2; }\n", "1:1"),
                                 ("inside.dga", "model m {\n  generator x:2;\ufeff\n}\n", "2:17")]:
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, "cohomology", str(path))
        assert (code, out) == (2, "")
        assert err.splitlines()[0] == f"{path}:{location}: error: unexpected character '\\ufeff'"


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


# sha256 of the exit code and the text (not --json) stdout of every command
# pinned by test_golden.py, recorded before the text tables were built only
# for text output (the six_gen one before kernel vectors were built at the
# representatives' columns only)
TEXT_EXPECTED = {
    "bott index m=1000003": "36a7c51c5db697697d323c21d4c1574c9f95ef4a04d3b1dae0c8c2cff2338e9b",
    "bott index m=7": "7b7eda82caa4dffcad124549a1e2e8439b3edb191a4329e94c97544789edc041",
    "certify rp2 N=4": "112892e2a9035bfbdf080d8b143993155a566989886322bf58dff05cee95f73c",
    "certify rp2 N=72": "99dc0f719237e8a13ed8d56b58ae029694efbe76689d211ef02fbd53467de34d",
    "certify theorem5 k=1": "b120aae23e087c853506b350757cfdc284444887e80881378141b5a181a22d38",
    "certify theorem5 k=1 L=200": "d2860fa7bad4bc629cb138bba521122cf0e89ef4c4f4c9e79cc6b01a5a2557a6",
    "cohomology cp2.dga": "17c7c9d35f5713c5378fa9474c30763e86172be6a39e7f5ee9d26a8c25554b2a",
    "cohomology quotient_s2.dga": "69f0e13c336b26f2c24712d531c75954eee445587d1c92eb661ef91a83e5f2b4",
    "cohomology rational_pencil.dga": "ce98c7bea61cc80c7c1563079627a5d481a1c0b24c7ab4d6c5059476c5e333c3",
    "cohomology six_gen.dga": "ca85489d16efde537257ba82a02d0eb9db20936dd23ba9ce07395ef5a8c8d833",
    "cohomology sphere5.dga": "f4510cd299acdcd2ccf68410c50a6b990dccc0ce473c6325c316837509f5a807",
    "gysin-check cp2.dga cp2.dga": "d08c394f8ca3ddfcf2e1d1bb2b7eb0fcd02d69cc8d902980bcb04851ba34382f",
    "gysin-check cp2.dga quotient_s2.dga": "aa3a406dca330e80c2ffe1443f90af36fb3d6dfbf0f2315c40c44f5dcd9a332a",
    "gysin-check cp2.dga sphere5.dga": "2b125022203331c68ed4cdce35466d07435dbb5a96769ac8fea1326d61a1629d",
    "gysin-check quotient_s2.dga cp2.dga": "2c9af7fe6b9272c8090409b71bf01ceb2fba00996447e7641f75111592fd882c",
    "gysin-check quotient_s2.dga quotient_s2.dga": "b6d098a9ed2efdf2d65bc6b9553ffaae6bebb41e834372ed3c3028092bb91a0e",
    "gysin-check quotient_s2.dga sphere5.dga": "0a451e616492f044a43a1c4e74cb14d32cb4a6e6a68af8130c5b4d2c42002548",
    "gysin-check rational_pencil.dga cp2.dga": "8ca3efec27b3dc72605e241a677c721e259a88b5856c86d461a80354fa80a99b",
    "homotopy lambda lens_s3_r8.spaceform": "da6343c0884f583304223253a4e72be92f67d8bbc557fa7f0ff1ab58a09f524c",
    "homotopy lambda rp2.spaceform": "ad970aebcd9624aced2d4ec4bb2b9fe84ccc8c66880e38783f3b4c31a19d4595",
    "homotopy quotient lens_s3_r8.spaceform": "a5bc94e7f2c08dfbd4b7a9daf933e8947418fb329069ff2afbc60bb70f2229b2",
    "homotopy quotient rp2.spaceform": "d041a85cb9cbd71de910d64fd6894dbbafa29365f3ec868a5d3b274834ac4f01",
    "ring-verify cp2": "eaf2d28efab81d7d88126c6ea64409c94b8b8f846ebf9f080cfc0f10303c9271",
    "ring-verify quotient_s2 a=2": "08522eb80c5c53ec78960058199b254e1f5a48adff6e3ecdd8fae69231989627",
    "ring-verify quotient_s2 a=3": "8ed06113ecf473ea5d9d2cfeda8310a85b140226c427ee1f09d62b3caea14ed8",
    "ring-verify rational_pencil": "95c41120c6913bc3d54e918d75216db7033a6c723a9873fbf2cb0e4615b65445",
    "spaceform-model lens_s3_r8.spaceform": "156b9634f7f4f602d34eeaed0c3a2a92923855d4a75165e38015f0120418716e",
    "spaceform-model rp2.spaceform": "fc703074970d3644410937b1ddae1397ab322a770fda251ebb46333fdc39dec7",
}


def test_text_output_is_byte_identical():
    from golden import COMMANDS, command_digest

    assert set(TEXT_EXPECTED) == set(COMMANDS)
    for label, argv in COMMANDS.items():
        text_argv = [a for a in argv if a != "--json"]
        assert len(text_argv) == len(argv) - 1
        assert command_digest(text_argv) == TEXT_EXPECTED[label], label


def test_text_output_builds_no_json(monkeypatch):
    """Without --json no command builds its input echo, its JSON result or
    the JSON document, and the text stays byte-identical.  The public
    builders are replaced; the private converters behind them are not,
    since a text table may use them without building a document."""
    from loopspace import cli, serialize
    from golden import COMMANDS, command_digest

    def forbidden(*args):
        raise AssertionError("JSON was built for text output")

    monkeypatch.setattr(cli, "document_text", forbidden)
    builders = [name for name in dir(serialize) if name.endswith("_json") and not name.startswith("_")]
    assert {"betti_json", "ring_report_json", "certificate_json"} <= set(builders)
    for name in builders + ["payload", "dumps"]:
        monkeypatch.setattr(serialize, name, forbidden)
    for label, argv in COMMANDS.items():
        text_argv = [a for a in argv if a != "--json"]
        assert command_digest(text_argv) == TEXT_EXPECTED[label], label


def test_json_output_builds_no_text_table(capsys, monkeypatch):
    from loopspace import cli
    from loopspace.gca import DgaModel

    calls = []
    original = DgaModel.format_element
    monkeypatch.setattr(DgaModel, "format_element", lambda self, x: calls.append(x) or original(self, x))
    code, out, _ = run(capsys, "cohomology", "--max-degree", "6", "--json", QUOTIENT)
    assert code == 0
    reps = json.loads(out)["result"]["representatives"]
    # each representative once, for the JSON, and du3 = u2^2 for the input echo
    assert len(calls) == sum(map(len, reps)) + 1

    def forbidden(*args):
        raise AssertionError("a text table was built for --json")

    monkeypatch.setattr(cli, "_certificate_table", forbidden)
    code, out, _ = run(capsys, "certify", "rp2", "--grid", "4", "--values", "1", "--cutoff", "9", "--json")
    assert code == 0 and json.loads(out)["kind"] == "certificate"


# Every leaf command, well formed; main parses each with the leaf's own parser.
LEAF_CALLS = [
    ("cohomology", "--max-degree", "6", QUOTIENT),
    ("ring-verify", "--deg-z", "2", "--nilpotency", "2", "--max-degree", "10", QUOTIENT),
    ("homotopy", "--which", "lambda", "--max-degree", "8", LENS),
    ("spaceform-model", "--json", LENS),
    ("gysin-check", "--max-degree", "9", CP2, SPHERE5),
    ("bott", "index", "--iterate", "7", QUARTER),
    ("certify", "rp2", "--grid", "8", "--values", "1", "--cutoff", "17"),
    ("certify", "theorem5", "--k", "1", "--iterates", "10", LENS, QUARTER),
]

ODD_CALLS = [
    ("ring-verify", "--deg-z", "2", QUOTIENT),  # a required option missing
    ("bott", "index", "--iterate", "0", QUARTER),
    ("cohomology", "--max-degree", "x", QUOTIENT),
    ("cohomology", "--max-deg", "3", QUOTIENT),
    ("cohomology", "--max-degree=3", "--json", QUOTIENT),
    ("certify", "rp2", "--grid=8", "--values", "1", "--cutoff=17"),
    ("cohomology", "--max-degree", "3", "--", QUOTIENT),
    ("bott", "index", "--iterate", "-2", QUARTER),
    ("cohomology", QUOTIENT, "extra"),
    ("bott", "index", "--iterate", "3", QUARTER, "--version"),
    ("certify", "rp2", "-h"),
    ("bott", "index"),
    ("bott", "-h"),
    ("certify", "nope"),
    # ambiguous to the top-level parser, wherever it stands
    ("cohomology", "--=3", QUOTIENT),
    ("bott", "index", "--iterate", "3", QUARTER, "--=x"),
    # left to the top-level parser
    (),
    ("bott",),
    ("certify",),
    ("--version",),
    ("-h",),
    ("cohomolgy", QUOTIENT),
    ("--json", "cohomology", QUOTIENT),
]


def _argv_id(argv) -> str:
    return " ".join(Path(a).name if os.sep in a else a for a in argv) or "()"


@pytest.mark.parametrize("argv", LEAF_CALLS + ODD_CALLS, ids=_argv_id)
def test_main_matches_the_nested_parse(capsys, monkeypatch, argv):
    """main's one parse per call against the nested subparser parse:
    the same exit code, stdout and stderr (help and usage included)."""
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.delenv("LOOPSPACE_MAX_DEGREE", raising=False)
    got = run(capsys, *argv)
    try:
        args = build_parser().parse_args(list(argv))
        code = args.run(args)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert got == (code, captured.out, captured.err)


@pytest.mark.parametrize("argv", LEAF_CALLS, ids=_argv_id)
def test_a_leaf_command_is_parsed_once(capsys, monkeypatch, argv):
    calls = []
    parse_known_args = argparse.ArgumentParser.parse_known_args

    def counted(self, *args, **kwargs):
        calls.append(self.prog)
        return parse_known_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
    assert run(capsys, *argv)[0] == 0
    assert calls == ["loopspace " + " ".join(argv[:2 if argv[0] in ("bott", "certify") else 1])]
