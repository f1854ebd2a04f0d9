import json
import subprocess
import sys

import pytest

from conftest import expected_x5
from gca2 import cli
from gca2.coeffring import CoefficientMode
from gca2.laurent import from_json

NUMERIC = ["--p1", "1,1,1", "--p2", "1,1,1,1"]


def run_cli(argv):
    proc = subprocess.run([sys.executable, "-m", "gca2.cli", *argv],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def test_var_json_equals_golden_x5(mode23):
    code, out, _ = run_cli([*NUMERIC, "--format", "json", "var", "5"])
    assert code == 0
    got = from_json(json.loads(out), mode23)
    assert got.terms == expected_x5()


def test_var_text(mode23):
    code, out, _ = run_cli([*NUMERIC, "var", "3"])
    assert code == 0
    assert out.strip() == "x1^-1 + x1^-1*x2 + x1^-1*x2^2"


def test_greedy_symbolic():
    code, out, _ = run_cli(["--d1", "2", "--d2", "3", "--format", "json",
                            "greedy", "1", "1"])
    assert code == 0
    doc = json.loads(out)
    assert doc["point"] == [1, 1] and doc["method"] == "combinatorial"
    sym = CoefficientMode.symbolic(2, 3)
    got = from_json(doc, sym)
    assert len(got.terms) == 6


def test_greedy_methods_agree():
    code_c, out_c, _ = run_cli([*NUMERIC, "--format", "json", "greedy", "3", "1",
                                "--method", "combinatorial"])
    code_r, out_r, _ = run_cli([*NUMERIC, "--format", "json", "greedy", "3", "1",
                                "--method", "recursive"])
    assert code_c == code_r == 0
    assert json.loads(out_c)["terms"] == json.loads(out_r)["terms"]


def test_greedy_recursive_rejects_symbolic():
    code, _, err = run_cli(["--d1", "2", "--d2", "3", "greedy", "1", "1",
                            "--method", "recursive"])
    assert code == 2
    assert "numeric" in err


def test_pairs_count_and_schema():
    code, out, _ = run_cli([*NUMERIC, "--format", "json", "pairs", "5", "2"])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 547
    rec = json.loads(lines[0])
    assert set(rec) == {"s1", "s2", "m1", "m2"}
    assert rec["m1"] == sum(rec["s1"]) and rec["m2"] == sum(rec["s2"])


def test_positivity_probe():
    code, out, _ = run_cli([*NUMERIC, "--format", "json", "greedy", "1", "1",
                            "--clusters=-2..4"])
    assert code == 0
    doc = json.loads(out)
    assert doc["positive_in_clusters"] == {str(k): True for k in range(-2, 5)}


def test_expand_roundtrip(tmp_path, mode23):
    code, out, _ = run_cli([*NUMERIC, "--format", "json", "var", "4"])
    payload = tmp_path / "x4.json"
    payload.write_text(out)
    code, out, _ = run_cli([*NUMERIC, "--format", "json", "expand", str(payload)])
    assert code == 0
    doc = json.loads(out)
    assert doc["expansion"] == [{"point": [3, 1], "coeff": [{"n": "1"}]}]
    code, out, _ = run_cli([*NUMERIC, "expand", str(payload)])
    assert code == 0
    assert out.strip() == "x[3,1]: 1"


def test_verify_suites_pass_and_unknown_fails():
    code, out, _ = run_cli([*NUMERIC, "verify", "multinom"])
    assert code == 0
    assert all(line.startswith("PASS") for line in out.strip().splitlines())
    code, _, err = run_cli([*NUMERIC, "verify", "nosuchsuite"])
    assert code == 2


def test_bench_stdout_is_deterministic():
    code1, out1, err1 = run_cli([*NUMERIC, "bench", "--cells", "3x2,4x2"])
    code2, out2, _ = run_cli([*NUMERIC, "bench", "--cells", "3x2,4x2"])
    assert code1 == code2 == 0
    assert out1 == out2
    assert "match=yes" in out1
    assert "speedup" in err1  # timings go to stderr


def test_usage_errors_exit_2():
    assert run_cli(["var", "3"])[0] == 2                      # no mode
    assert run_cli(["--p1", "1,1", "var", "3"])[0] == 2       # missing p2
    assert run_cli(["--p1", "1,2", "--p2", "1,1", "var", "3"])[0] == 2  # not monic
    assert run_cli([*NUMERIC, "--d1", "2", "--d2", "3", "var", "3"])[0] == 2
    assert run_cli([*NUMERIC])[0] == 2                        # no command


def test_input_errors_exit_2_with_one_line(tmp_path):
    one_elem = tmp_path / "one_elem.json"
    one_elem.write_text('{"terms": [{"e": [1], "c": [{"n": "1"}]}]}')
    bad_json = tmp_path / "bad.json"
    bad_json.write_text('{"terms": [')
    for argv in ([*NUMERIC, "greedy", "2", "2", "--clusters=5..2"],
                 [*NUMERIC, "expand", str(tmp_path / "missing.json")],
                 [*NUMERIC, "expand", str(one_elem)],
                 [*NUMERIC, "expand", str(bad_json)]):
        code, out, err = run_cli(argv)
        assert code == 2, argv
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err


def test_byte_identical_across_runs_and_threads():
    base = run_cli([*NUMERIC, "--format", "json", "var", "5"])
    again = run_cli([*NUMERIC, "--threads", "4", "--format", "json", "var", "5"])
    assert base[1] == again[1]
    v1 = run_cli([*NUMERIC, "verify", "dyckpath"])
    v4 = run_cli([*NUMERIC, "--threads", "4", "verify", "dyckpath"])
    assert v1[1] == v4[1]


def test_main_callable_directly(capsys):
    # in-process entry point used by the console script
    code = cli.main([*NUMERIC, "var", "3"])
    assert code == 0
    assert "x1^-1" in capsys.readouterr().out
