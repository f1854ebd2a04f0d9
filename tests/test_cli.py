import io
import json
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from itertools import product

from conftest import expected_x5
from gca2 import cli, compat, greedy, multinom
from gca2.coeffring import CoefficientMode
from gca2.laurent import from_json

NUMERIC = ["--p1", "1,1,1", "--p2", "1,1,1,1"]


def run_cli(argv):
    """(exit status, stdout, stderr) of cli.main(argv), run in this process."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def run_interpreter(argv):
    """The same triple from a fresh `python -m gca2.cli` process."""
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


def test_verify_failures_exit_1_with_fail_lines(monkeypatch, capsys):
    real = multinom.multinomial
    monkeypatch.setattr(multinom, "multinomial", lambda n, k0, parts: real(n, k0, parts) + 1)
    assert cli.main([*NUMERIC, "verify", "multinom"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "FAIL multinom: Pascal identity [n <= 6, r <= 4]",
        "FAIL multinom: row sums are powers [n <= 6, r <= 4]",
        "FAIL multinom: truncated inverse convolves to 1 [n <= 3, d <= 3]",
    ]

    def crash(*args):
        raise RuntimeError("planted")

    # a check that raises reports FAIL; the suite's other checks still run
    monkeypatch.setattr(compat, "support_region", crash)
    assert cli.main([*NUMERIC, "verify", "compat"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "PASS compat: fast enumeration equals brute force [a <= 3]",
        "PASS compat: shadow sizes [a <= 4, values <= 2]",
        "FAIL compat: grading bound and support region [a <= 3]",
    ]


def test_bench_stdout_is_deterministic():
    code1, out1, err1 = run_cli([*NUMERIC, "bench", "--cells", "3x2,4x2"])
    code2, out2, _ = run_cli([*NUMERIC, "bench", "--cells", "3x2,4x2"])
    assert code1 == code2 == 0
    assert out1 == out2
    assert "match=yes" in out1
    assert "speedup" in err1  # timings go to stderr


def _record_line(s1, s2, fmt):
    """One pair rendered on its own, as the CLI printed it one record at a time."""
    if fmt == "json":
        record = {"s1": list(s1), "s2": list(s2), "m1": sum(s1), "m2": sum(s2)}
        return json.dumps(record, separators=(",", ":")) + "\n"
    return (f"s1={','.join(map(str, s1)) or '-'} "
            f"s2={','.join(map(str, s2)) or '-'} m1={sum(s1)} m2={sum(s2)}\n")


def test_pairs_block_templates_match_record_oracle(capsys):
    # empty gradings (a1 = 0 or a2 = 0) render as "-" in text and [] in JSON
    for a1, a2, d1, d2 in product(range(5), range(5), range(4), range(4)):
        brute = compat.enumerate_bruteforce(a1, a2, d1, d2)
        for fmt in ("json", "text"):
            argv = ["--d1", str(d1), "--d2", str(d2), "--format", fmt,
                    "pairs", str(a1), str(a2)]
            assert cli.main(argv) == 0
            out = capsys.readouterr().out
            assert out == "".join(_record_line(s1, s2, fmt) for s1, s2 in brute), argv


def test_pairs_two_digit_values_match_record_oracle(capsys):
    # with d1 >= 10 numeric order differs from text order ("10" < "2"), so a
    # renderer that orders records by their text fails here
    for a1, a2, d1, d2 in product(range(4), range(3), (10, 11), (1, 2)):
        brute = compat.enumerate_bruteforce(a1, a2, d1, d2)
        for fmt in ("json", "text"):
            argv = ["--d1", str(d1), "--d2", str(d2), "--format", fmt,
                    "pairs", str(a1), str(a2)]
            assert cli.main(argv) == 0
            out = capsys.readouterr().out
            assert out == "".join(_record_line(s1, s2, fmt) for s1, s2 in brute), argv


class _Writes:
    def __init__(self):
        self.chunks = []

    def write(self, text):
        self.chunks.append(text)
        return len(text)

    def flush(self):
        pass


def test_pairs_streams_one_write_per_s2_block(monkeypatch):
    def refuse(*args):
        raise AssertionError("pairs built the whole pair list")

    monkeypatch.setattr(compat, "enumerate_fast", refuse)
    sink = _Writes()
    with redirect_stdout(sink):
        assert cli.main(["--d1", "2", "--d2", "3", "pairs", "6", "3"]) == 0
    assert len(sink.chunks) == 4 ** 3  # (d2 + 1) ** a2 blocks
    blocks = list(compat.s2_structures(6, 3, 2, 3))
    assert [s2 for s2, *_ in blocks] == list(product(range(4), repeat=3))
    # each valid remote assignment completes to (d1 + 1) ** |free| records
    assert [chunk.count("\n") for chunk in sink.chunks] == \
        [len(valid) * (2 + 1) ** len(free) for _, free, _, valid in blocks]


def test_usage_errors_exit_2():
    assert run_cli(["var", "3"])[0] == 2                      # no mode
    assert run_cli(["--p1", "1,1", "var", "3"])[0] == 2       # missing p2
    assert run_cli(["--p1", "1,2", "--p2", "1,1", "var", "3"])[0] == 2  # not monic
    assert run_cli([*NUMERIC, "--d1", "2", "--d2", "3", "var", "3"])[0] == 2
    assert run_cli([*NUMERIC])[0] == 2                        # no command
    assert run_cli([*NUMERIC, "--threads", "0", "var", "3"])[0] == 2  # no such flag
    code, out, err = run_cli([*NUMERIC, "bench", "--cells", "3x-1"])  # negative cell
    assert (code, out) == (2, "")
    assert err == "error: --cells expects entries like 8x3\n"
    for sizes in (["-3", "2"], ["2", "-1"]):  # negative path sizes
        code, out, err = run_cli(["--d1", "2", "--d2", "3", "pairs", *sizes])
        assert (code, out) == (2, "")
        assert err == "error: pairs expects nonnegative sizes A1 A2\n"


def test_input_errors_exit_2_with_one_line(tmp_path):
    one_elem = tmp_path / "one_elem.json"
    one_elem.write_text('{"terms": [{"e": [1], "c": [{"n": "1"}]}]}')
    bad_json = tmp_path / "bad.json"
    bad_json.write_text('{"terms": [')
    # d1 = 2 has one rho generator, so a two-entry exponent array is bad input
    long_rho = tmp_path / "long_rho.json"
    long_rho.write_text('{"terms": [{"e": [0, 0], "c": [{"rho": [1, 5], "n": "1"}]}]}')
    zero_tail = tmp_path / "zero_tail.json"
    zero_tail.write_text('{"terms": [{"e": [0, 0], "c": [{"rho": [0, 1], "n": "1"}]}]}')
    # JSON that int() would read as a different integer, and a repeated exponent
    misread = {}
    for name, text in (
            ("float_n", '{"terms":[{"e":[1,0],"c":[{"n":2.7}]}]}'),
            ("bool_n", '{"terms":[{"e":[1,0],"c":[{"n":true}]}]}'),
            ("float_e", '{"terms":[{"e":[1.5,0],"c":[{"n":"1"}]}]}'),
            ("bool_e", '{"terms":[{"e":[true,0],"c":[{"n":"1"}]}]}'),
            ("repeated_e", '{"terms":[{"e":[1,0],"c":[{"n":"1"}]},'
                           '{"e":[1,0],"c":[{"n":"2"}]}]}'),
            ("bool_rho", '{"terms":[{"e":[0,0],"c":[{"rho":[true],"n":"1"}]}]}'),
            # two records of one coefficient with the same monomial; vrho1 and
            # vrho2 are one generator when d2 = 3
            ("repeated_n", '{"terms":[{"e":[1,0],"c":[{"n":"1"},{"n":"2"}]}]}'),
            ("repeated_rho", '{"terms":[{"e":[1,0],"c":[{"rho":[1],"n":"1"},'
                             '{"rho":[1],"n":"2"}]}]}'),
            ("mirrored_vrho", '{"terms":[{"e":[1,0],"c":[{"vrho":[1,0],"n":"1"},'
                              '{"vrho":[0,1],"n":"2"}]}]}'),
            # a JSON object or string where the format says list
            ("terms_object", '{"terms":{}}'),
            ("terms_string", '{"terms":""}'),
            ("c_object", '{"terms":[{"e":[1,0],"c":{}}]}'),
            ("c_string", '{"terms":[{"e":[1,0],"c":""}]}'),
            ("rho_object", '{"terms":[{"e":[1,0],"c":[{"rho":{},"n":"1"}]}]}'),
            ("vrho_string", '{"terms":[{"e":[1,0],"c":[{"vrho":"","n":"1"}]}]}')):
        misread[name] = tmp_path / f"{name}.json"
        misread[name].write_text(text)
    ones = ["--p1", "1,1", "--p2", "1,1"]
    symbolic = ["--d1", "2", "--d2", "3"]
    for argv in ([*NUMERIC, "greedy", "2", "2", "--clusters=5..2"],
                 *([*ones, "expand", str(misread[name])]
                   for name in ("float_n", "bool_n", "float_e", "bool_e", "repeated_e",
                                "repeated_n", "terms_object", "terms_string", "c_object",
                                "c_string")),
                 *([*symbolic, "expand", str(misread[name])]
                   for name in ("bool_rho", "repeated_rho", "mirrored_vrho", "rho_object",
                                "vrho_string")),
                 [*NUMERIC, "expand", str(tmp_path / "missing.json")],
                 [*NUMERIC, "expand", str(one_elem)],
                 [*NUMERIC, "expand", str(bad_json)],
                 [*symbolic, "expand", str(long_rho)],
                 [*symbolic, "expand", str(zero_tail)]):
        code, out, err = run_cli(argv)
        assert code == 2, argv
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err


def test_greedy_checks_clusters_before_building(monkeypatch):
    def refuse(*args):
        raise AssertionError("greedy element built before --clusters was checked")

    monkeypatch.setattr(greedy, "greedy_combinatorial", refuse)
    monkeypatch.setattr(greedy, "greedy_recursive", refuse)
    for argv in ([*NUMERIC, "greedy", "12", "8", "--clusters=4..-2"],
                 [*NUMERIC, "greedy", "12", "8", "--method", "recursive",
                  "--clusters=4..-2"],
                 [*NUMERIC, "greedy", "3", "1", "--clusters=1-2"],
                 ["--d1", "2", "--d2", "3", "greedy", "9", "6", "--clusters=-2..4"]):
        code, out, err = run_cli(argv)
        assert code == 2, argv
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err


def test_byte_identical_across_runs():
    # separate interpreters, so each run has its own hash seed
    base = run_interpreter([*NUMERIC, "--format", "json", "var", "5"])
    again = run_interpreter([*NUMERIC, "--format", "json", "var", "5"])
    assert base[1] == again[1]
    v1 = run_interpreter([*NUMERIC, "verify", "dyckpath"])
    v2 = run_interpreter([*NUMERIC, "verify", "dyckpath"])
    assert v1[1] == v2[1]


def test_main_callable_directly(capsys):
    # in-process entry point used by the console script
    code = cli.main([*NUMERIC, "var", "3"])
    assert code == 0
    assert "x1^-1" in capsys.readouterr().out
    # python -m gca2.cli exits with the status main returns
    code, out, err = run_interpreter([*NUMERIC, "verify", "nosuchsuite"])
    assert (code, out) == (2, "")
    assert err.startswith("error: unknown suite 'nosuchsuite'")
