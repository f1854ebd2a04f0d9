import io
import json
import re
import subprocess
import sys
import time
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
        except SystemExit as exc:  # --help, which argparse ends itself
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def run_interpreter(argv, timeout=None):
    """The same triple from a fresh `python -m gca2.cli` process."""
    proc = subprocess.run([sys.executable, "-m", "gca2.cli", *argv],
                          capture_output=True, text=True, timeout=timeout)
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

    # a check that raises reports FAIL; the suite's other checks still run.
    # Each compat row reaches the library through `compat.`, so a crash planted
    # there fails exactly the rows that call it.
    rows = [
        "compat: fast enumeration equals brute force [a <= 3]",
        "compat: shadow sizes [a <= 4, values <= 2]",
        "compat: grading bound and support region [a <= 3]",
        "compat: local shadows nest or are disjoint [a <= 4, values <= 2]",
        "compat: remote-shadow blocks match the size formula [a <= 3, values <= 3]",
        "compat: phi* negates the f statistic [D(3,2), D(4,3), D(2,3), r = 3]",
        "compat: Omega is an order-preserving block bijection [a2 <= 2, r <= 3, values <= 3]",
    ]
    for name, failing in (("support_region", 2), ("rsh_block_size_v", 4), ("omega", 6)):
        with monkeypatch.context() as m:
            m.setattr(compat, name, crash)
            assert cli.main([*NUMERIC, "verify", "compat"]) == 1
        assert capsys.readouterr().out.splitlines() == [
            f"{'FAIL' if i == failing else 'PASS'} {row}" for i, row in enumerate(rows)], name


def test_bench_stdout_is_deterministic():
    code1, out1, err1 = run_cli([*NUMERIC, "bench", "--cells", "3x2,4x2"])
    code2, out2, _ = run_cli([*NUMERIC, "bench", "--cells", "3x2,4x2"])
    assert code1 == code2 == 0
    assert out1 == out2
    assert "match=yes" in out1
    assert "speedup" in err1  # timings go to stderr


def test_bench_refuses_a_cell_over_its_budget_before_any_work():
    # the smallest refused cell on (1,1): 2**21 grading pairs, where 10x10
    # (2**20) is the largest accepted; every cell of the line is checked
    # before the first one runs, so nothing is printed
    ones = ["--p1", "1,1", "--p2", "1,1"]
    t0 = time.perf_counter()
    code, out, err = run_cli([*ones, "bench", "--cells", "3x2,10x11"])
    assert time.perf_counter() - t0 < 0.1
    assert (code, out) == (2, "")
    pairs = f"has over {cli._BENCH_MAX_PAIRS} grading pairs"
    assert err == f"error: cell 10x11 {pairs}\n"
    assert cli._bench_refusal(10, 10, 1, 1) is None
    assert cli._bench_refusal(10, 11, 1, 1) == f"cell 10x11 {pairs}"
    # the default cells on (2,3): 8x3 has 3**8 * 4**3 = 419,904 pairs
    assert all(cli._bench_refusal(a1, a2, 2, 3) is None for a1, a2 in ((4, 2), (6, 3), (8, 3)))
    # the pairs budget is the exact count, huge cells included, and comes first
    for d1, d2 in ((0, 0), (0, 3), (1, 1), (2, 3), (5, 1)):
        for a1, a2 in product(range(0, 45, 3), range(0, 45, 4)):
            want = (d1 + 1) ** a1 * (d2 + 1) ** a2 <= cli._BENCH_MAX_PAIRS
            refusal = cli._bench_refusal(a1, a2, d1, d2)
            assert (refusal != f"cell {a1}x{a2} {pairs}") == want, (d1, d2, a1, a2)
    t0 = time.perf_counter()
    assert run_cli([*ones, "bench", "--cells", f"{10 ** 9}x1"])[0] == 2
    assert time.perf_counter() - t0 < 0.1


def test_bench_refuses_a_path_over_its_edge_budget_before_any_work():
    # with degree-0 exchange polynomials every cell has one grading pair, so
    # only the edge budget bounds the path: 129x128 is the smallest refused
    # cell and 128x128 the largest accepted one of its shape
    zeros = ["--p1", "1", "--p2", "1"]
    t0 = time.perf_counter()
    code, out, err = run_cli([*zeros, "bench", "--cells", "3x2,129x128"])
    assert time.perf_counter() - t0 < 0.1
    assert (code, out, err) == (2, "", "error: cell 129x128 has over 256 edges\n")
    assert run_cli([*zeros, "bench", "--cells", "128x128"])[:2] == \
        (0, "cell=128x128 pairs=1 match=yes\n")


def test_bench_refuses_a_cell_over_its_work_budget_before_any_work():
    # with P1 of degree 0 a path of 236 + a2 edges passes both budgets above
    # up to a2 = 20, but its brute force grows about x4.7 per two vertical
    # edges: 236x14 (about 4 s) is the largest accepted cell of its width.
    # The first run is a subprocess with a timeout, so that a cell which is
    # not refused fails the test instead of running for minutes.
    argv = ["--p1", "1", "--p2", "1,1", "bench", "--cells"]
    code, out, err = run_interpreter([*argv, "3x2,236x15"], timeout=10)
    assert (code, out) == (2, "")
    assert err == f"error: cell 236x15 has over {cli._BENCH_MAX_WORK} brute-force steps\n"
    for cell in ("236x15", "236x20"):
        t0 = time.perf_counter()
        code, out, err = run_cli([*argv, f"3x2,{cell}"])
        assert time.perf_counter() - t0 < 0.1
        assert (code, out) == (2, "") and err.startswith(f"error: cell {cell} ")
    # 236x20 passes the pairs and edge budgets, so the work budget refuses it
    work = f"has over {cli._BENCH_MAX_WORK} brute-force steps"
    assert 236 + 20 <= cli._BENCH_MAX_EDGES
    assert cli._bench_refusal(236, 20, 0, 1) == f"cell 236x20 {work}"
    assert cli._bench_refusal(236, 14, 0, 1) is None
    assert cli._bench_refusal(236, 15, 0, 1) == f"cell 236x15 {work}"
    # the largest cell of the pair budget and the default cells stay accepted
    assert cli._bench_refusal(10, 10, 1, 1) is None
    assert all(cli._bench_refusal(a1, a2, 2, 3) is None for a1, a2 in ((4, 2), (6, 3), (8, 3)))


def test_a_closed_stdout_exits_141_with_nothing_on_stderr():
    # pairs 6 4 on (2,3) prints 183,577 bytes, more than a pipe holds, so the
    # command is still writing when the reader closes it after one line
    proc = subprocess.Popen([sys.executable, "-m", "gca2.cli", *NUMERIC, "pairs", "6", "4"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline() == b"s1=0,0,0,0,0,0 s2=0,0,0,0 m1=0 m2=0\n"
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (141, b"")


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
    # argparse's errors: no command, an unknown one, a bad argument, no such flag
    for argv in ([*NUMERIC], [*NUMERIC, "frobnicate"], [*NUMERIC, "var", "x"],
                 [*NUMERIC, "--threads", "0", "var", "3"]):
        code, out, err = run_cli(argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: ") and err.count("\n") == 1, err
    # an unknown flag is named, before the command or after it
    for argv in ([*NUMERIC, "--threads", "0", "var", "3"],
                 [*NUMERIC, "var", "3", "--threads", "0"]):
        code, out, err = run_cli(argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: unrecognized arguments: --threads"), err
        assert err.count("\n") == 1, err
    code, out, err = run_cli(["--help"])  # help is no error
    assert (code, err) == (0, "") and out.startswith("usage: gca2")
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
    deep_json = tmp_path / "deep.json"  # nested beyond json's recursion limit
    deep_json.write_text("[" * 200000)
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
                 [*ones, "expand", str(deep_json)],
                 [*symbolic, "expand", str(long_rho)],
                 [*symbolic, "expand", str(zero_tail)]):
        code, out, err = run_cli(argv)
        assert code == 2, argv
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err


def test_var_prints_integers_beyond_the_digit_limit():
    # N = 10**1500 - 1: x_6 has integers of more than 4,300 digits, the
    # interpreter's default limit; the command lifts the limit, and gives the
    # caller's back
    n = str(10 ** 1500 - 1)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(5000)
    try:
        for fmt in ("text", "json"):
            code, out, err = run_cli(["--p1", f"1,{n},1", "--p2", f"1,{n},1",
                                      "--format", fmt, "var", "6"])
            assert (code, err) == (0, ""), fmt
            assert max(map(len, re.findall(r"[0-9]+", out))) > 5000, fmt
            assert sys.get_int_max_str_digits() == 5000
    finally:
        sys.set_int_max_str_digits(limit)


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


def test_greedy_refuses_an_empty_clusters_value():
    # an empty --clusters= is a malformed range, not an absent one; in
    # symbolic mode the numeric-mode refusal comes first
    for argv, msg in (([*NUMERIC, "greedy", "1", "1", "--clusters="],
                       "--clusters expects LO..HI"),
                      (["--d1", "2", "--d2", "3", "greedy", "1", "1", "--clusters="],
                       "--clusters positivity probe needs numeric mode")):
        assert run_cli(argv) == (2, "", f"error: {msg}\n"), argv


def test_byte_identical_across_runs():
    # separate interpreters, so each run has its own hash seed
    base = run_interpreter([*NUMERIC, "--format", "json", "var", "5"])
    again = run_interpreter([*NUMERIC, "--format", "json", "var", "5"])
    assert base[1] == again[1]
    v1 = run_interpreter([*NUMERIC, "verify", "dyckpath"])
    v2 = run_interpreter([*NUMERIC, "verify", "dyckpath"])
    assert v1[1] == v2[1]


def test_only_the_verify_command_imports_verify():
    # gca2.verify is the longest module that no other command needs
    code = "import sys, gca2.cli; print('gca2.verify' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.stdout == "False\n", proc.stderr


def test_main_callable_directly(capsys):
    # in-process entry point used by the console script
    code = cli.main([*NUMERIC, "var", "3"])
    assert code == 0
    assert "x1^-1" in capsys.readouterr().out
    # python -m gca2.cli exits with the status main returns
    code, out, err = run_interpreter([*NUMERIC, "verify", "nosuchsuite"])
    assert (code, out) == (2, "")
    assert err.startswith("error: unknown suite 'nosuchsuite'")
