import argparse
import ast
import csv
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import tauforms
from tauforms import (
    TAU_STRATEGIES,
    NotInGradedSpace,
    decompose,
    eval_expr,
    parse,
    sigma_table,
    tau_range,
)
from tauforms.cli import MAX_SIZE, build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_tau_command(capsys):
    code, out, _ = run(capsys, "tau", "--n", "2")
    assert code == 0 and out.strip() == "-24"
    code, out, _ = run(capsys, "tau", "--n", "3", "--strategy", "niebur")
    assert code == 0 and out.strip() == "252"


def test_usage_errors(capsys):
    code, _, _ = run(capsys, "tau", "--n", "2", "--strategy", "nope")
    assert code == 2
    code, _, _ = run(capsys, "no-such-command")
    assert code == 2


def test_readme_lists_every_subcommand():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```")[1]
    documented = {line.split()[1] for line in block.splitlines() if line.startswith("tauforms ")}
    (subparsers,) = [
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    assert documented == set(subparsers.choices)


def test_tau_table_csv(tmp_path, capsys):
    out_path = tmp_path / "tau.csv"
    code, _, _ = run(capsys, "tau-table", "--max-n", "12", "--out", str(out_path))
    assert code == 0
    with open(out_path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["n", "value"]
    assert rows[1] == ["1", "1"]
    assert rows[2] == ["2", "-24"]
    assert len(rows) == 13
    expected = tau_range(12)
    assert [int(r[1]) for r in rows[1:]] == expected[1:]


def test_tau_table_strategies_write_identical_csv(tmp_path, capsys):
    files = {}
    for strategy in TAU_STRATEGIES:
        out_path = tmp_path / f"{strategy}.csv"
        argv = ["tau-table", "--max-n", "300", "--strategy", strategy, "--format", "csv"]
        code, _, _ = run(capsys, *argv, "--out", str(out_path))
        assert code == 0
        files[strategy] = out_path.read_bytes()
    assert len(files["product"].splitlines()) == 301
    for strategy in TAU_STRATEGIES:
        assert files[strategy] == files["product"], strategy


def test_output_does_not_depend_on_libgmp(tmp_path, capsys, monkeypatch, request, with_gmp):
    # every product is exact, so tau-table (which at 2048 takes the decimal
    # route without libgmp) and verify print and write the same bytes
    # whether libgmp multiplies or not
    def outputs():
        monkeypatch.setattr(tauforms.forms, "_STORE", {})  # multiply afresh
        files = []
        for strategy in TAU_STRATEGIES:
            out_path = tmp_path / f"{strategy}.csv"
            argv = ["tau-table", "--max-n", "2048", "--strategy", strategy, "--out", str(out_path)]
            files.append((run(capsys, *argv), out_path.read_bytes()))
        argv = ["verify", "--identity", "all", "--max-n", "300", "--format", "json"]
        return files, run(capsys, *argv)

    loaded = outputs()
    request.getfixturevalue("without_gmp")
    assert outputs() == loaded


def test_start_does_not_import_ctypes():
    # libgmp and ctypes load at the first large product, never at start-up
    src = str(Path(tauforms.__file__).resolve().parents[1])
    path = [src, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    script = (
        "import sys\n"
        "import tauforms, tauforms.cli\n"
        "tauforms.builtin_registry()\n"
        "print('ctypes' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_a_derivation_past_the_bit_bound_exits_at_once():
    # D^k multiplies the q^m coefficient by m^k; without the bound this ran
    # past 10 s raising every index to the 3*10^8-th power
    proc = _cli("eval", "--expr", "D^300000000(E4)", "--trunc", "64", "--coeff", "1")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == (
        f"error: D^300000000 at truncation 64 would take about {300000000 * 65 * 7} bits, "
        "above the maximum 33554432\n"
    )


def test_nested_derivations_are_bounded_as_one():
    # each D^4000000 alone is admitted at truncation 3; nested 8 deep they
    # ran until a timeout stopped them, one derivation at a time
    expr = "D^4000000(" * 8 + "E4" + ")" * 8
    proc = _cli("eval", "--expr", expr, "--trunc", "3", "--coeff", "1")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == (
        "error: D^32000000 at truncation 3 would take about 256000000 bits, "
        "above the maximum 33554432\n"
    )


def _cli(*argv):
    """Run the CLI in a fresh interpreter, at Python's default recursion limit."""
    src = str(Path(tauforms.__file__).resolve().parents[1])
    path = [src, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    return subprocess.run(
        [sys.executable, "-m", "tauforms.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=30,
    )


# (too deep, as deep as admitted, q^1 coefficient of the admitted one)
_DEEP = {
    "parentheses": ("(" * 5000 + "E4" + ")" * 5000, "(" * 100 + "E4" + ")" * 100, "240"),
    "D": ("D(" * 3000 + "E4" + ")" * 3000, "D(" * 100 + "E4" + ")" * 100, "240"),
    "chain": ("E4" + "-E4" * 2999, "E4" + "-E4" * 100, str(240 * -99)),
}


@pytest.mark.parametrize("shape", _DEEP)
def test_a_deep_expression_is_a_usage_error_not_a_traceback(shape):
    # these raised RecursionError in the parser or in eval_expr, exit 1
    refused, admitted, coefficient = _DEEP[shape]
    for command in (["eval"], ["decompose", "--weight", "4"]):
        proc = _cli(*command, "--expr", refused, "--trunc", "3")
        assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr[-300:]
        assert "Traceback" not in proc.stderr
        assert "expected at most 100 levels, found 'level 101'" in proc.stderr
    proc = _cli("eval", "--expr", admitted, "--trunc", "3", "--coeff", "1")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, coefficient + "\n", "")


def test_tau_table_json(tmp_path, capsys):
    out_path = tmp_path / "tau.json"
    code, _, _ = run(
        capsys, "tau-table", "--max-n", "6", "--out", str(out_path), "--format", "json"
    )
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["values"][0] == [1, 1]
    assert payload["values"][5] == [6, -6048]


def test_sigma_table(tmp_path, capsys):
    out_path = tmp_path / "sigma.csv"
    code, _, _ = run(capsys, "sigma", "--k", "3", "--max-n", "4", "--out", str(out_path))
    assert code == 0
    rows = list(csv.reader(open(out_path)))
    assert rows == [["n", "value"], ["1", "1"], ["2", "9"], ["3", "28"], ["4", "73"]]


@pytest.mark.parametrize(
    "argv, values",
    [
        (("tau-table", "--max-n", "300"), lambda: tau_range(300)[1:]),
        (("sigma", "--k", "11", "--max-n", "300"), lambda: sigma_table(11, 300).values[1:]),
    ],
    ids=["tau-table", "sigma"],
)
def test_csv_tables_are_the_bytes_csv_writer_writes(tmp_path, capsys, argv, values):
    out_path = tmp_path / "table.csv"
    code, _, _ = run(capsys, *argv, "--out", str(out_path))
    assert code == 0
    expected_path = tmp_path / "expected.csv"
    with open(expected_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "value"])
        writer.writerows(enumerate(values(), start=1))
    data = out_path.read_bytes()
    assert data == expected_path.read_bytes()
    assert data.startswith(b"n,value\r\n1,1\r\n")
    assert data.count(b"\r\n") == data.count(b"\n") == 301
    if argv[0] == "tau-table":
        assert b"\r\n2,-24\r\n" in data  # negative values are written bare


def test_verify_single_identity_json(capsys):
    code, out, _ = run(
        capsys, "verify", "--identity", "thm2.3", "--max-n", "100", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["tool-version"]
    assert payload["truncation"] == 100
    (result,) = payload["results"]
    assert result["id"] == "thm2.3"
    assert result["status"] == "verified"
    assert result["failures"] == []
    assert result["first_failure"] is None


def test_verify_unknown_identity(capsys):
    code, _, err = run(capsys, "verify", "--identity", "thm9.9", "--max-n", "10")
    assert code == 2


def test_verify_all_text(capsys):
    code, out, _ = run(capsys, "verify", "--max-n", "60")
    assert code == 0
    lines = [l for l in out.splitlines() if l]
    assert len(lines) == 45
    assert sum(1 for l in lines if "audit-flagged" in l) == 2


def test_verify_json_deterministic(capsys):
    args = ("verify", "--identity", "all", "--max-n", "40", "--format", "json")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_certify_command(capsys):
    code, out, _ = run(capsys, "certify", "--identity", "thm2.1.i")
    assert code == 0
    assert "thm2.1.i: certified" in out


def test_certify_all(capsys):
    code, out, _ = run(capsys, "certify")
    assert code == 0
    assert out.count("certified") == 43
    assert out.count("audit-flagged") == 2


def test_congruences_command(capsys):
    code, out, _ = run(capsys, "congruences", "--max-n", "200")
    assert code == 0
    assert out.count("verified") == 15


# SHA-256 of the whole stdout of each catalogue command, taken before
# (a*n+b) prefixes were expanded when parsed and weights kept as monomial
# tuples; each command exits 0 and writes nothing to stderr
CATALOGUE_OUTPUT_DIGESTS = {
    ("certify", "--identity", "all"):
        "7e5d1f4b065581cef74759c37b1c95d4c0cd59f82cbe000c73812336342a3743",
    ("audit", "--max-n", "60"):
        "b0ffbaed6106af54213e1c4e7c65bf9bc04434f8374a9679de101df011bf4d30",
    ("congruences", "--max-n", "200"):
        "d07338701e74ccab6428ca2d89d51b19b7b13a10010f5ed52e59a5e357e781aa",
    ("verify", "--identity", "all", "--max-n", "60", "--format", "json"):
        "9c2f00a04ffb6d21e33ebc0b887dfad2e81c439ca8df9624a9013f938ee2a59c",
}


@pytest.mark.parametrize("argv", list(CATALOGUE_OUTPUT_DIGESTS), ids=" ".join)
def test_catalogue_command_output_is_pinned(argv, capsys):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == CATALOGUE_OUTPUT_DIGESTS[argv], out


# `audit --max-n 60` from its findings header on, byte for byte
AUDIT_FINDINGS = (
    "-- findings --\n"
    "eisenstein-leading-coefficient: claimed E_k = 1 - (4k/B_k) sum sigma_{k-1}(n) "
    "q^n; computed E_k = 1 - (2k/B_k) sum sigma_{k-1}(n) q^n\n"
    "  the -4k/B_k display is exactly twice every tabulated expansion coefficient; "
    "k=4: -4k/B_k gives 480, expansions use 240; k=6: -4k/B_k gives -1008, expansions"
    " use -504; k=8: -4k/B_k gives 960, expansions use 480; k=10: -4k/B_k gives -528,"
    " expansions use -264; k=12: -4k/B_k gives 131040/691, expansions use 65520/691\n"
    "bracket-e4-e6-order1: claimed [E4,E6]_1 = 3456*Delta (also stated as 4*E4*D(E6) "
    "- 6*E6*D(E4) = -3456*Delta); computed [E4,E6]_1 = -3456*Delta\n"
    "  the expanded statement carries the correct sign: 4*E4*D(E6) - 6*E6*D(E4) "
    "equals -3456*Delta exactly\n"
    "bracket-e4-e4-order2: claimed [E4,E4]_2 = 960*Delta; computed [E4,E4]_2 = "
    "4800*Delta\n"
    "  the bracket is 5 times the stated multiple; the reduced combination 2*D^2(E8) "
    "- 9*D(E4)^2 = 960*Delta holds exactly\n"
    "weight8-decomposition-generator: claimed D(E2)^2 = 1/5*D(E6) + 2*D^3(E2) and "
    "E2*D^2(E2) = 3/10*D(E6) + 4*D^3(E2); computed D(E2)^2 = 1/5*D^2(E4) + 2*D^3(E2) "
    "and E2*D^2(E2) = 3/10*D^2(E4) + 4*D^3(E2)\n"
    "  the stated coefficients 1/5, 2, 3/10, 4 are exactly right but sit on the "
    "D^2(E4) generator: the D(E6) variants already fail at the q^1 coefficient "
    "(1/5*(-504) + 2*(-24) != 0)\n"
    "audit ok\n"
)


def test_audit_command(capsys):
    code, out, _ = run(capsys, "audit", "--max-n", "60")
    assert code == 0
    assert "stated -3455/864, fitted -3455/36" in out
    assert out[out.index("-- findings --") :] == AUDIT_FINDINGS


def test_decompose_command(capsys):
    code, out, _ = run(
        capsys,
        "decompose",
        "--expr",
        "D(E2)*D(E2)",
        "--weight",
        "8",
        "--trunc",
        "32",
    )
    assert code == 0
    assert json.loads(out) == {"D^2(E4)": "1/5", "D^3(E2)": "2"}


def test_decompose_not_in_space(capsys):
    code, _, err = run(
        capsys, "decompose", "--expr", "E4 + E6", "--weight", "8", "--trunc", "32"
    )
    assert code in (1, 2)


def test_eval_command(capsys):
    code, out, _ = run(capsys, "eval", "--expr", "E4*E6", "--trunc", "6", "--coeff", "1")
    assert code == 0 and out.strip() == "-264"
    code, out, _ = run(capsys, "eval", "--expr", "E12 - E8*E4", "--trunc", "4")
    assert code == 0 and "weight: 12" in out
    # every atom evaluates at truncation 0; Delta's q^0 coefficient is 0
    assert run(capsys, "eval", "--expr", "Delta", "--trunc", "0") == (
        0, "weight: 12, depth bound: 0\n0\n", ""
    )
    assert run(capsys, "eval", "--expr", "E12", "--trunc", "0", "--coeff", "0") == (0, "1\n", "")


def test_eval_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "eval", "--expr", "D^(E4)", "--trunc", "8")
    assert code == 2
    assert "offset 2" in err


@pytest.mark.parametrize("digit", ["\u00b2", "\u2460"])  # superscript two, circled one
def test_eval_non_decimal_digit_is_a_syntax_error(capsys, digit):
    code, _, err = run(capsys, "eval", "--expr", f"E4 + {digit}", "--trunc", "4")
    assert code == 2
    assert "syntax error at offset 5: expected" in err


def test_eval_integer_past_the_str_limit_is_a_syntax_error(capsys):
    # int() would refuse the run; the parser names its offset instead
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        code, _, err = run(capsys, "eval", "--expr", f"[E4,E6]_{'9' * 5000}", "--trunc", "4")
    finally:
        sys.set_int_max_str_digits(old)
    assert code == 2
    assert "syntax error at offset 8: expected an integer of at most 4300 digits" in err


_USAGE_ERRORS = [
    (("verify", "--max-n", "0"), "minimum"),
    (("congruences", "--max-n", "0"), "minimum"),
    (("audit", "--max-n", "0"), "minimum"),
    (("tau", "--n", "0"), "minimum"),
    (("verify", "--identity", "eq1.1", "--max-n", "-5"), "minimum"),
    (("sigma", "--k", "-1", "--max-n", "4", "--out", "unused.csv"), "minimum"),
    (("bench", "--max-n", "0"), "invalid choice"),
    (("eval", "--expr", "E4", "--trunc", "8", "--coeff", "9"), "outside known range 0..8"),
    (("eval", "--expr", "E4", "--coeff", "-1"), "minimum"),
    (("eval", "--expr", "E4", "--trunc", "-1"), "minimum"),
    (("decompose", "--expr", "E4", "--weight", "5"), "decompose in weight 5"),
    (("decompose", "--expr", "E4", "--weight", "4", "--trunc", "3"), "truncation 3 too small"),
    (("decompose", "--expr", "E4", "--weight", "4", "--depth", "-1"), "minimum"),
    (("verify", "--max-n", "40", "--threads", "4"), "unrecognized arguments: --threads 4"),
    (("tau-table", "--max-n", "5", "--out", "/nonexistent/dir/x.csv"), "cannot write"),
    (("tau-table", "--max-n", "5", "--out", "."), "Is a directory"),
    (("tau-table", "--max-n", "5", "--out", ".", "--format", "json"), "Is a directory"),
    (("sigma", "--k", "3", "--max-n", "5", "--out", "/nonexistent/dir/x.csv"), "cannot write"),
    (("sigma", "--k", "3", "--max-n", "5", "--out", "."), "Is a directory"),
    # its q^4 coefficient, 240*73*4^100000, has more digits than str() allows
    (("eval", "--expr", "D^100000(E4)", "--trunc", "4"), "integer string conversion"),
    # sigma_3000(30) has about 4430 digits; it is turned into text before
    # the file is opened, so the directory that does not exist is never tried
    (("sigma", "--k", "3000", "--max-n", "30", "--out", "/nonexistent/dir/s.csv"),
     "integer string conversion"),
    # sizes past MAX_SIZE are refused before anything is built
    (("tau", "--n", str(10 ** 12)), "above the maximum 131072"),
    (("tau", "--n", "131073", "--strategy", "vdp"), "above the maximum 131072"),
    (("tau-table", "--max-n", "131073", "--out", "unused.csv"), "above the maximum"),
    (("sigma", "--k", "1", "--max-n", str(10 ** 9), "--out", "unused.csv"), "above the maximum"),
    (("verify", "--max-n", "131073"), "above the maximum"),
    (("congruences", "--max-n", "131073"), "above the maximum"),
    (("audit", "--max-n", "131073"), "above the maximum"),
    (("eval", "--expr", "E4", "--trunc", "131073"), "above the maximum"),
    (("decompose", "--expr", "E4", "--weight", "4", "--trunc", "131073"), "above the maximum"),
    # a weight past it would spin in generator_count for an expression of no weight
    (("decompose", "--expr", "0", "--weight", str(10 ** 12)), "above the maximum"),
    # bracket and Phi orders past expr.MAX_ORDER are refused before anything is built
    (("eval", "--expr", "[E4,E6]_3000", "--trunc", "64", "--coeff", "1"),
     "offset 8: expected an order of at most 4, found '3000'"),
    (("eval", "--expr", "Phi(5; E2, 2, 1; E2, 2, 1)", "--trunc", "2"), "an order of at most 4"),
    (("decompose", "--expr", "E4", "--weight", "-2"), "minimum"),
    # D^k is refused by its size before any power is taken
    (("decompose", "--expr", "D^300000000(E4)", "--weight", "12"), "above the maximum 33554432"),
]


@pytest.mark.parametrize(
    "argv, reason", _USAGE_ERRORS, ids=[f"argv{i}" for i in range(len(_USAGE_ERRORS))]
)
def test_non_positive_sizes_are_usage_errors(capsys, argv, reason):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert reason in err
    assert "error:" in err and "Traceback" not in err


@settings(
    max_examples=120, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(
    command=st.sampled_from(("eval", "decompose")),
    expr=st.sampled_from(("E4", "E2*E2", "Delta", "D(E2)")),
    trunc=st.none() | st.integers(-2, 40),
    coeff=st.none() | st.integers(-2, 44),
    weight=st.integers(-2, 12),
    depth=st.none() | st.integers(-2, 6),
)
def test_eval_decompose_exit_codes(capsys, command, expr, trunc, coeff, weight, depth):
    argv = [command, "--expr", expr]
    if trunc is not None:
        argv += ["--trunc", str(trunc)]
    if command == "eval" and coeff is not None:
        argv += ["--coeff", str(coeff)]
    if command == "decompose":
        argv += ["--weight", str(weight)]
        if depth is not None:
            argv += ["--depth", str(depth)]
    code, _, err = run(capsys, *argv)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    if code == 1:
        # a verdict: the request is valid and the form is not in the space
        assert command == "decompose"
        form = eval_expr(parse(expr), 64 if trunc is None else trunc)
        with pytest.raises(NotInGradedSpace):
            decompose(form, weight, depth)


# Expression text from the grammar, nested or chained past the depth bound,
# or garbage.  D exponents stay at most 3, and MAX_DEPTH admits at most 100
# factors, so that each case takes milliseconds.  That leaves out a known
# defect: long products of D^k factors with large k pass every per-node guard
# (qseries.MAX_DERIVE_BITS sees one chain of nested D at a time) and can run
# for minutes; the size budget item of ROADMAP.md would bound the tree.
_LEAVES = st.sampled_from(("E2", "E4", "E6", "E8", "E10", "E12", "Delta", "0", "2", "3/4", "1/0"))


def _grown(inner):
    small = st.integers(0, 6)
    return st.one_of(
        st.tuples(inner, st.sampled_from(("+", "-", "*", " ")), inner).map("".join),
        inner.map("-{}".format) | inner.map("({})".format),
        st.tuples(st.integers(0, 3), inner).map("D^{0[0]}({0[1]})".format),
        st.tuples(inner, inner, small).map("[{0[0]}, {0[1]}]_{0[2]}".format),
        st.tuples(small, inner, st.integers(0, 12), small, inner, st.integers(0, 12), small).map(
            "Phi({0[0]}; {0[1]}, {0[2]}, {0[3]}; {0[4]}, {0[5]}, {0[6]})".format
        ),
    )


# while a test runs, hypothesis sets the recursion limit 2000 frames above the
# caller, so only thousands of levels reach it here
_LEVELS = st.sampled_from((1, 50, 100, 101, 400, 5000))
_NESTING = st.sampled_from((("(", ")"), ("D(", ")"), ("D^3(", ")"), ("[", ", E4]_1"), ("-(", ")")))
_EXPRESSIONS = st.one_of(
    st.recursive(_LEAVES, _grown, max_leaves=8),
    st.tuples(_NESTING, _LEVELS, _LEAVES).map(
        lambda t: t[0][0] * t[1] + t[2] + t[0][1] * t[1]
    ),
    st.tuples(_LEAVES, st.sampled_from(("+", "-", "*", " ")), _LEVELS).map(
        lambda t: t[0] + (t[1] + t[0]) * t[2]
    ),
    st.text(alphabet="()[]^_,;+-*/ 0123456789DEPhilta\u00b2", max_size=40),
)
_SIZES = st.sampled_from((*map(str, range(-1, 41)), "x", "", "1.5", str(MAX_SIZE + 1)))
_TRUNCATIONS = st.sampled_from((*map(str, range(-1, 17)), "x", str(MAX_SIZE + 1)))
_WEIGHTS = st.sampled_from((*map(str, range(0, 25, 2)), "-1", "5", "x"))
_STRATEGIES = st.sampled_from((*TAU_STRATEGIES, "nope"))
_OUT = st.sampled_from(("{tmp}/out.csv", "{tmp}/out.json", "{tmp}", "{tmp}/missing/out.csv"))
_IDS = st.sampled_from(("all", "nope", "eq1.1", "thm2.1.i", "thm2.7.i", "cor2.8.i"))
_OPTIONS = {
    "tau": {"--n": _SIZES, "--strategy": _STRATEGIES},
    "tau-table": {
        "--max-n": _SIZES,
        "--out": _OUT,
        "--format": st.sampled_from(("csv", "json", "xml")),
        "--strategy": _STRATEGIES,
    },
    "sigma": {"--k": _SIZES | st.just("5000"), "--max-n": _SIZES, "--out": _OUT},
    "verify": {
        "--identity": _IDS,
        "--max-n": _SIZES,
        "--format": st.sampled_from(("json", "text")),
    },
    "certify": {"--identity": _IDS},
    "audit": {"--max-n": _SIZES},
    "congruences": {"--max-n": _SIZES},
    "decompose": {
        "--expr": _EXPRESSIONS,
        "--weight": _WEIGHTS,
        "--depth": _SIZES,
        "--trunc": _TRUNCATIONS,
    },
    "eval": {"--expr": _EXPRESSIONS, "--trunc": _TRUNCATIONS, "--coeff": _TRUNCATIONS},
}


@st.composite
def _argvs(draw):
    command = draw(st.sampled_from(sorted(_OPTIONS)))
    argv = [command]
    for option, values in _OPTIONS[command].items():
        if draw(st.integers(0, 7)):  # most requests give each option
            argv.append(f"{option}={draw(values)}")  # so that a value may start with "-"
    if not draw(st.integers(0, 9)):
        argv.append(draw(st.sampled_from(("--bogus", "-h", "extra", "--n", "--"))))
    return argv


@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(argv=_argvs())
def test_every_argv_exits_0_1_or_2_without_a_traceback(capsys, tmp_path, argv):
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    code, _, err = run(capsys, *argv)
    assert code in (0, 1, 2), (argv, err)
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ("sigma", "--k", "3000", "--max-n", "30"),
        ("tau-table", "--max-n", "3"),
        ("tau-table", "--max-n", "3", "--format", "json"),
    ],
    ids=["sigma", "tau-table-csv", "tau-table-json"],
)
def test_a_table_too_long_to_print_writes_no_file(capsys, monkeypatch, tmp_path, argv):
    # a tau table gets a value past the int/str digit limit by substitution
    monkeypatch.setattr(tauforms.cli, "tau_range", lambda n, strategy: [0] + [10 ** 5000] * n)
    fresh, kept = tmp_path / "fresh.out", tmp_path / "kept.out"
    kept.write_text("kept\n")
    for path in (fresh, kept):
        code, out, err = run(capsys, *argv, "--out", str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot write {path}: ")
        assert "integer string conversion" in err and "Traceback" not in err
    assert not fresh.exists()
    assert kept.read_text() == "kept\n"


def _cap_address_space():
    # a sieve that was not refused fails here instead of exhausting memory
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize("k, max_n", [(20000, 2000), (131072, 131072)])
def test_sigma_refuses_an_unprintable_table_before_sieving(capsys, monkeypatch, tmp_path, k, max_n):
    # sigma_k(max_n) >= max_n^k has more digits than str() allows, which is
    # known before a single value is sieved
    import tauforms.cli as cli

    out = tmp_path / "s.csv"
    argv = ["sigma", "--k", str(k), "--max-n", str(max_n), "--out", str(out)]
    with monkeypatch.context() as patch:
        patch.setattr(cli, "sigma_table", lambda k, limit: pytest.fail("sieved"))
        code, stdout, err = run(capsys, *argv)
    src = Path(tauforms.__file__).resolve().parents[1]
    path = [str(src), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run(
        [sys.executable, "-m", "tauforms.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=30,
        preexec_fn=_cap_address_space,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, stdout, err) == (2, "", err)
    assert err.startswith(f"error: cannot write {out}: ")
    assert "integer string conversion" in err and "Traceback" not in err
    assert not out.exists()


_CAPPED_VERIFY = (
    "import resource, sys\n"
    "import tauforms, tauforms.cli\n"
    "tauforms.builtin_registry()\n"
    "with open('/proc/self/status') as fh:\n"
    "    kb = next(int(line.split()[1]) for line in fh if line.startswith('VmSize:'))\n"
    "cap = (kb << 10) + ({cap_mb} << 20)\n"
    "resource.setrlimit(resource.RLIMIT_AS, (cap, cap))\n"
    "sys.exit(tauforms.cli.main(sys.argv[1:]))\n"
)


def _capped(argv, cap_mb, timeout):
    """The exit code, stdout and stderr of the CLI run on argv in a fresh
    interpreter whose address space may grow cap_mb MB past the imported
    catalogue."""
    src = Path(tauforms.__file__).resolve().parents[1]
    path = [str(src), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run(
        [sys.executable, "-c", _CAPPED_VERIFY.format(cap_mb=cap_mb), *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=timeout,
    )
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmSize from /proc")
def test_verify_all_runs_under_an_address_space_cap(capsys, monkeypatch):
    # At N = 10000 verify --identity all grows the address space by about
    # 15 MB past the imported catalogue (CPython 3.11, x86-64 Linux): the
    # stream of each difference and the convolutions dropped after their
    # last reader keep it there.  Holding both sides' vectors and every
    # convolution to the end took about 25 MB, which this cap refuses.
    argv = ["verify", "--identity", "all", "--max-n", "10000"]
    monkeypatch.setattr(tauforms.forms, "_STORE", {})  # keep no table at N after the test
    code, stdout, err = run(capsys, *argv)
    assert _capped(argv, 20, 120) == (code, stdout, err) == (0, stdout, "")


@pytest.mark.ceiling
@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmSize from /proc")
def test_verify_all_at_the_size_ceiling_runs_under_an_address_space_cap():
    # At the CLI ceiling N = 131072 the run grows the address space by
    # about 170 MB past the imported catalogue and takes 10-16 s with
    # libgmp (CPython 3.11, x86-64 Linux); 165 MB is refused.
    code, out, err = _capped(["verify", "--identity", "all", "--max-n", "131072"], 200, 300)
    assert (code, err) == (0, "")
    assert out.count(": verified") == 43 and out.count(": audit-flagged") == 2


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmHWM from /proc")
def test_peak_rss_script_runs_the_cli_commands(tmp_path):
    # scripts/peak_rss.py names its commands by their CLI options; each must
    # still parse, and one small run reports its peak and time
    import importlib.util

    path = Path(__file__).resolve().parents[1] / "scripts" / "peak_rss.py"
    spec = importlib.util.spec_from_file_location("peak_rss", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    commands = dict(script.commands(None, "table.out"))
    assert list(commands) == ["verify", "congruences", "certify", "audit"] + [
        f"tau-table-{s}" for s in TAU_STRATEGIES
    ]
    for argv in commands.values():
        build_parser().parse_args(argv)
    tables = dict(script.commands(None, "table.out", "json"))
    assert list(tables) == list(commands)
    for name, argv in tables.items():
        args = build_parser().parse_args(argv)
        assert not name.startswith("tau-table") or args.format == "json"
    src = Path(tauforms.__file__).resolve().parents[1]
    run = script.measure(["verify", "--identity", "eq1.1", "--max-n", "20"], src)
    assert run["exit"] == 0 and run["vmhwm_kb"] > 0 and run["seconds"] > 0
    out = tmp_path / "table.json"
    run = script.measure(dict(script.commands(20, str(out), "json"))["tau-table-eisenstein"], src)
    assert run["exit"] == 0 and run["vmhwm_kb"] > 0
    assert json.loads(out.read_text())["values"][-1] == [20, tau_range(20)[20]]


def test_session_kinds_script_replays_the_session_stream():
    # scripts/session_kinds.py serves the benchmark's seeded session pass
    # with the benchmark worker's handler; every kind is timed and checked
    root = Path(__file__).resolve().parents[1]
    src = Path(tauforms.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "session_kinds.py"), "--src", str(src)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    kinds = json.loads(proc.stdout)["kinds"]
    assert set(kinds) == {"expr", "decompose", "rc_bracket", "e2_family", "certify", "tau"} | {
        f"tau.{s}" for s in TAU_STRATEGIES
    }
    assert kinds["tau"]["count"] == sum(kinds[f"tau.{s}"]["count"] for s in TAU_STRATEGIES)
    for entry in kinds.values():
        assert entry["count"] > 0 and entry["mean_ms"] > 0 and entry["failed"] == 0


def test_session_kinds_script_exits_1_on_a_failed_check(monkeypatch, capsys):
    # CI runs the script as a gate on the session's answers
    path = Path(__file__).resolve().parents[1] / "scripts" / "session_kinds.py"
    spec = importlib.util.spec_from_file_location("session_kinds", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(sys, "path", list(sys.path))
    for problems, code in (([], 0), (["coefficient 3 differs"], 1)):
        answers = [("expr", 0.001, []), ("tau.vdp", 0.002, problems)]
        monkeypatch.setattr(script, "replay", lambda seed, pass_index: iter(answers))
        assert script.main([]) == code
        kinds = json.loads(capsys.readouterr().out)["kinds"]
        assert kinds["tau"]["failed"] == kinds["tau.vdp"]["failed"] == code


def test_library_invariants_survive_optimize_flag():
    # python -O strips assert statements; the audit's invariants must not be
    src = str(Path(tauforms.__file__).resolve().parents[1])
    path = [src, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "tauforms.cli", "audit", "--max-n", "60"],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "audit ok" in proc.stdout


def test_library_has_no_assert_statements():
    # python -O strips assert statements, so library invariants raise instead
    package = Path(tauforms.__file__).resolve().parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _decorator_name(node):
    if isinstance(node, ast.Call):
        node = node.func
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def test_only_bernoulli_and_the_registry_use_lru_cache():
    # every named form goes through the one store in tauforms.forms
    package = Path(tauforms.__file__).resolve().parent
    found = [
        f"{path.name}:{node.name}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(_decorator_name(d) in ("lru_cache", "cache") for d in node.decorator_list)
    ]
    assert found == ["forms.py:bernoulli", "identities.py:builtin_registry"]


def test_strategy_disagreement_exit_code(capsys, monkeypatch):
    from tauforms import TauStrategyDisagreement
    import tauforms.cli as cli

    def explode(n, strategy="product"):
        raise TauStrategyDisagreement(2, {"product": -24, "vdp": -23})

    monkeypatch.setattr(cli, "tau", explode)
    code, _, err = run(capsys, "tau", "--n", "2")
    assert code == 3
    assert "internal inconsistency" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("tau", "--n", "3", "--strategy", "eisenstein"),
        ("tau-table", "--max-n", "8", "--strategy", "eisenstein", "--out", "unused.csv"),
    ],
    ids=["tau", "tau-table"],
)
def test_a_bent_sigma5_exits_3(capsys, bend_sigma5, argv):
    # sigma5(3) + 1 leaves 691 (E12 - E6^2) with a q^3 coefficient that
    # 762048 does not divide: the Eisenstein route's exact division fails
    bend_sigma5(3)
    code, _, err = run(capsys, *argv)
    assert code == 3
    assert "q^3 coefficient" in err


def test_benchmark_tracer_wraps_the_library():
    # perfbench/run.py --trace 1 wraps these names; a rename must fail here
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    src = Path(tauforms.__file__).resolve().parents[1]
    script = (
        "import json, sys\n"
        "from tracer import Tracer, install\n"
        "import tauforms.cli\n"
        "tracer = install(Tracer())\n"
        "code = tauforms.cli.main(['audit', '--max-n', '40'])\n"
        "print(json.dumps(sorted(tracer.layers())))\n"
        "sys.exit(code)\n"
    )
    path = [str(perfbench), str(src), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    layers = set(json.loads(proc.stdout.splitlines()[-1]))
    assert {
        "cli.main",
        "identities.builtin_registry",
        "identities.make_context",
        "identities.side_series",
        "quasidecomp.graded_generators",
        "quasidecomp.modular_basis",
    } <= layers


@pytest.mark.parametrize(
    "demo",
    sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py")),
    ids=lambda path: path.name,
)
def test_demo_runs(demo):
    src = Path(tauforms.__file__).resolve().parents[1]
    path = [str(src), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=env, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stdout + proc.stderr
