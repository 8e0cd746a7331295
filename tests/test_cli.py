"""Command-line contract: exit codes, determinism, formats, work caps."""

import json
import math
import os
import pathlib
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from guinand.cli import _parse_vector, main

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


# ---- exit-status contract ----------------------------------------------------

def test_verify_passing(capsys):
    code, out, _ = run(["verify", "--k", "5", "--phi", "t*exp(-pi*t^2/2)",
                        "--nmax", "400", "--tol", "1e-10"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["identity"] == "k5"
    assert report["rel_residual"] <= 1e-10
    assert report["truncation"] == {"N": 400}


def test_verify_residual_failure_exits_2(capsys):
    # an impossible tolerance forces the residual branch
    code, out, _ = run(["verify", "--k", "5", "--phi", "t*exp(-pi*t^2/2)",
                        "--nmax", "400", "--tol", "1e-18"], capsys)
    assert code == 2
    assert json.loads(out)["rel_residual"] > 1e-18


def test_parse_error_exits_1(capsys):
    code, _, err = run(["verify", "--k", "5", "--phi", "t*exp(pi*t^2)"], capsys)
    assert code == 1
    assert "parse error at byte" in err


# help, usage and argparse errors, recorded byte for byte with COLUMNS=80 (the
# terminal width argparse wraps to); "option-prefix" pins that an unambiguous
# prefix such as --nm still selects its option
FRONTEND = json.loads((ROOT / "tests" / "golden" / "frontend.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(FRONTEND))
def test_frontend_matches_snapshot(name, capsys, monkeypatch):
    case = FRONTEND[name]
    monkeypatch.setenv("COLUMNS", "80")
    try:
        code = main(case["argv"])
    except SystemExit as exc:  # --help exits through argparse
        code = exc.code
    out, err = capsys.readouterr()
    assert (code, out, err) == (case["status"], case["stdout"], case["stderr"])


def test_parser_shapes():
    # a line that starts with a subcommand is parsed by that subcommand's
    # parser alone; otherwise by the top-level parser (its texts are pinned
    # by the help-before-subcommand snapshots)
    from guinand.cli import _build_parser
    parser, tokens = _build_parser(["rk", "--k", "3", "--nmax", "5"])
    assert (parser.prog, tokens) == ("guinand rk", ["--k", "3", "--nmax", "5"])
    parser, tokens = _build_parser(["--help", "verify"])
    assert (parser.prog, tokens) == ("guinand", ["--help", "verify"])


def test_unknown_flag_exits_1(capsys):
    code, _, err = run(["verify", "--k", "5", "--phi", "t*exp(-pi*t^2)",
                        "--frobnicate"], capsys)
    assert code == 1
    assert "error" in err.lower()


def test_unknown_subcommand_exits_1(capsys):
    code, _, _ = run(["shrubbery"], capsys)
    assert code == 1


def test_bad_k_exits_1(capsys):
    code, _, err = run(["verify", "--k", "4", "--phi", "t*exp(-pi*t^2)"], capsys)
    assert code == 1
    assert "odd" in err


# inputs whose floats overflow: each exits 1 with one line, never a traceback;
# the transform of a very wide Gaussian is refused by its scale, and the k = 3
# sums of a huge phi are NaN, which must fail the literal-constant cross-check
OVERFLOWS = [
    (["verify", "--k", "3", "--phi", "t*exp(-pi*1e-300*t^2)"],
     "error: the Fourier transform of the term on Gaussian scale 1e-300 leaves"),
    (["verify", "--k", "3", "--phi", "1e308*t*exp(-pi*t^2)"],
     "error: specialized k=3 form disagrees"),
    (["sphere-ft", "--k", "5", "--t", "1e300"], "error: closed form: |t|^3 exceeds"),
    (["sphere-ft", "--k", "5001", "--t", "0.001", "--methods", "closed"],
     "error: cannot certify s_5001"),
    (["verify", "--k", "3", "--phi", "1e400*t*exp(-pi*t^2)"],
     "parse error at byte 0: number is beyond the float range"),
    (["verify", "--k", "7", "--phi", "t*exp(-pi*1e-300*t^2)"],
     "error: the Fourier transform of the term on Gaussian scale 1e-300 leaves"),
]


@pytest.mark.parametrize("argv", [
    ["rk", "--k", "0", "--nmax", "5"],
    ["coeffs", "--k", "2"],
    ["sphere-ft", "--k", "3"],                      # missing --t
    ["sphere-ft", "--k", "3", "--t", "1", "--t-grid", "0:1:0.5"],
    ["sphere-ft", "--k", "3", "--t", "1", "--methods", "wat"],
    ["verify-shifted", "--k", "3", "--eta", "x,y,z", "--xi", "0,0,1/2",
     "--phi", "t*exp(-pi*t^2)"],
    *(argv for argv, _ in OVERFLOWS),
])
def test_malformed_inputs_exit_1(argv, capsys):
    code, _, _ = run(argv, capsys)
    assert code == 1


@pytest.mark.parametrize("argv,message", OVERFLOWS)
def test_float_overflow_exits_1_with_a_message(argv, message, capsys):
    code, out, err = run(argv, capsys)
    assert (code, out) == (1, "")
    assert err.startswith(message) and err.count("\n") == 1, err


# shift components beyond the float range are tested for Z^k exactly
@pytest.mark.parametrize("eta,xi", [("1e400,0,0", "0,1/3,0"), ("1/2,0,0", "0,1e400,1/3"),
                                    ("1e400,1/2,0", "0,1/3,0")])
def test_verify_shifted_takes_huge_shift_components(eta, xi, capsys):
    code, out, err = run(["verify-shifted", "--k", "3", "--eta", eta, "--xi", xi,
                          "--phi", "t*exp(-pi*t^2)"], capsys)
    if eta == "1e400,0,0":
        assert (code, out) == (1, "")
        assert err.startswith("error: shift vector must lie outside Z^k"), err
    else:
        assert code == 0, err
        assert json.loads(out)["rel_residual"] < 1e-14


def test_import_loads_neither_dataclasses_nor_inspect():
    code = ("import sys, guinand.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True).stdout
    assert out == "[]\n"


# values starting with '-' after a spaced option: each must run like --opt=value
DASH_VALUES = [
    (["verify", "--k", "3", "--nmax", "50"], "--phi", "-t*exp(-pi*t^2)"),
    (["verify-shifted", "--k", "3", "--xi", "0,1/3,0", "--phi", "t*exp(-pi*t^2)",
      "--r-time", "3", "--r-freq", "3"], "--eta", "-1/2,0,0"),
    (["verify-shifted", "--k", "3", "--eta", "1/2,0,0", "--phi", "t*exp(-pi*t^2)",
      "--r-time", "3", "--r-freq", "3"], "--xi", "-1/3,0,1/4"),
    (["radial-ft", "--k", "5", "--t", "0.7"], "--f", "-t^2*exp(-pi*t^2)"),
    (["sphere-ft", "--k", "5"], "--t-grid", "-1.25:1:0.5"),
]


@pytest.mark.parametrize("from_sys_argv", [False, True], ids=["argv", "sys.argv"])
@pytest.mark.parametrize("base,option,value", DASH_VALUES,
                         ids=[option for _, option, _ in DASH_VALUES])
def test_dash_leading_values(base, option, value, from_sys_argv, capsys, monkeypatch):
    want_code, want_out, _ = run(base + [f"{option}={value}"], capsys)
    assert want_code == 0
    argv = base + [option, value]
    if from_sys_argv:
        monkeypatch.setattr("sys.argv", ["guinand"] + argv)
        argv = None
    code, out, _ = run(argv, capsys)
    assert (code, out) == (want_code, want_out)


# ---- outputs -----------------------------------------------------------------

def test_rk_csv(capsys):
    code, out, _ = run(["rk", "--k", "3", "--nmax", "4", "--format", "csv"], capsys)
    assert code == 0
    assert out.splitlines() == ["n,r_k", "0,1", "1,6", "2,12", "3,8", "4,6"]


def test_coeffs_exact_output(capsys):
    code, out, _ = run(["coeffs", "--k", "7", "--format", "exact"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "alpha(7) = 1/60 * pi^-2"
    assert "beta(0,7) = 3/4 * pi^-2" in lines
    assert "beta(2,7) = 1/4 * pi^-2" in lines


def test_coeffs_json_output(capsys):
    code, out, _ = run(["coeffs", "--k", "5", "--format", "json"], capsys)
    obj = json.loads(out)
    assert obj["alpha"] == {"num": -1, "den": 6, "pi_power": -1}
    assert obj["beta"][1] == {"j": 1, "num": -1, "den": 2, "pi_power": -1}


def test_sphere_ft_four_methods(capsys):
    code, out, _ = run(["sphere-ft", "--k", "9", "--t", "2.0",
                        "--methods", "closed,bessel,recurrence,besselpoly"], capsys)
    assert code == 0
    rows = json.loads(out)
    values = [r["value"] for r in rows]
    assert len(values) == 4
    spread = max(values) - min(values)
    assert spread <= 1e-12 * max(abs(v) for v in values)


def test_sphere_ft_k3_default_methods(capsys):
    code, out, _ = run(["sphere-ft", "--k", "3", "--t", "1"], capsys)
    assert code == 0
    assert [r["method"] for r in json.loads(out)] == \
        ["closed", "bessel", "recurrence", "besselpoly"]


def test_sphere_ft_grid_csv(capsys):
    code, out, _ = run(["sphere-ft", "--k", "3", "--t-grid", "0.5:1.5:0.5",
                        "--methods", "closed", "--format", "csv"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "k,t,method,value"
    assert len(lines) == 4


def test_radial_ft_json(capsys):
    code, out, _ = run(["radial-ft", "--k", "3", "--f", "exp(-pi*t^2)",
                        "--t", "1.0", "--methods", "closed,quadrature"], capsys)
    assert code == 0
    rows = json.loads(out)
    assert {r["method"] for r in rows} == {"closed", "quadrature"}
    a, b = (complex(*r["value"]) for r in rows)
    assert abs(a - b) < 1e-10


def test_duality_subcommand(capsys):
    code, out, _ = run(["duality", "--k", "7", "--phi", "t^3*exp(-pi*t^2)",
                        "--nmax", "400", "--tol", "1e-9"], capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["rel_diff"] <= 1e-9


def test_verify_shifted_subcommand(capsys):
    code, out, _ = run(["verify-shifted", "--k", "3", "--eta", "1/2,0,0",
                        "--xi", "0,1/3,0", "--phi", "t*exp(-pi*t^2)",
                        "--r-time", "5", "--r-freq", "5", "--tol", "1e-8"], capsys)
    assert code == 0
    assert json.loads(out)["identity"] == "shifted"


def test_odd_normalization_notice(capsys):
    code, out, err = run(["verify", "--k", "3", "--phi", "(1+t)*exp(-pi*t^2)",
                          "--nmax", "100"], capsys)
    assert code == 0
    assert "odd part" in err
    # odd part of (1+t) e^{-pi t^2} is 2 t e^{-pi t^2}: identity still holds
    assert json.loads(out)["rel_residual"] <= 1e-10


def test_workcap_env_override(capsys, monkeypatch):
    monkeypatch.setenv("GUINAND_WORKCAP", "10")
    code, _, err = run(["rk", "--k", "3", "--nmax", "100"], capsys)
    assert code == 1
    assert "cap" in err


@pytest.mark.parametrize("argv", [
    ["verify", "--k", "3"],
    ["verify", "--k", "3", "--format", "csv"],
    ["verify", "--k", "7"],
    ["duality", "--k", "5"],
], ids=["verify-json", "verify-csv", "verify-k7", "duality"])
def test_workcap_env_override_table_builds(argv, capsys, monkeypatch):
    # the r_k table of verify and duality obeys GUINAND_WORKCAP both ways
    argv = argv + ["--phi", "t*exp(-pi*t^2)", "--nmax", "100"]
    monkeypatch.setenv("GUINAND_WORKCAP", "10")
    code, _, err = run(argv, capsys)
    assert code == 1
    assert "cap" in err
    monkeypatch.setenv("GUINAND_WORKCAP", "100")
    assert run(argv, capsys)[0] == 0


def test_duality_builds_one_table(capsys, monkeypatch):
    # both combs of one duality run come from the same r_k table
    from guinand import atoms, sumsq

    build, calls = sumsq.rk_table, []

    def counting(k, max_n, **kwargs):
        calls.append((k, max_n))
        return build(k, max_n, **kwargs)

    monkeypatch.setattr(sumsq, "rk_table", counting)
    monkeypatch.setattr(atoms, "rk_table", counting)
    assert run(["duality", "--k", "5", "--phi", "t*exp(-pi*t^2)",
                "--nmax", "100"], capsys)[0] == 0
    assert calls == [(5, 100)]


NON_FINITE = [
    ["radial-ft", "--k", "3", "--f", "exp(-pi*t^2)", "--t-grid", "0:inf:1"],
    ["radial-ft", "--k", "3", "--f", "exp(-pi*t^2)", "--t-grid", "0:1e300:1e-300"],
    ["sphere-ft", "--k", "5", "--t-grid", "-1e308:1e308:1"],
    ["sphere-ft", "--k", "5", "--t-grid", "0:1:nan"],
    ["verify-shifted", "--k", "3", "--eta", "1/2,0,0", "--xi", "1/3,0,0",
     "--phi", "t*exp(-pi*t^2)", "--r-time", "inf"],
    ["verify-shifted", "--k", "3", "--eta", "1/2,0,0", "--xi", "1/3,0,0",
     "--phi", "t*exp(-pi*t^2)", "--r-freq", "-inf"],
    ["radial-ft", "--k", "3", "--f", "exp(-pi*t^2)", "--t", "inf",
     "--methods", "quadrature"],
    ["sphere-ft", "--k", "5", "--t", "nan"],
    ["verify", "--k", "3", "--phi", "t*exp(-pi*t^2)", "--tol", "nan"],
    ["duality", "--k", "3", "--phi", "t*exp(-pi*t^2)", "--tol", "inf"],
]


@pytest.mark.parametrize("argv", NON_FINITE, ids=[
    "grid-inf", "grid-count-overflow", "grid-span-overflow", "grid-nan", "r-time-inf",
    "r-freq-minus-inf", "t-inf-quadrature", "t-nan", "tol-nan", "tol-inf"])
def test_non_finite_floats_exit_1(argv):
    # each runs as a real command line, so an escaped exception shows as a
    # traceback on stderr
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-m", "guinand.cli", *argv], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("target,reason", [
    (pathlib.Path("missing-dir", "x.json"), "No such file or directory"),
    (pathlib.Path("."), "Is a directory"),
], ids=["missing-dir", "directory"])
def test_unwritable_output_exits_1(target, reason, tmp_path):
    path = tmp_path / target
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-m", "guinand.cli", "rk", "--k", "3",
                           "--nmax", "5", "--output", str(path)], cwd=ROOT,
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == f"error: cannot write {path}: {reason}\n"
    assert "Traceback" not in proc.stderr


def test_grid_cap_refuses_before_building(capsys):
    # 10^12 + 1 points: refused from the count alone, without allocating
    code, out, err = run(["sphere-ft", "--k", "5", "--t-grid", "0:1e12:1"], capsys)
    assert code == 1
    assert out == ""
    assert "1000000000001 points" in err and "cap" in err


def test_grid_cap_env_override(capsys, monkeypatch):
    monkeypatch.setenv("GUINAND_WORKCAP", "10")
    argv = ["sphere-ft", "--k", "5", "--methods", "closed", "--t-grid"]
    code, _, err = run(argv + ["1:11:1"], capsys)
    assert code == 1
    assert "11 points" in err and "cap 10" in err
    code, out, _ = run(argv + ["1:10:1"], capsys)
    assert code == 0
    assert len(json.loads(out)) == 10


@pytest.mark.parametrize("k", [3, 5])
def test_workcap_reaches_literal_constant_tables(k, capsys, monkeypatch):
    # at k = 3 and 5 the literal-constant cross-check builds its own table;
    # a raised cap must reach it too
    from guinand import formulas

    build, caps = formulas.rk_table, []

    def recording(k, max_n, **kwargs):
        caps.append(kwargs.get("table_cap"))
        return build(k, max_n, **kwargs)

    monkeypatch.setattr(formulas, "rk_table", recording)
    monkeypatch.setenv("GUINAND_WORKCAP", "100")
    assert run(["verify", "--k", str(k), "--phi", "t*exp(-pi*t^2)",
                "--nmax", "100"], capsys)[0] == 0
    assert caps == [100, 100]


def test_json_determinism(tmp_path, capsys):
    argv = ["verify", "--k", "5", "--phi", "t*exp(-pi*t^2/2)", "--nmax", "200"]
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(argv + ["--output", str(p1)]) == 0
    assert main(argv + ["--output", str(p2)]) == 0
    capsys.readouterr()
    assert p1.read_bytes() == p2.read_bytes()


def test_float_serialization_17g(capsys):
    code, out, _ = run(["verify", "--k", "3", "--phi", "t*exp(-pi*t^2/2)",
                        "--nmax", "400"], capsys)
    report = json.loads(out)
    assert abs(report["lhs"][0] - 2.8602371906953891) < 1e-13
    # round-trip: 17 significant digits preserve the double exactly
    assert report["lhs"][0] == float(repr(report["lhs"][0]))


def test_verify_csv_shell_table(capsys):
    code, out, _ = run(["verify", "--k", "3", "--phi", "t*exp(-pi*t^2)",
                        "--nmax", "10", "--format", "csv"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("n,r_k,lhs_term_re")
    assert len(lines) > 5


def test_verify_csv_sums_each_side_once(capsys, monkeypatch):
    # the CSV running partials are the only summation of each side (one add
    # per row and side), and their last row is the JSON report's sums
    from guinand.util import CompensatedSum

    argv = ["verify", "--k", "7", "--phi", "t*exp(-pi*t^2/2)", "--nmax", "60"]
    code, out, _ = run(argv, capsys)
    assert code == 0
    report = json.loads(out)
    add, adds = CompensatedSum.add, []

    def counting(self, z):
        adds.append(z)
        add(self, z)

    monkeypatch.setattr(CompensatedSum, "add", counting)
    code, out, _ = run(argv + ["--format", "csv"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert len(adds) == 2 * (len(lines) - 1)
    last = [float(x) for x in lines[-1].split(",")[6:]]
    assert last == report["lhs"] + report["rhs"]


@pytest.mark.parametrize("argv", [
    ["verify", "--k", "3", "--phi", "t*exp(-pi*t^2/100000000000)", "--nmax", "400"],
    ["verify-shifted", "--k", "3", "--eta", "1/2,0,0", "--xi", "0,1/3,0",
     "--phi", "t*exp(-pi*t^2/100000000000)", "--r-time", "2", "--r-freq", "2"],
], ids=["verify", "verify-shifted"])
def test_uncertified_tail_exits_1(argv, capsys):
    # a Gaussian so wide that the tail loop reaches no geometric certificate
    # must stop the check, not report its partial sum as a bound
    code, out, err = run(argv, capsys)
    assert code == 1
    assert out == ""
    assert "no tail certificate" in err


# sums that become NaN: the report must refuse them the same way whatever the
# errno left by the last libm call before the run (an underflowing exp sets it)
NAN_SUMS = [
    ["verify", "--k", "7", "--phi", "1e300*t^5*exp(-pi*t^2)", "--nmax", "2100"],
    ["verify", "--k", "7", "--phi", "1e300*t^5*exp(-pi*t^2)", "--nmax", "2100",
     "--format", "csv"],
    ["duality", "--k", "7", "--phi", "1e300*t^5*exp(-pi*t^2)", "--nmax", "2100"],
]


@pytest.mark.parametrize("argv", NAN_SUMS, ids=["verify", "verify-csv", "duality"])
def test_nan_sums_exit_1_whatever_errno_holds(argv, capsys):
    for x in (-1e4, 0.0):
        math.exp(x)
        code, out, err = run(argv, capsys)
        assert (code, out, err) == (1, "", "error: non-finite value nan in report\n")


@pytest.mark.parametrize("f,expected", [
    ("1e308*exp(-pi*t^2/1000)", None),
    # the parser refuses 1e308*10 at its '*', so no NaN coefficient reaches the
    # cutoff; test_radial keeps the NaN cutoff under test on a GaussPoly
    ("(1e308*10-1e308*10)*exp(-pi*t^2)",
     "parse error at byte 6: coefficient is beyond the float range\n"),
], ids=["overflow", "nan"])
def test_quadrature_cutoff_beyond_the_float_range_exits_1(f, expected, capsys):
    code, out, err = run(["radial-ft", "--k", "3", "--f", f, "--t", "1",
                          "--methods", "quadrature"], capsys)
    assert (code, out) == (1, "")
    if expected is None:
        assert err.startswith("error: cutoff tail bound ") and err.endswith(" is not finite\n")
    else:
        assert err == expected


# beyond k ~ 440 beta_jk (and from k = 439 the shell weights r_k(n) beta_jk)
# exceed the float range; from k ~ 340 the quadrature cutoff's R^(k-1) does
LARGE_K = {
    "coeffs": ["coeffs", "--k", "441", "--format", "float"],
    "verify": ["verify", "--k", "441", "--phi", "t*exp(-pi*t^2)", "--nmax", "10"],
    "duality-441": ["duality", "--k", "441", "--phi", "t*exp(-pi*t^2)", "--nmax", "10"],
    "duality-439": ["duality", "--k", "439", "--phi", "t*exp(-pi*t^2)", "--nmax", "10"],
    "radial-ft": ["radial-ft", "--k", "441", "--f", "exp(-pi*t^2)", "--t", "1"],
    "radial-ft-quadrature": ["radial-ft", "--k", "341", "--f", "exp(-pi*t^2)", "--t", "1",
                             "--methods", "quadrature"],
}


@pytest.mark.parametrize("name", sorted(LARGE_K))
def test_large_k_exits_1_without_traceback(name, capsys):
    code, out, err = run(LARGE_K[name], capsys)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "float range" in err or "is not finite" in err


@pytest.mark.parametrize("phi,offset,what", [
    ("(1e308*10-1e308*10)*t*exp(-pi*t^2)", 6, "coefficient"),
    ("(1e308+1e308)*t*exp(-pi*t^2)", 6, "coefficient"),
    ("t*exp(-pi*t^2)/1e-320", 14, "coefficient"),
    ("t*exp(-pi*1e308*t^2)*exp(-pi*1e308*t^2)", 20, "Gaussian scale"),
], ids=["nan-constant", "sum", "quotient", "scale-product"])
def test_non_finite_parse_results_exit_1_at_the_operation(phi, offset, what, capsys):
    code, out, err = run(["verify", "--k", "7", "--phi", phi, "--nmax", "50"], capsys)
    assert (code, out) == (1, "")
    assert err == f"parse error at byte {offset}: {what} is beyond the float range\n"


@pytest.mark.parametrize("argv,err_start", [
    (["verify", "--k", "3", "--phi", "t*exp(-pi*1e1000000*t^2)"],
     "parse error at byte 2: Gaussian scale is beyond the float range"),
    (["verify", "--k", "3", "--phi", "t*exp(-pi*1e-1000000*t^2)"],
     "parse error at byte 2: Gaussian scale is below the float range"),
    (["verify", "--k", "3", "--phi", "t*exp(-pi*t^2/1e1000000)"],
     "parse error at byte 2: Gaussian scale is below the float range"),
    (["verify-shifted", "--k", "3", "--eta", "1e-5000,1/2,0", "--xi", "0,1/3,0",
      "--phi", "t*exp(-pi*t^2)"], "error: bad vector '1e-5000,1/2,0': "),
    (["verify-shifted", "--k", "3", "--eta", "1/2,0,0", "--xi", "0,1e1_0000,1/3",
      "--phi", "t*exp(-pi*t^2)"], "error: bad vector '0,1e1_0000,1/3': "),
], ids=["scale-big", "scale-small", "scale-divisor", "eta", "xi-underscores"])
def test_huge_exponents_are_refused_at_once(argv, err_start, capsys):
    # Fraction would build 10^|exponent| first; past Python's int(str) digit
    # limit (4300) the literal is refused before it does
    start = time.perf_counter()
    code, out, err = run(argv, capsys)
    elapsed = time.perf_counter() - start
    assert (code, out) == (1, "")
    assert err.startswith(err_start) and err.count("\n") == 1
    assert elapsed < 0.05


def test_exponents_up_to_the_digit_limit_are_read():
    assert _parse_vector("1e-4300, 1e4_300,1E+04300") == (
        Fraction(1, 10 ** 4300), Fraction(10 ** 4300), Fraction(10 ** 4300))


@pytest.mark.parametrize("phi,offset", [
    ("t^2000000*exp(-pi*t^2)", 2),
    ("t^2000*t^2000*exp(-pi*t^2)", 2),
    ("t^" + "9" * 5000 + "*exp(-pi*t^2)", 2),
    ("t^600*t^401*exp(-pi*t^2)", 5),
], ids=["power", "product-of-powers", "5000-digit-power", "product"])
def test_polynomial_degree_past_the_limit_is_refused_at_once(phi, offset, capsys):
    # the exponent is checked by its digit count before int() and a product's
    # degree before any coefficient list is built
    start = time.perf_counter()
    code, out, err = run(["verify", "--k", "3", "--phi", phi], capsys)
    elapsed = time.perf_counter() - start
    assert (code, out) == (1, "")
    assert err == f"parse error at byte {offset}: polynomial degree is beyond the limit (1000)\n"
    assert elapsed < 0.05
