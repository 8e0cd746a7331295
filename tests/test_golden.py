"""Byte-for-byte snapshots of the command line's stdout and exit status.

Each case in ``CASES`` has a file ``golden/<name>.out`` holding the stdout
that ``main(argv)`` printed when the snapshot was taken; the test fails on
any byte of difference.  Regenerate files (only after an intended output
change, and say so in CHANGES.md) with

    PYTHONPATH=src python tests/test_golden.py --regen [NAME ...]

which rewrites the named cases (all of them when none is named) and prints
the path of each file whose bytes changed.  Before regenerating, diff the old
and new stdout and check that only the fields the change meant to move did.
"""

import contextlib
import io
import pathlib
import sys

import pytest

from guinand.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"

PHI = "t*exp(-pi*t^2/2)"
PHI3 = "t^3*exp(-pi*t^2)"
PHI_MIX = "(t^5-t)*exp(-pi*2*t^2) + t*exp(-pi*t^2/3)"

# name -> (argv, exit status)
CASES = {
    "verify_k3_json": (["verify", "--k", "3", "--phi", PHI, "--nmax", "200"], 0),
    "verify_k3_csv": (["verify", "--k", "3", "--phi", PHI3, "--nmax", "60",
                       "--format", "csv"], 0),
    "verify_k5_json": (["verify", "--k", "5", "--phi", PHI_MIX, "--nmax", "300"], 0),
    "verify_k5_csv": (["verify", "--k", "5", "--phi", PHI, "--nmax", "80",
                       "--format", "csv"], 0),
    "verify_k7_json": (["verify", "--k", "7", "--phi", PHI3, "--nmax", "400"], 0),
    "verify_k7_csv": (["verify", "--k", "7", "--phi", PHI_MIX, "--nmax", "50",
                       "--format", "csv"], 0),
    "verify_k11_json": (["verify", "--k", "11", "--phi", PHI, "--nmax", "400"], 0),
    "verify_k11_csv": (["verify", "--k", "11", "--phi", PHI3, "--nmax", "40",
                        "--format", "csv"], 0),
    "verify_k9_fail_json": (["verify", "--k", "9", "--phi", "t*exp(-pi*t^2/30)",
                             "--nmax", "30"], 2),
    "verify_even_input_json": (["verify", "--k", "5", "--phi", "(1+t)*exp(-pi*t^2)",
                                "--nmax", "100"], 0),
    "duality_k5": (["duality", "--k", "5", "--phi", PHI_MIX, "--nmax", "300"], 0),
    "duality_k9": (["duality", "--k", "9", "--phi", PHI3, "--nmax", "200"], 0),
    "verify_shifted_k3": (["verify-shifted", "--k", "3", "--eta", "1/3,0,1/2",
                           "--xi", "1/4,1/2,0", "--phi", PHI, "--r-time", "4",
                           "--r-freq", "4"], 0),
    "verify_shifted_k5": (["verify-shifted", "--k", "5", "--eta", "1/2,0,0,1/3,0",
                           "--xi", "0,1/4,0,0,1/5", "--phi", "t*exp(-pi*t^2)",
                           "--r-time", "3", "--r-freq", "3.5"], 0),
    "verify_shifted_k3_mixed": (["verify-shifted", "--k", "3", "--eta", "2/3,-4/5,5/6",
                                 "--xi", "1/5,1/2,-2/3", "--phi",
                                 "(t+0.5*t^3)*exp(-pi*t^2)", "--r-time", "5",
                                 "--r-freq", "5"], 0),
    "radial_ft_methods": (["radial-ft", "--k", "5", "--f", "t^2*exp(-pi*t^2/2)",
                           "--t", "0.7", "--methods", "closed,quadrature,zero"], 0),
    "radial_ft_grid_csv": (["radial-ft", "--k", "9", "--f", "(t^4-t^2)*exp(-pi*t^2)",
                            "--t-grid", "0:1.5:0.25", "--methods", "closed,zero",
                            "--format", "csv"], 0),
    "sphere_ft_grid": (["sphere-ft", "--k", "7", "--t-grid", "0.05:2.5:0.35"], 0),
    "sphere_ft_csv": (["sphere-ft", "--k", "11", "--t", "0.3",
                       "--methods", "closed,besselpoly", "--format", "csv"], 0),
    "rk_json": (["rk", "--k", "4", "--nmax", "40"], 0),
    "rk_csv": (["rk", "--k", "7", "--nmax", "25", "--format", "csv"], 0),
    "coeffs_exact": (["coeffs", "--k", "11"], 0),
    "coeffs_float": (["coeffs", "--k", "9", "--format", "float"], 0),
    "coeffs_json": (["coeffs", "--k", "7", "--format", "json"], 0),
}


def _run(argv) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_snapshot(name):
    argv, want_code = CASES[name]
    code, out = _run(argv)
    assert code == want_code
    assert out == (GOLDEN / f"{name}.out").read_text(encoding="utf-8")


if __name__ == "__main__" and sys.argv[1:2] == ["--regen"]:
    names = sys.argv[2:] or sorted(CASES)
    unknown = [name for name in names if name not in CASES]
    if unknown:
        sys.exit(f"unknown case(s): {' '.join(unknown)}")
    outputs = {}
    for name in names:
        argv, want_code = CASES[name]
        code, outputs[name] = _run(argv)
        if code != want_code:
            sys.exit(f"{name}: exit status {code}, expected {want_code}")
    GOLDEN.mkdir(exist_ok=True)
    for name, out in outputs.items():
        path = GOLDEN / f"{name}.out"
        if not path.exists() or path.read_text(encoding="utf-8") != out:
            path.write_text(out, encoding="utf-8")
            print(path)
