"""Digest of the command line's output on fixed benchmark jobs and front-end lines.

    python3 tests/byte_compare.py OUT.json [--seeds 1,2,3] [--lists 0,1]

Run it in each of two checkouts and ``diff`` the two files: a change that
keeps every output byte leaves them identical.  The script imports
``guinand`` from the ``src/`` of the checkout it lives in and the job lists
from that checkout's ``perfbench/workloads.py`` (read only), runs every job
of the given lists of both workloads through ``guinand.cli.main`` in this
one process, and writes one sha256 per job over its exit status, stdout and
stderr.  An exception that escapes ``main`` is recorded by its type and
message, not its traceback, so file paths never enter a digest.

The front-end command lines of ``golden/frontend.json`` (help, usage and
argparse errors) are digested too, under ``frontend/<name>`` keys, with
``COLUMNS=80`` so that argparse wraps help text the same way on any terminal,
and so is ``coeffs --k K --format F`` for every odd K from 3 to 61 and each
format, under ``coeffs/k<K>/<F>`` keys (no benchmark job runs ``coeffs``).
The fixed lines of ``EDGE_CASES`` go in under ``edge/<name>`` keys: they
reach the signs of zero and the overflows that the benchmark's test
functions, all with positive real coefficients, never produce, the
quadrature cutoffs of such overflows, the Bessel-polynomial route of
``sphere-ft`` at large k, the paths of the coefficient algebra (colliding
scales, longer right operands, division by i, nested minus, /pi scales) that
no benchmark test function takes, the quadrature at t = 0 and at an
underflowing t, the refusals of k past the float range, of parse results
beyond it, of decimal exponents past Python's digit limit and of polynomial
degrees past the parser's, and ``verify`` tails of wide Gaussians up to the
band cap of their certificate.
To compare with a checkout that lacks this script or that file, copy both in.

The file is not collected by pytest (its name does not start with test_).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402
from guinand import cli  # noqa: E402

_G = "exp(-pi*t^2)"
_H = "exp(-pi*2/3*t^2)"
# name -> argv; phi with imaginary, mixed, negative and -0.0 coefficients
# (the parser turns -i into -0.0 - 1i), sums that overflow, every output path
EDGE_CASES = {
    "verify-imaginary": ["verify", "--k", "3", "--phi", f"i*t*{_G}", "--nmax", "200"],
    "verify-minus-imaginary": ["verify", "--k", "7", "--phi", f"-i*t^3*{_H}", "--nmax", "300"],
    "verify-mixed": ["verify", "--k", "7", "--phi", f"(1+i)*t*{_G}", "--nmax", "200"],
    "verify-negative": ["verify", "--k", "5", "--phi", f"-2*t*{_H} - t^3*{_H}", "--nmax", "300"],
    "verify-two-gaussians": ["verify", "--k", "9", "--phi", f"t*{_G} + i*t^3*exp(-pi*2*t^2)",
                             "--nmax", "300"],
    "verify-overflow": ["verify", "--k", "7", "--phi", f"1e300*t^5*{_G}", "--nmax", "2100"],
    "verify-overflow-k5": ["verify", "--k", "5", "--phi", f"1e300*t^5*{_G}", "--nmax", "2100"],
    "duality-k9": ["duality", "--k", "9", "--phi", f"t*{_H}", "--nmax", "200"],
    "duality-k15": ["duality", "--k", "15", "--phi", f"-t^3*{_G}", "--nmax", "120"],
    "duality-mixed": ["duality", "--k", "5", "--phi", f"(1+i)*t*{_G} - i*t^3*{_H}",
                      "--nmax", "200"],
    "duality-overflow": ["duality", "--k", "7", "--phi", f"1e300*t^5*{_G}", "--nmax", "2100"],
    "verify-csv-k3": ["verify", "--k", "3", "--phi", f"t*{_G}", "--nmax", "150",
                      "--format", "csv"],
    "verify-csv-k13": ["verify", "--k", "13", "--phi", f"-t*{_H} + 2*t^3*{_G}",
                       "--nmax", "150", "--format", "csv"],
    "verify-csv-imaginary": ["verify", "--k", "5", "--phi", f"-i*t*{_G}", "--nmax", "150",
                             "--format", "csv"],
    "verify-csv-mixed": ["verify", "--k", "7", "--phi", f"(1-i)*t*{_G} + i*t^3*{_H}",
                         "--nmax", "150", "--format", "csv"],
    "verify-csv-overflow": ["verify", "--k", "7", "--phi", f"1e300*t^5*{_G}", "--nmax", "2100",
                            "--format", "csv"],
    "verify-shifted-negative": ["verify-shifted", "--k", "3", "--eta", "1/2,0,1/3",
                                "--xi", "0,1/4,0", "--phi", f"-3*t*{_G}",
                                "--r-time", "5", "--r-freq", "5"],
    "verify-shifted-mixed": ["verify-shifted", "--k", "5", "--eta", "1/3,0,0,0,1/2",
                             "--xi", "1/2,0,0,0,0", "--phi", f"(2-i)*t*{_G}",
                             "--r-time", "3", "--r-freq", "3"],
    # quadrature cutoffs whose tail bound is not finite: 1e308 R^2 overflows,
    # and 1e308*10 - 1e308*10 is a NaN coefficient
    "radial-ft-quadrature-overflow": ["radial-ft", "--k", "3", "--f", "1e308*exp(-pi*t^2/1000)",
                                      "--t", "1", "--methods", "quadrature"],
    "radial-ft-quadrature-nan": ["radial-ft", "--k", "3", "--f", f"(1e308*10-1e308*10)*{_G}",
                                 "--t", "1", "--methods", "quadrature"],
    # the Bessel-polynomial route at large k (theta_n has n + 1 coefficients)
    "sphere-ft-besselpoly-k61": ["sphere-ft", "--k", "61", "--t-grid", "0.1:12:0.7",
                                 "--methods", "besselpoly,recurrence", "--format", "csv"],
    "sphere-ft-besselpoly-k201": ["sphere-ft", "--k", "201", "--t-grid", "0.25:3:0.25",
                                  "--methods", "besselpoly"],
    "sphere-ft-besselpoly-k5001": ["sphere-ft", "--k", "5001", "--t", "0.001",
                                   "--methods", "besselpoly"],
    # the coefficient algebra where no benchmark phi goes: products whose
    # scales collide (1 + 2 = 2 + 1), a difference whose right operand is the
    # longer one and ends in i, division by i, nested unary minus, /pi scales
    "verify-colliding-product": ["verify", "--k", "5", "--phi",
                                 f"(t*{_G} + t^3*exp(-pi*2*t^2))*(exp(-pi*2*t^2) - 2*{_G})",
                                 "--nmax", "300"],
    "radial-ft-colliding-product": ["radial-ft", "--k", "7", "--f",
                                    f"({_G} + t^2*exp(-pi*2*t^2))*(exp(-pi*2*t^2) + i*{_G})",
                                    "--t-grid", "0.1:3:0.3"],
    "verify-longer-imaginary-difference": ["verify", "--k", "7", "--phi",
                                           f"t*{_G} - (t^3 - 2*t + i*t^5)*{_G}",
                                           "--nmax", "300"],
    "verify-divided-by-i": ["verify", "--k", "3", "--phi", f"t*{_G}/i + t^3*{_H}/(2*i)",
                            "--nmax", "200"],
    "duality-nested-minus": ["duality", "--k", "5", "--phi", f"-(-(-t))*{_G} - -t^3*{_H}",
                             "--nmax", "200"],
    "verify-scale-over-pi": ["verify", "--k", "5", "--phi",
                             "t*exp(-t^2/pi) + t^3*exp(-pi*t^2/pi)", "--nmax", "300"],
    "radial-ft-scale-over-pi": ["radial-ft", "--k", "5", "--f",
                                "exp(-t^2/pi) - -t^2*exp(-2*t^2/pi)", "--t", "0.7"],
    # the quadrature's sphere profile: the area at t = 0, Miller's range of
    # the Bessel route at k = 21, and an r t that underflows to 0
    "radial-ft-quadrature-k21-grid": ["radial-ft", "--k", "21", "--f", f"(1 + t^2)*{_G}",
                                      "--t-grid", "0:3:0.5", "--methods", "closed,quadrature"],
    "radial-ft-quadrature-t-underflow": ["radial-ft", "--k", "7", "--f", _G, "--t", "5e-324",
                                         "--methods", "quadrature"],
    # k past the float range of beta_jk, of r_k(n) beta_jk and of the cutoff
    "coeffs-k441-float": ["coeffs", "--k", "441", "--format", "float"],
    "verify-k441": ["verify", "--k", "441", "--phi", f"t*{_G}", "--nmax", "10"],
    "duality-k439": ["duality", "--k", "439", "--phi", f"t*{_G}", "--nmax", "10"],
    "radial-ft-k441": ["radial-ft", "--k", "441", "--f", _G, "--t", "1"],
    "radial-ft-quadrature-k341": ["radial-ft", "--k", "341", "--f", _G, "--t", "1",
                                  "--methods", "quadrature"],
    # parse results beyond the float range, and exponents past the digit limit
    "verify-nan-constant": ["verify", "--k", "7", "--phi",
                            f"(1e308*10-1e308*10)*t*{_G}", "--nmax", "50"],
    "verify-scale-product-overflow": ["verify", "--k", "3", "--phi",
                                      "t*exp(-pi*1e308*t^2)*exp(-pi*1e308*t^2)"],
    "verify-huge-scale-exponent": ["verify", "--k", "3", "--phi", "t*exp(-pi*1e-5000*t^2)"],
    "verify-shifted-huge-exponent": ["verify-shifted", "--k", "3", "--eta", "1e-5000,1/2,0",
                                     "--xi", "0,1/3,0", "--phi", f"t*{_G}"],
    # tails of wide Gaussians: certified only by radius bands, certified, and
    # past the band cap
    "verify-tail-wide-k3": ["verify", "--k", "3", "--phi", "t*exp(-pi*t^2/1000000)",
                            "--nmax", "400"],
    "verify-tail-k11": ["verify", "--k", "11", "--phi", "t*exp(-pi*t^2/100)", "--nmax", "1000"],
    "verify-tail-cap": ["verify", "--k", "3", "--phi", "t*exp(-pi*t^2/100000000000)",
                        "--nmax", "400"],
    # polynomial degrees past the parser's limit, and one pi power shared by all beta_jk
    "verify-degree-power": ["verify", "--k", "3", "--phi", f"t^2000000*{_G}"],
    "verify-degree-product": ["verify", "--k", "3", "--phi", f"t^600*t^401*{_G}"],
    "verify-degree-digits": ["verify", "--k", "3", "--phi", "t^" + "9" * 5000 + f"*{_G}"],
    "duality-k401": ["duality", "--k", "401", "--phi", f"t*{_G}", "--nmax", "10"],
}


def run_job(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = cli.main(argv)
        except SystemExit as exc:
            status = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a real CLI call would end with status 1
            print(f"uncaught {type(exc).__name__}: {exc}", file=sys.stderr)
            status = 1
    return status, out.getvalue(), err.getvalue()


def digest(status: int, stdout: str, stderr: str) -> str:
    h = hashlib.sha256()
    for part in (str(status), stdout, stderr):
        data = part.encode()
        h.update(len(data).to_bytes(8, "big"))
        h.update(data)
    return h.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("output", help="JSON file to write")
    parser.add_argument("--seeds", default="1,2,3")
    parser.add_argument("--lists", default="0,1")
    args = parser.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    lists = [int(b) for b in args.lists.split(",")]
    os.environ["COLUMNS"] = "80"
    frontend = json.loads((ROOT / "tests" / "golden" / "frontend.json").read_text("utf-8"))
    jobs = {f"frontend/{name}": {"argv": case["argv"], "sha256": digest(*run_job(case["argv"]))}
            for name, case in frontend.items()}
    for k in range(3, 62, 2):
        for fmt in ("exact", "float", "json"):
            argv = ["coeffs", "--k", str(k), "--format", fmt]
            jobs[f"coeffs/k{k}/{fmt}"] = {"argv": argv, "sha256": digest(*run_job(argv))}
    for name, argv in EDGE_CASES.items():
        jobs[f"edge/{name}"] = {"argv": argv, "sha256": digest(*run_job(argv))}
    for workload in workloads.WORKLOADS:
        for seed in seeds:
            for index in lists:
                for j, (family, argv) in enumerate(workloads.job_list(workload, seed, index)):
                    key = f"{workload}/seed{seed}/list{index}/job{j:03d}"
                    jobs[key] = {"family": family, "argv": argv,
                                 "sha256": digest(*run_job(argv))}
    Path(args.output).write_text(json.dumps(jobs, indent=1, sort_keys=True) + "\n")
    print(f"{len(jobs)} command lines digested into {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
