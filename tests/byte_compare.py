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
