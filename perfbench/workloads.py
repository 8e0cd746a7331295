"""Seeded job lists for the benchmark workloads.

A run executes job lists 0, 1, 2, ... back to back.  List ``b`` of a workload
is ``job_list(workload, seed, b)``: a pure function of its arguments that
returns ``(family, argv)`` pairs and never calls the package.

A workload mixes job families, each a fixed set of ``guinand`` command lines
aimed at one group of layers:

    verify_deep      verify at k = 5..21 with wide phi and N = 1000..1320;
                     sumsq.rk_table dominates, and jobs share few tables
    verify_sweep     many small verify, verify --format csv and duality jobs
                     at k in {3, 5, 7}, N in {200, 400, 800}; per-node eval,
                     compensated sums, combs and CSV, with 9 tables recurring
    shifted_lattice  verify-shifted at k = 3 (R = 5..9) and k = 5 (R = 4);
                     exact Fraction lattice enumeration, no r_k table
    radial_grid      radial-ft on long t-grids at k = 3..11, radial-ft with
                     closed, quadrature and zero routes, sphere-ft grids;
                     radial, coeffs and GaussPoly algebra, no table or lattice

``verify_rk`` holds the two families that build r_k tables and
``lattice_radial`` the two that build none, so each layer change has a
workload that exercises it and one that bypasses it.  Families are repeated
so that each holds a comparable share of its workload's time.

Every list has the same cost structure: which subcommands, dimensions and
truncation levels appear, and how often.  The seed draws everything else:
the test functions, a small jitter on each truncation, the shift vectors, the
t-grids and the output formats where they cost the same.  Runs with
different seeds therefore time different inputs of equal size, so their
timings agree closely while no two lists repeat an input.
"""

from __future__ import annotations

import random
from fractions import Fraction

HALF = Fraction(1, 2)

WHY = {
    "verify_rk":
        "verify_deep (rk_table most of each job, few shared tables) and "
        "verify_sweep (eval, sums, combs, CSV; 9 tables recur): shows table "
        "algorithms, dedupe, caches and the shell-sum kernel.",
    "lattice_radial":
        "shifted_lattice (exact Fraction lattice enumeration) and radial_grid "
        "(radial, coeffs, GaussPoly algebra); no r_k table: shows shell keys "
        "and the radial operator; bypasses sumsq.",
}

# copies of each family per job list
WORKLOADS = {
    "verify_rk": {"verify_deep": 1, "verify_sweep": 2},
    "lattice_radial": {"shifted_lattice": 1, "radial_grid": 5},
}

# verify_deep: one verify job per odd k; N grows with k, so that the certified
# tails of the widest phi (scale 1/40) stay far below tol at every k.
DEEP_K = tuple(range(5, 22, 2))
DEEP_CSV_K = (9, 15)
DEEP_SCALES = ("1/10", "1/20", "1/40")

# verify_sweep: every (subcommand, k, N) cell once per list.
SWEEP_KINDS = ("verify", "verify-csv", "duality")
SWEEP_K = (3, 5, 7)
SWEEP_N = (200, 400, 800)
SWEEP_SCALES = ("1/2", "2/3", "1", "3/2", "2")

# shifted_lattice: k=3 at each radius level with both Gaussian scales, plus
# one k=5 job.
SHIFT_K3_R = (5, 6, 7, 8, 9)
SHIFT_K5_R = 4

# radial_grid
RADIAL_GRID_K = (3, 5, 7, 9, 11)
RADIAL_POINT_K = (3, 5, 7)
RADIAL_POINT_T = (0.5, 1.5, 2.5)
SPHERE_GRID_K = (5, 7, 9, 11)
RADIAL_SCALES = ("1/2", "1", "2")


def _coef(rng: random.Random) -> str:
    return f"{rng.randint(10, 100) / 100:.2f}"


def _odd_poly(rng: random.Random, max_degree: int) -> str:
    # positive coefficients keep phi > 0 on t > 0, so the node sums never
    # cancel and a relative residual is meaningful
    terms = []
    for m in range(1, max_degree + 1, 2):
        c = _coef(rng)
        terms.append(f"{c}*t" if m == 1 else f"{c}*t^{m}")
    return "+".join(terms)


def _even_poly(rng: random.Random, max_degree: int) -> str:
    terms = [_coef(rng)]
    for m in range(2, max_degree + 1, 2):
        terms.append(f"{_coef(rng)}*t^{m}")
    return "+".join(terms)


def _gauss_sum(polys_and_scales) -> str:
    return "+".join(f"({poly})*exp(-pi*{a}*t^2)" for poly, a in polys_and_scales)


def _odd_phi(rng: random.Random, scales, n_gauss: int) -> str:
    chosen = rng.sample(scales, n_gauss)
    return _gauss_sum((_odd_poly(rng, rng.choice((1, 3, 5, 7))), a) for a in chosen)


def _even_f(rng: random.Random) -> str:
    chosen = rng.sample(RADIAL_SCALES, rng.randint(1, 2))
    return _gauss_sum((_even_poly(rng, rng.choice((0, 2, 4))), a) for a in chosen)


def _jitter(rng: random.Random, value: float, share: float) -> float:
    return value * (1.0 + rng.uniform(-share, share))


def _shift_vector(rng: random.Random, k: int, avoid_half=()) -> list[Fraction]:
    # rational components with denominators 2..6; at least one non-integer.
    # A coordinate where eta and xi are both 1/2 mod 1 makes both sides of
    # the identity vanish identically (m_i -> -1 - m_i flips every phase), so
    # the relative residual would measure roundoff only: xi avoids 1/2 there.
    while True:
        parts = []
        for i in range(k):
            if i == 0 or rng.random() < 0.5:
                q = rng.randint(2, 6)
                parts.append(Fraction(rng.randint(1, q - 1), q))
            else:
                parts.append(Fraction(0))
        rng.shuffle(parts)
        if not any(x == HALF and avoid_half[i] == HALF
                   for i, x in enumerate(parts) if i < len(avoid_half)):
            return parts


def _verify_deep(rng: random.Random) -> list[list[str]]:
    jobs = []
    for k in DEEP_K:
        n = round(_jitter(rng, 1000 + 20 * (k - 5), 0.01))
        phi = _odd_phi(rng, DEEP_SCALES, 1)
        argv = ["verify", "--k", str(k), "--phi", phi, "--nmax", str(n)]
        if k in DEEP_CSV_K:
            argv += ["--format", "csv"]
        jobs.append(argv)
    k = rng.choice((11, 13, 15))
    jobs.append(["rk", "--k", str(k), "--nmax", str(rng.randint(1000, 1400)),
                 "--format", rng.choice(("json", "csv"))])
    return jobs


def _verify_sweep(rng: random.Random) -> list[list[str]]:
    jobs = []
    for i, kind in enumerate(SWEEP_KINDS):
        for j, k in enumerate(SWEEP_K):
            for m, n in enumerate(SWEEP_N):
                # a Latin square over (kind, k, N) balances 1-3 Gaussians
                phi = _odd_phi(rng, SWEEP_SCALES, 1 + (i + j + m) % 3)
                sub = "duality" if kind == "duality" else "verify"
                argv = [sub, "--k", str(k), "--phi", phi, "--nmax", str(n)]
                if kind == "verify-csv":
                    argv += ["--format", "csv"]
                jobs.append(argv)
    return jobs


def _shifted(rng: random.Random, k: int, r: float, a: str) -> list[str]:
    phi = _gauss_sum([(_odd_poly(rng, rng.choice((1, 3))), a)])
    radius = f"{_jitter(rng, r, 0.005):.3f}"
    eta = _shift_vector(rng, k)
    xi = _shift_vector(rng, k, eta)
    return ["verify-shifted", "--k", str(k), "--eta", ",".join(map(str, eta)),
            "--xi", ",".join(map(str, xi)), "--phi", phi,
            "--r-time", radius, "--r-freq", radius]


def _shifted_lattice(rng: random.Random) -> list[list[str]]:
    jobs = [_shifted(rng, 3, r, a) for r in SHIFT_K3_R for a in ("1", "2")]
    jobs.append(_shifted(rng, 5, SHIFT_K5_R, "1"))
    return jobs


def _radial_grid(rng: random.Random) -> list[list[str]]:
    jobs = []
    for k in RADIAL_GRID_K:
        start = round(rng.uniform(0.1, 0.2), 3)
        jobs.append(["radial-ft", "--k", str(k), "--f", _even_f(rng),
                     "--t-grid", f"{start}:{start + 4.975:.3f}:0.025",
                     "--format", rng.choice(("json", "csv"))])
    for k, t in zip(RADIAL_POINT_K, RADIAL_POINT_T):
        jobs.append(["radial-ft", "--k", str(k), "--f", _even_f(rng),
                     "--t", f"{t + rng.uniform(0.0, 0.5):.3f}",
                     "--methods", "closed,quadrature,zero"])
    for k in SPHERE_GRID_K:
        start = round(rng.uniform(0.1, 0.2), 3)
        jobs.append(["sphere-ft", "--k", str(k),
                     "--t-grid", f"{start}:{start + 19.9:.3f}:0.1",
                     "--format", rng.choice(("json", "csv"))])
    # the default method list includes the recurrence route, which needs
    # k >= 5, so this job exits 1 today; it stays in as a counted failure
    jobs.append(["sphere-ft", "--k", "3", "--t", "1"])
    return jobs


FAMILIES = {
    "verify_deep": _verify_deep,
    "verify_sweep": _verify_sweep,
    "shifted_lattice": _shifted_lattice,
    "radial_grid": _radial_grid,
}


def job_list(workload: str, seed: int, index: int) -> list[tuple[str, list[str]]]:
    """Job list ``index`` of a run of ``workload`` with ``seed``."""
    jobs = []
    for family, copies in WORKLOADS[workload].items():
        for copy in range(copies):
            rng = random.Random(f"{family}/{seed}/{index}/{copy}")
            jobs += [(family, argv) for argv in FAMILIES[family](rng)]
    random.Random(f"{workload}/{seed}/{index}").shuffle(jobs)
    return jobs
