"""Per-layer tracing from outside the package.

``Tracer.install`` replaces public functions and methods of ``guinand`` with
timing wrappers.  A function is patched at every module-level binding of it
(``guinand.sumsq.rk_table`` and ``guinand.formulas.rk_table`` alike), so calls
between modules are timed too.  Private helpers are never wrapped: their time
counts as self time of the nearest wrapped caller, and refactors that fold
or rename them cannot break the harness.  Names missing from the package are
skipped.

Every wrapped call pushes a frame; on return its duration minus the time of
the wrapped calls inside it (its self time) is added to its layer.  Coarse
calls are also kept as spans (id, name, start, end, parent id, job id) and
written out when the run ends.  Hot per-node calls keep no span, only their
layer's call count and self time, and ``CompensatedSum.add`` only a count.
"""

from __future__ import annotations

import collections
import importlib
import inspect
import json
import time

SPAN, TIMED, COUNT = "span", "timed", "count"

# (module, public name, layer, kind); "Class.method" patches the class.
WRAPPED = (
    ("cli", "main", "cli.main", SPAN),
    ("sumsq", "rk_table", "sumsq.rk_table", SPAN),
    ("sumsq", "r1_row", "sumsq.rk_table", TIMED),
    ("coeffs", "alpha", "coeffs", TIMED),
    ("coeffs", "beta", "coeffs", TIMED),
    ("coeffs", "betas", "coeffs", TIMED),
    ("coeffs", "bessel_poly", "coeffs", TIMED),
    ("coeffs", "ScaledRational.to_float", "coeffs", TIMED),
    ("schwartz", "parse", "schwartz.algebra", SPAN),
    ("schwartz", "GaussPoly.derivative", "schwartz.algebra", TIMED),
    ("schwartz", "GaussPoly.fourier", "schwartz.algebra", TIMED),
    ("schwartz", "GaussPoly.eval", "schwartz.eval", TIMED),
    ("util", "CompensatedSum.add", "util.sum", COUNT),
    ("atoms", "sigma_k", "atoms.build", SPAN),
    ("atoms", "sigma_k_hat", "atoms.build", SPAN),
    ("atoms", "project_measure", "atoms.build", SPAN),
    ("atoms", "project_ft", "atoms.build", SPAN),
    ("atoms", "make_comb", "atoms.make_comb", SPAN),
    ("atoms", "pair", "atoms.pair", SPAN),
    ("formulas", "lhs_general", "formulas.sum", SPAN),
    ("formulas", "rhs_general", "formulas.sum", SPAN),
    ("formulas", "shell_table", "formulas.sum", SPAN),
    ("formulas", "verify", "formulas.verify", SPAN),
    ("formulas", "tail_bound", "formulas.verify", SPAN),
    ("formulas", "verify_shifted", "formulas.verify_shifted", SPAN),
    ("radial", "radial_ft_closed", "radial.closed", TIMED),
    ("radial", "radial_ft_zero", "radial.closed", TIMED),
    ("radial", "radial_ft_quadrature", "radial.quadrature", SPAN),
    ("radial", "grid_rows", "radial.sphere", SPAN),
    ("radial", "sphere_ft_value", "radial.sphere", TIMED),
    ("radial", "sphere_ft_closed", "radial.sphere", TIMED),
    ("radial", "sphere_ft_bessel", "radial.sphere", TIMED),
    ("radial", "sphere_ft_recurrence", "radial.sphere", TIMED),
    ("radial", "sphere_ft_besselpoly", "radial.sphere", TIMED),
)

LAYERS = ("cli.main", "sumsq.rk_table", "coeffs", "schwartz.eval",
          "schwartz.algebra", "atoms.build", "atoms.make_comb", "atoms.pair",
          "formulas.sum", "formulas.verify", "formulas.verify_shifted",
          "radial.closed", "radial.sphere", "radial.quadrature")
UNATTRIBUTED = "unattributed"


class Tracer:
    """Installs the wrappers and accumulates per-layer totals for one run."""

    def __init__(self) -> None:
        self.self_s = collections.Counter()
        self.calls = collections.Counter()        # by layer
        self.fn_calls = collections.Counter()     # by public name
        self.evals_in = collections.Counter()     # GaussPoly.eval by caller layer
        self.spans: list[tuple] = []
        self.rk_keys: list[tuple] = []            # (job, k, max_n) per rk_table call
        self.atoms_built = 0
        self.output_bytes = 0
        self.job_s = 0.0
        self.family_self_s: dict = collections.defaultdict(collections.Counter)
        self._stack: list[list] = []
        self._next_id = 0
        self._job = -1
        self._family = ""
        self._before: dict = {}
        self._saved: list[tuple] = []

    # ---- installation ----------------------------------------------------

    def install(self) -> None:
        import guinand
        modules = [guinand] + [importlib.import_module(f"guinand.{m}")
                               for m in ("cli", "sumsq", "coeffs", "schwartz", "util",
                                         "atoms", "formulas", "radial")]
        for mod_name, name, layer, kind in WRAPPED:
            home = importlib.import_module(f"guinand.{mod_name}")
            if "." in name:
                cls_name, meth = name.split(".")
                cls = getattr(home, cls_name, None)
                if cls is None or meth not in vars(cls):
                    continue
                self._patch(cls, meth, self._wrap(vars(cls)[meth], name, layer, kind))
                continue
            fn = getattr(home, name, None)
            if fn is None:
                continue
            wrapped = self._wrap(fn, name, layer, kind)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._patch(mod, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _patch(self, owner, attr, wrapped) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapped)

    def _wrap(self, fn, name: str, layer: str, kind: str):
        if kind == COUNT:
            calls = self.calls

            def counted(*args, **kwargs):
                calls[layer] += 1
                return fn(*args, **kwargs)
            return counted

        stack, self_s, calls, fn_calls = self._stack, self.self_s, self.calls, self.fn_calls
        clock = time.perf_counter
        record = kind == SPAN
        is_rk, is_comb, is_eval = (name == "rk_table", name == "make_comb",
                                   name == "GaussPoly.eval")
        bind = inspect.signature(fn).bind if is_rk else None

        def wrapped(*args, **kwargs):
            parent = stack[-1]
            if is_eval:
                self.evals_in[parent[1]] += 1
            elif is_rk:
                k, max_n = bind(*args, **kwargs).args[:2]
                self.rk_keys.append((self._job, k, max_n))
            frame = [0.0, layer, self._next_id]
            self._next_id += 1
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                self_s[layer] += dur - frame[0]
                parent[0] += dur
                calls[layer] += 1
                fn_calls[name] += 1
                if record:
                    self.spans.append((frame[2], name, t0, t1, parent[2], self._job))
            if is_comb:
                self.atoms_built += len(result.atoms)
            return result
        return wrapped

    # ---- per-job bracketing ----------------------------------------------

    def begin_job(self, job: int, family: str) -> None:
        self._job, self._family = job, family
        self._before = dict(self.self_s)
        self._stack.append([0.0, UNATTRIBUTED, -1])

    def end_job(self, dur: float, output_bytes: int) -> None:
        frame = self._stack.pop()
        self.self_s[UNATTRIBUTED] += dur - frame[0]
        self.job_s += dur
        self.output_bytes += output_bytes
        by_layer = self.family_self_s[self._family]
        for layer, total in self.self_s.items():
            by_layer[layer] += total - self._before.get(layer, 0.0)

    # ---- results -----------------------------------------------------------

    def rk_shares(self) -> tuple[float, float, float]:
        """Shares of rk_table calls that a table cache could have served.

        distinct_share: distinct (k, max_n) within each job over all calls,
        the useful share if each request built each of its tables once.
        repeat_share: calls whose (k, max_n) was requested earlier in the run.
        cross_job_share: of the distinct (job, k, max_n), those whose table an
        earlier job requested, the extra gain of a cache shared across calls.
        All are 0 when no table is requested.
        """
        if not self.rk_keys:
            return 0.0, 0.0, 0.0
        seen, repeats = set(), 0
        for _, k, n in self.rk_keys:
            repeats += (k, n) in seen
            seen.add((k, n))
        per_job = list(dict.fromkeys(self.rk_keys))
        first_job = {}
        for job, k, n in per_job:
            first_job.setdefault((k, n), job)
        cross = sum(first_job[k, n] != job for job, k, n in per_job)
        total = len(self.rk_keys)
        return len(per_job) / total, repeats / total, cross / len(per_job)

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, t0, t1, parent, job in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name, "start": t0, "end": t1,
                                     "parent": parent, "job": job}) + "\n")
