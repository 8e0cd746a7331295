"""Command-line front end.

Subcommands: rk, coeffs, verify, verify-shifted, radial-ft, sphere-ft,
duality.  Reports are JSON (field names mirroring VerificationReport,
floats with 17 significant digits, complex values as [re, im] pairs) or CSV
plot data; identical argv produces byte-identical output.  Exit status: 0
when every checked residual is within tolerance, 2 on a residual failure,
1 on usage, parse, or work-cap errors; an --output path that cannot be
written is such an error ("error: cannot write PATH: reason").

Each call builds its own parser from the table ``_COMMANDS``, with the
options of one subcommand alone.  When the command line starts with a
known subcommand, that subcommand's parser alone parses the rest of the
line, exactly as under a parser that lists every subcommand.  Otherwise (a
top-level option first, no subcommand, an unknown one) the top-level parser
lists all seven, so help, usage and invalid-choice errors read as in full.

A --t-grid of more than DEFAULT_GRID_CAP = 10**6 points is refused before it
is built.  GUINAND_WORKCAP overrides this grid cap and the enumeration and
table caps.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from fractions import Fraction

from . import atoms, coeffs, formulas, radial, sumsq
from .errors import ParseError, QuadratureError, WorkCapExceeded
from .schwartz import _MAX_EXPONENT, GaussPoly, _huge_exponent, parse
from .util import modulus, rel_diff

DEFAULT_GRID_CAP = 10 ** 6  # points of a --t-grid


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1, not argparse's default 2
        raise _UsageError(message)


def _fmt_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"non-finite value {x} in report")
    return format(x, ".17g")


def _json_str(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _json_dict(obj: dict, prefixes: dict | None = None) -> str:
    """``prefixes`` maps a str key to its '"key": ' text; the dicts of one
    list share it, so the keys of a report's rows are quoted once per list.
    Other keys are written as str(key) and not stored: True equals 1 as a
    key but prints differently."""
    if prefixes is None:
        prefixes = {}
    parts = []
    for key, val in obj.items():
        prefix = prefixes.get(key)
        if prefix is None:
            prefix = _json_str(str(key)) + ": "
            if type(key) is str:
                prefixes[key] = prefix
        parts.append(prefix + _to_json(val))
    return "{" + ", ".join(parts) + "}"


def _json_list(obj) -> str:
    prefixes: dict = {}
    return "[" + ", ".join([_json_dict(v, prefixes) if type(v) is dict else _to_json(v)
                            for v in obj]) + "]"


# exact type -> writer; a report holds no subclasses of these
_JSON_WRITERS = {
    type(None): lambda obj: "null",
    bool: lambda obj: "true" if obj else "false",
    int: str,
    float: _fmt_float,
    complex: lambda z: f"[{_fmt_float(z.real)}, {_fmt_float(z.imag)}]",
    str: _json_str,
    dict: _json_dict,
    list: _json_list,
    tuple: _json_list,
}


def _to_json(obj) -> str:
    writer = _JSON_WRITERS.get(type(obj))
    if writer is None:
        raise TypeError(f"cannot serialize {type(obj)!r}")
    return writer(obj)


def _write(args, text: str) -> None:
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise _UsageError(f"cannot write {args.output}: {exc.strerror or exc}") from None
    else:
        sys.stdout.write(text)


def _write_csv(args, header, rows) -> None:
    # no field needs quoting: ints, _fmt_float texts and validated method names
    _write(args, "".join(",".join(map(str, row)) + "\n" for row in [header, *rows]))


def _parse_phi(expr: str) -> GaussPoly:
    phi = parse(expr).value
    if not phi.is_odd():
        print("notice: expression is not odd; replacing phi by its odd part "
              "phi(t) - phi(-t)", file=sys.stderr)
        phi = phi.odd_part()
    return phi


def _parse_vector(text: str) -> tuple:
    try:
        if any(map(_huge_exponent, text.split(","))):
            raise ValueError(f"decimal exponent beyond the limit ({_MAX_EXPONENT})")
        return tuple(Fraction(part.strip()) for part in text.split(","))
    except (ValueError, ZeroDivisionError) as exc:
        raise _UsageError(f"bad vector {text!r}: {exc}") from None


def _finite_float(text: str) -> float:
    """The type of every float option and of each part of --t-grid."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _parse_grid(args) -> list[float]:
    if args.t is not None and args.t_grid is not None:
        raise _UsageError("give either --t or --t-grid, not both")
    if args.t is not None:
        return [args.t]
    if args.t_grid is None:
        raise _UsageError("one of --t or --t-grid is required")
    try:
        a, b, step = (_finite_float(x) for x in args.t_grid.split(":"))
    except ValueError:  # not three parts
        raise _UsageError(f"bad --t-grid {args.t_grid!r}; expected a:b:step") from None
    except argparse.ArgumentTypeError as exc:
        raise _UsageError(f"bad --t-grid {args.t_grid!r}; expected a:b:step ({exc})") from None
    if step <= 0 or b < a:
        raise _UsageError("grid requires a <= b and step > 0")
    steps = (b - a) / step
    if not math.isfinite(steps):
        raise _UsageError(f"--t-grid {args.t_grid!r} has too many points")
    count = int(math.floor(steps + 1e-9)) + 1
    cap = _workcap("cap").get("cap", DEFAULT_GRID_CAP)
    if count > cap:  # refused from the count, before the grid is built
        raise WorkCapExceeded(f"--t-grid {args.t_grid!r} has {count} points, "
                              f"more than the cap {cap}")
    return [a + i * step for i in range(count)]


def _workcap(keyword: str) -> dict:
    """{keyword: cap} when GUINAND_WORKCAP is set, else {}."""
    raw = os.environ.get("GUINAND_WORKCAP")
    if raw is None:
        return {}
    try:
        return {keyword: int(raw)}
    except ValueError:
        raise _UsageError(f"GUINAND_WORKCAP must be an integer, got {raw!r}") from None


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------

def _cmd_rk(args) -> int:
    table = sumsq.rk_table(args.k, args.nmax, **_workcap("table_cap"))
    if args.format == "csv":
        _write_csv(args, ["n", "r_k"], list(enumerate(table.counts)))
    else:
        _write(args, _to_json({"k": table.k, "max_n": table.max_n,
                               "counts": list(table.counts)}) + "\n")
    return 0


def _cmd_coeffs(args) -> int:
    a = coeffs.alpha(args.k)
    bs = coeffs.betas(args.k)
    if args.format in ("exact", "float"):
        show = str if args.format == "exact" else (lambda v: _fmt_float(v.to_float()))
        lines = [f"alpha({args.k}) = {show(a)}"]
        lines += [f"beta({j},{args.k}) = {show(b)}" for j, b in enumerate(bs)]
        _write(args, "\n".join(lines) + "\n")
    else:
        def parts(v):
            q, e = coeffs.split_term(v)
            return {"num": q.numerator, "den": q.denominator, "pi_power": e}

        obj = {"k": args.k, "alpha": parts(a),
               "beta": [{"j": j, **parts(b)} for j, b in enumerate(bs)]}
        _write(args, _to_json(obj) + "\n")
    return 0


def _shell_csv(shell_rows) -> str:
    """``verify --format csv``: the text ``_write_csv`` gives for the rows
    with each float through ``_fmt_float``, one format per row."""
    columns = ("lhs_term", "rhs_term", "lhs_partial", "rhs_partial")
    lines = [",".join(["n", "r_k"] + [f"{c}_{part}" for c in columns for part in ("re", "im")])]
    line = "%d,%d" + ",%.17g" * 8
    for row in shell_rows:
        values = [x for col in columns for x in (row[col].real, row[col].imag)]
        if not math.isfinite(sum(values)):
            for x in values:
                _fmt_float(x)  # raises on the first non-finite value
        lines.append(line % (row["n"], row["r_k"], *values))
    return "\n".join(lines) + "\n"


def _cmd_verify(args) -> int:
    phi = _parse_phi(args.phi)
    report, shell_rows = formulas._verify(args.k, phi, args.nmax, shell_rows=args.format == "csv",
                                          **_workcap("table_cap"))
    if args.format == "csv":
        _write(args, _shell_csv(shell_rows))
    else:
        _write(args, _to_json(report.to_dict()) + "\n")
    return 0 if report.rel_residual <= args.tol else 2


def _cmd_verify_shifted(args) -> int:
    phi = _parse_phi(args.phi)
    eta = _parse_vector(args.eta)
    xi = _parse_vector(args.xi)
    report = formulas.verify_shifted(args.k, eta, xi, phi, args.r_time,
                                     args.r_freq, **_workcap("cap"))
    _write(args, _to_json(report.to_dict()) + "\n")
    return 0 if report.rel_residual <= args.tol else 2


def _cmd_duality(args) -> int:
    phi = _parse_phi(args.phi)
    cap = _workcap("table_cap")
    coeffs._check_odd_k(args.k)  # before the table, as sigma_k_hat checks it
    counts = sumsq.rk_table(args.k, args.nmax, **cap).counts  # one table, both combs
    hat_phi = atoms.pair(atoms._sigma_k_hat(args.k, counts), phi)
    sig_psi = atoms.pair(atoms._sigma_k(args.k, counts), phi.fourier())
    rel = rel_diff(hat_phi, sig_psi)
    obj = {"k": args.k, "N": args.nmax,
           "pair_sigma_hat_phi": hat_phi, "pair_sigma_phi_hat": sig_psi,
           "abs_diff": modulus(hat_phi - sig_psi), "rel_diff": rel}
    _write(args, _to_json(obj) + "\n")
    return 0 if rel <= args.tol else 2


def _cmd_radial_ft(args) -> int:
    f = parse(args.f).value
    if not f.is_even():
        print("notice: expression is not even; replacing f by its even part",
              file=sys.stderr)
        f = f - f.odd_part().scale(0.5)
    methods = args.methods.split(",")
    h = zero = None  # independent of t: each is built once, when first needed
    rows = []
    for t in _parse_grid(args):
        for method in methods:
            if method == "zero" or (method == "closed" and t == 0):
                value = zero = radial.radial_ft_zero(f, args.k) if zero is None else zero
            elif method == "closed":
                h = radial.radial_transform(f, args.k) if h is None else h
                value = -h.eval(abs(t)) / (2.0 * math.pi)  # radial_ft_closed, bit for bit
            elif method == "quadrature":
                value = radial.radial_ft_quadrature(f, args.k, t, args.tol)
            else:
                raise _UsageError(f"unknown radial method {method!r}")
            rows.append((args.k, t, method, value))
    if args.format == "csv":
        _write_csv(args, ["k", "t", "method", "value_re", "value_im"],
                   [(k, _fmt_float(t), m, _fmt_float(v.real), _fmt_float(v.imag))
                    for k, t, m, v in rows])
    else:
        _write(args, _to_json([{"k": k, "t": t, "method": m, "value": v}
                               for k, t, m, v in rows]) + "\n")
    return 0


def _cmd_sphere_ft(args) -> int:
    methods = args.methods.split(",")
    for m in methods:
        if m not in radial.SPHERE_METHODS:
            raise _UsageError(f"unknown sphere method {m!r}; choose from "
                              f"{sorted(radial.SPHERE_METHODS)}")
    ts = _parse_grid(args)
    values = radial.grid_rows([args.k], ts, methods)
    if args.format == "csv":
        t_texts = [_fmt_float(t) for t in ts]  # rows run t-major, methods within
        per_t = len(methods)
        _write_csv(args, ["k", "t", "method", "value"],
                   [(v.k, t_texts[i // per_t], v.method, _fmt_float(v.value))
                    for i, v in enumerate(values)])
    else:
        _write(args, _to_json([{"k": v.k, "t": v.t, "method": v.method,
                                "value": v.value} for v in values]) + "\n")
    return 0


# --------------------------------------------------------------------------
# the parser
# --------------------------------------------------------------------------

_K = ("--k", {"type": int, "required": True})
_NMAX = ("--nmax", {"type": int, "default": formulas.DEFAULT_N})
_GRID = [("--t", {"type": _finite_float}), ("--t-grid", {"help": "a:b:step"})]


def _tol(default: float, **kwargs) -> tuple:
    return "--tol", {"type": _finite_float, "default": default, **kwargs}


def _format(*choices: str) -> tuple:  # the first choice is the default
    return "--format", {"choices": choices, "default": choices[0]}


# name -> (help, handler, options in help order); each also takes --output
_COMMANDS = {
    "rk": ("sum-of-squares table r_k(n)", _cmd_rk,
           [_K, ("--nmax", {"type": int, "required": True}), _format("json", "csv")]),
    "coeffs": ("exact alpha and beta coefficients", _cmd_coeffs,
               [_K, _format("exact", "float", "json")]),
    "verify": ("two-sided check of the summation identity", _cmd_verify,
               [_K, ("--phi", {"required": True, "help": "odd test function expression"}),
                _NMAX, _tol(1e-9), _format("json", "csv")]),
    "verify-shifted": ("shifted-lattice identity check", _cmd_verify_shifted,
                       [_K, ("--eta", {"required": True, "help": "comma-separated rationals"}),
                        ("--xi", {"required": True, "help": "comma-separated rationals"}),
                        ("--phi", {"required": True}),
                        ("--r-time", {"type": _finite_float, "default": 6.0}),
                        ("--r-freq", {"type": _finite_float, "default": 6.0}), _tol(1e-8)]),
    "duality": ("pair sigma_k_hat against phi vs sigma_k against the transform of phi",
                _cmd_duality, [_K, ("--phi", {"required": True}), _NMAX, _tol(1e-9)]),
    "radial-ft": ("odd-dimension radial transform of an even f", _cmd_radial_ft,
                  [_K, ("--f", {"required": True, "help": "even test function expression"}),
                   *_GRID, ("--methods", {"default": "closed",
                                          "help": "comma list from closed,quadrature,zero"}),
                   _tol(1e-10, help="quadrature tolerance"), _format("json", "csv")]),
    "sphere-ft": ("sphere surface-measure transform profile", _cmd_sphere_ft,
                  [_K, *_GRID, ("--methods", {"default": "closed,bessel,recurrence,besselpoly"}),
                   _format("json", "csv")]),
}


def _add_options(parser: _Parser, name: str) -> _Parser:
    """Give ``parser`` the options of subcommand ``name`` and its handler."""
    _, handler, options = _COMMANDS[name]
    for flag, kwargs in options:
        parser.add_argument(flag, **kwargs)
    parser.add_argument("--output", help="write to file instead of stdout")
    parser.set_defaults(fn=handler)
    return parser


def _build_parser(argv: list[str]) -> tuple[_Parser, list[str]]:
    """(parser, tokens it parses) for ``argv``.  The parser holds the options
    of one subcommand alone (its --help included).

    When argv starts with a known subcommand, it is that subcommand's parser
    alone, prog "guinand NAME", and parses the rest of argv: that is all a
    parser listing the subcommands would pass on to it, and none of its own
    help, usage or choice errors can arise on such a line.  Otherwise it is
    the top-level parser, listing every subcommand so that those texts read
    as in full, and holds the options of the first token that is not an
    option (no top-level option takes a value, so that is the token argparse
    reads as the subcommand)."""
    if argv and argv[0] in _COMMANDS:
        return _add_options(_Parser(prog="guinand " + argv[0]), argv[0]), argv[1:]
    command = next((token for token in argv if token[:1] != "-"), None)
    parser = _Parser(prog="guinand",
                     description="Verify summation formulas with nodes at "
                                 "+-sqrt(n) and sum-of-squares weights.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text, add_help=name == command)
        if name == command:
            _add_options(p, name)
    return parser, argv


def _join_dash_values(argv) -> list[str]:
    # every option is long, so a '-value' right after a '--option' without '='
    # is that option's value; join them, or argparse reads it as an option
    out: list[str] = []
    for token in argv:
        if (token[:1] == "-" and token[:2] != "--" and out and out[-1][:2] == "--"
                and "=" not in out[-1] and out[-1] not in ("--", "--help")):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    argv = _join_dash_values(sys.argv[1:] if argv is None else argv)
    try:
        parser, tokens = _build_parser(argv)
        args = parser.parse_args(tokens)
        return args.fn(args)
    except ParseError as exc:  # a ValueError, so it must come first
        print(f"parse error at byte {exc.offset}: {exc.reason}", file=sys.stderr)
        return 1
    except (_UsageError, WorkCapExceeded, QuadratureError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
