"""Command-line front end.

Subcommands:

* ``eval``      evaluate any library function at a point or on a grid
* ``verify``    run identity checks; exit 0 iff everything passes
* ``entropy``   emit an entropy/variance table for an operator family
* ``registry``  export the identity registry table

Exit codes: 0 success / all checks pass, 1 verification failure,
2 usage error.  Diagnostics go to standard error; output is deterministic
(two runs with identical arguments are byte-identical).  Floats print
with 17 significant digits (zero unsigned), exact rationals as ``p/q``
strings.  ``--json`` output is ``json.dumps(doc, indent=2)``, the same
bytes on every supported Python (see :func:`_dumps`).

Each command's arguments are declared once, in ``_COMMANDS``.  ``main``
parses a well-formed command line by :func:`_parse_command`, which reads
that table directly; ``argparse`` is imported and the parser built only
for any other argv, so help, usage and every error message are
argparse's.  An argv that starts with a command name goes to that
command's own sub-parser, so an unrecognized argument is reported with
the sub-command's usage (``heunops eval: error: unrecognized arguments:
--bogus``).  Every other argv (empty, ``-h``, an unknown command) goes
to the top-level parser.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import re
import sys
from fractions import Fraction
from functools import lru_cache
from types import SimpleNamespace

from . import bspline, entropy, identities, specfun
from .errors import HeunopsError
from .exactalg import Frozen, Grid, parse_number


#: ``json``'s C encoder factory; None where the C accelerator is missing
_C_MAKE_ENCODER = json.encoder.c_make_encoder
_encode_str = json.encoder.encode_basestring_ascii
_CONTAINERS = (dict, list, tuple)


@lru_cache(maxsize=None)
def _json_level(depth: int):
    """The C encoder of a container whose members sit at ``depth``, and the
    line break and indentation that ``indent=2`` puts before each member."""
    pad = "\n" + "  " * depth
    encoder = _C_MAKE_ENCODER(None, json.JSONEncoder().default, _encode_str, None, ": ",
                              "," + pad, False, False, True)
    return encoder, pad


def _dumps(doc) -> str:
    """``json.dumps(doc, indent=2)``, byte for byte, for a document with
    str keys.

    Up to Python 3.12 ``json.dumps`` writes an indented document in pure
    Python.  Here a container whose members are all scalars is written by
    one call of a C encoder whose item separator holds the line break and
    indentation of its depth, and so is a list of such dicts (table rows);
    other containers write their scalar members inline (:func:`_member`)
    and recurse here for the rest.  Python 3.13 indents in C itself."""
    if _C_MAKE_ENCODER is None or sys.version_info >= (3, 13):
        return json.dumps(doc, indent=2)
    return _dump(doc, 0)


def _dump(o, depth: int) -> str:
    is_dict = isinstance(o, dict)
    if is_dict:
        members = o.values()
    elif isinstance(o, (list, tuple)):
        members = o
    else:
        return "".join(_json_level(depth)[0](o, 0))
    if not o:
        return "{}" if is_dict else "[]"
    encoder, pad = _json_level(depth + 1)
    end = _json_level(depth)[1]
    for m in members:
        if isinstance(m, _CONTAINERS):
            break
    else:  # scalars only
        s = "".join(encoder(o, 0))
        return s[0] + pad + s[1:-1] + end + s[-1]
    if is_dict:
        body = ("," + pad).join([
            f"{_encode_str(k)}: {_encode_str(v) if v.__class__ is str else _member(v, depth + 1)}"
            for k, v in o.items()])
        return "{" + pad + body + end + "}"
    # table rows: non-empty dicts of scalars, told by one C-level scan of the
    # types of their values; they are written by one C call, and since an
    # encoded scalar holds no line break, only a row's end puts "}" before a separator
    if {*map(type, o)} == {dict} and all(o) and not any(
            issubclass(t, _CONTAINERS)
            for t in {*map(type, itertools.chain.from_iterable(map(dict.values, o)))}):
        row_encoder, row_pad = _json_level(depth + 2)
        body = "".join(row_encoder(o, 0))[2:-2].replace(
            "}," + row_pad + "{", pad + "}," + pad + "{" + row_pad)
        return "[" + pad + "{" + row_pad + body + pad + "}" + end + "]"
    body = ("," + pad).join([_encode_str(m) if m.__class__ is str else _member(m, depth + 1)
                             for m in o])
    return "[" + pad + body + end + "]"


def _member(v, depth: int) -> str:
    """A non-str member of a mixed container: a bool, None, int or finite
    float written inline as ``json`` writes it, anything else by :func:`_dump`."""
    cls = v.__class__
    if cls is float and math.isfinite(v):
        return float.__repr__(v)
    if cls is int:
        return int.__repr__(v)
    if cls is bool:
        return "true" if v else "false"
    return "null" if v is None else _dump(v, depth)


def _fmt_float(v: float) -> str:
    # + 0.0 turns a negative zero into 0.0 and leaves every other value as is
    return format(float(v) + 0.0, ".17g")


def _parse_kv(pairs: list[str]) -> dict[str, str]:
    out: dict[str, str] = {}
    for chunk in pairs:
        for item in chunk.split(","):
            if not item:
                continue
            if "=" not in item:
                raise HeunopsError(f"expected key=value, got {item!r}")
            key, _, raw = item.partition("=")
            key = key.strip()
            if key in out:
                raise HeunopsError(f"parameter {key} is given twice")
            out[key] = raw.strip()
    return out


def _frac(params: dict, key: str) -> Fraction:
    if key not in params:
        raise HeunopsError(f"missing parameter {key}=...")
    return parse_number(key, params[key])


def _int(params: dict, key: str, default=None) -> int:
    if key not in params:
        if default is not None:
            return default
        raise HeunopsError(f"missing parameter {key}=...")
    f = parse_number(key, params[key])
    if f.denominator != 1:
        raise HeunopsError(f"{key} must be an integer")
    return int(f)


#: largest grid count accepted by ``--grid``
_MAX_GRID_POINTS = 100_000


def _parse_grid(spec: str) -> Grid:
    """The grid a:b:count, endpoints included: x_i = a + (b - a) i / (count - 1),
    as the :class:`Grid` (A + i S) / D over the integers."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise HeunopsError("grid must be a:b:count")
    a, b = parse_number("grid a", parts[0]), parse_number("grid b", parts[1])
    count = parse_number("grid count", parts[2], int)
    if count > _MAX_GRID_POINTS:
        raise HeunopsError(f"grid count {count} exceeds the limit of {_MAX_GRID_POINTS} points")
    if count < 1 or (count == 1 and a != b):
        raise HeunopsError("grid count must be >= 1 (and a == b when count == 1)")
    if count == 1:
        return Grid.point(a)
    lcm = math.lcm(a.denominator, b.denominator)
    an, bn = a.numerator * (lcm // a.denominator), b.numerator * (lcm // b.denominator)
    return Grid(an * (count - 1), bn - an, lcm * (count - 1), count)


def _parse_sigma(spec: str):
    kind, _, rest = spec.partition(":")
    if kind == "const":
        return bspline.ConstantSigma(parse_number("sigma c", rest))
    if kind == "quad":
        c, _, d = rest.partition(":")
        return bspline.QuadraticSigma(parse_number("sigma c", c), parse_number("sigma d", d))
    if kind == "table":
        xs, values = [], []
        with open(rest, newline="") as fh:
            reader = csv.reader(fh)
            for row in reader:
                if not row or row[0].startswith("#"):
                    continue
                where = f"sigma table {rest}, line {reader.line_num}"
                if len(row) != 2:
                    raise HeunopsError(f"{where}: expected 2 fields x,sigma, got {len(row)}")
                xs.append(parse_number(f"{where}: x", row[0]))
                values.append(parse_number(f"{where}: sigma", row[1]))
        return bspline.TableSigma(tuple(xs), tuple(values))
    raise HeunopsError(f"unknown sigma spec {spec!r} (use const:c, quad:c:d, table:file.csv)")


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

#: series families: parameter class and exact route; the float route of
#: all three is :func:`specfun.series_values`, one call per grid
_SERIES_FAMILIES = {
    "hl": (specfun.HeunParams, specfun.heun_poly),
    "hc": (specfun.ConfluentHeunParams, specfun.confluent_heun_poly),
    "2f1": (specfun.GaussParams, lambda g: specfun.hyp2f1_poly(g.a, g.b, g.c)),
}


class _EvalSpec(Frozen):
    """An eval function's parameter keys (x aside), whether it takes x, and
    whether it has --exact."""

    def __init__(self, keys: tuple[str, ...], takes_x: bool = True, exact: bool = True) -> None:
        self.__dict__.update(keys=keys, takes_x=takes_x, exact=exact)


#: every function of ``eval``, in the order argparse lists them
_EVAL_SPECS = {
    **{name: _EvalSpec(make.FIELDS)
       for name, (make, _) in _SERIES_FAMILIES.items()},
    "legendre": _EvalSpec(("n",)),
    "F": _EvalSpec(("n",)),
    "G": _EvalSpec(("n",)),
    "U": _EvalSpec(("n",)),
    "J": _EvalSpec(("n",)),
    "K": _EvalSpec(("n", "j"), exact=False),
    "bspline": _EvalSpec(("knots",)),
    "c_n": _EvalSpec(("n",), takes_x=False),
    "kn_deriv_zero": _EvalSpec(("n", "j"), takes_x=False),
}
EVAL_FUNCTIONS = tuple(_EVAL_SPECS)


def _eval_values(name: str, params: dict, exact: bool, grid: Grid | None) -> list:
    """Parse ``params`` once and return the values of ``name`` at the points
    of ``grid``, or its one value when ``name`` takes no x and ``grid`` is
    None.  Float tables run on the grid's integer form; exact rows, B-spline
    rows and the constants read :meth:`Grid.fractions`."""
    if name in _SERIES_FAMILIES:
        make, poly = _SERIES_FAMILIES[name]
        sp = make(*(_frac(params, k) for k in _EVAL_SPECS[name].keys))
        if not exact:
            return [r.value for r in specfun.series_values(sp, grid)]
        f = poly(sp)
    elif name == "legendre":
        n = _int(params, "n")
        if not exact:
            return specfun.legendre_values(n, grid)
        f = lambda x: specfun.legendre_p(n, x)
    elif name in ("F", "U", "G", "J"):
        n = _int(params, "n")
        if not exact:
            return specfun.kernel_values(name, n, grid)
        f = lambda x: specfun.kernel_sum(name, n, x)
    elif name == "K":
        n, j, d = _int(params, "n"), _int(params, "j", default=0), grid.den
        # a negative point is passed exact, so that one that rounds to -0.0 is rejected too
        return [specfun.szasz_K(n, j, u / d if u >= 0 else Fraction(u, d)) for u in grid.numerators()]
    elif name == "bspline":
        knots = [parse_number("knot", tok) for tok in str(params.get("knots", "")).split(";") if tok]
        if not knots:
            raise HeunopsError("bspline needs knots=k0;k1;...")
        f = bspline.bspline_density(knots)
    elif name == "c_n":
        return [bspline.c_constant(_int(params, "n"))] * (grid.count if grid else 1)
    elif name == "kn_deriv_zero":
        return [specfun.kn_deriv_zero(_int(params, "n"), _int(params, "j"))] * (grid.count if grid else 1)
    else:
        raise HeunopsError(f"unknown function {name!r}")
    return [f(x) for x in grid.fractions()]


def _fmt_point(x: float) -> str:
    """A point of :meth:`Grid.floats` as a float row prints it, with 17
    significant digits; the point 0 has the numerator 0 and prints as 0."""
    return format(x, ".17g")


def _cmd_eval(args) -> int:
    params = _parse_kv(args.params)
    exact = args.exact
    spec = _EVAL_SPECS[args.function]
    if exact and not spec.exact:
        raise HeunopsError(f"--exact is not available for {args.function}")
    known = spec.keys + (("x",) if spec.takes_x else ())
    unknown = [k for k in params if k not in known]
    if unknown:
        raise HeunopsError(f"{args.function} takes no parameter {unknown[0]}")
    if args.grid:
        if "x" in params:
            raise HeunopsError("--grid sets the points and takes no x")
        grid = _parse_grid(args.grid)
    elif spec.takes_x:
        grid = Grid.point(_frac(params, "x"))
    else:
        grid = None
    values = _eval_values(args.function, params, exact, grid)
    xs = [None] if grid is None else grid.fractions() if exact else grid.floats()
    fmt_x, fmt_value = (str, str) if exact else (_fmt_point, _fmt_float)
    if args.json:
        doc = {
            "command": "eval",
            "params": {"function": args.function, **{k: str(v) for k, v in sorted(params.items())},
                       "exact": exact},
            "rows": [{"x": fmt_x(x), "value": fmt_value(v)} if x is not None
                     else {"value": fmt_value(v)}
                     for x, v in zip(xs, values)],
        }
        print(_dumps(doc))
    elif args.grid:
        print("x,value")
        for x, v in zip(xs, values):
            print(f"{fmt_x(x)},{fmt_value(v)}")
    else:
        print(fmt_value(values[0]))
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _cmd_verify(args) -> int:
    if not args.all and not args.id:
        raise HeunopsError("choose --all or --id IDENTITY")
    if args.all:
        given = [opt for opt, v in (("--id", args.id), ("--params", args.params),
                                    ("--mode", args.mode), ("--tol", args.tol)) if v is not None]
        if given:
            raise HeunopsError(f"--all runs the default suite and takes no {', '.join(given)}")
        reports = identities.verify_all()
    else:
        entry = identities.REGISTRY[identities.resolve_id(args.id)]
        params = _parse_kv(args.params) if args.params else None
        modes = [args.mode] if args.mode else list(entry.modes)
        if args.tol is not None and modes != ["numeric"]:
            hint = ("add --mode numeric" if "numeric" in entry.modes
                    else f"{entry.id.value} has no numeric mode")
            raise HeunopsError(f"--tol applies only to numeric mode; {hint}")
        if args.tol is not None and "numeric" in entry.modes:  # else verify names the mode it lacks
            modes = [identities.NumericGrid(entry.grid, args.tol)]
        reports = [identities.verify(args.id, ps, m)
                   for m in modes for ps in ([params] if params else entry.default_params)]
    all_pass = all(r.passed for r in reports)
    if args.json:
        doc = {
            "command": "verify",
            "params": {"id": args.id or "all", "mode": args.mode or "default"},
            "rows": [r.to_dict() for r in reports],
            "pass": all_pass,
        }
        print(_dumps(doc))
    else:
        for r in reports:
            ps = " ".join(f"{k}={v}" for k, v in sorted(r.params.items()))
            status = "PASS" if r.passed else "FAIL"
            print(f"{r.id.value:<9} {r.mode.kind:<7} {ps:<24} {status}  "
                  f"max_err={_fmt_float(r.max_abs_err)} points={r.points_checked}")
        n_fail = sum(not r.passed for r in reports)
        print(f"{len(reports) - n_fail}/{len(reports)} checks passed")
    return 0 if all_pass else 1


# ---------------------------------------------------------------------------
# entropy
# ---------------------------------------------------------------------------


#: the columns of the entropy table, each an attribute of an entropy point
_ENTROPY_COLUMNS = ("x", "squared_kernel_integral", "renyi", "tsallis", "variance")


def _cmd_entropy(args) -> int:
    if args.op == "bspline" and args.k is not None:
        raise HeunopsError("--k applies only to --op kantorovich")
    if args.op == "kantorovich" and args.sigma is not None:
        raise HeunopsError("--sigma applies only to --op bspline")
    xs = _parse_grid(args.grid).fractions()
    if args.op == "bspline":
        sigma = _parse_sigma(args.sigma or "const:1")
        op = entropy.BSplineOp(args.n, sigma)
    else:
        op = entropy.KantorovichOp(args.n, args.k if args.k is not None else 2)
    points = entropy.entropy_profile(op, xs)
    measures = _ENTROPY_COLUMNS[-1:] + _ENTROPY_COLUMNS[2:-1]  # variance, renyi, tsallis
    columns = {c: [getattr(p, c) for p in points] for c in measures}
    sync = {f"{f}~{g}": entropy.synchronicity_check(columns[f], columns[g]).passed
            for f, g in itertools.combinations(measures, 2)}
    rows = [[_fmt_float(getattr(p, c)) for c in _ENTROPY_COLUMNS] for p in points]
    if args.json:
        doc = {
            "command": "entropy",
            "params": {"op": args.op, "n": args.n, "k": args.k,
                       "sigma": args.sigma, "grid": args.grid},
            "rows": [dict(zip(_ENTROPY_COLUMNS, row)) for row in rows],
            "pass": all(sync.values()),
            "synchronicity": sync,
        }
        print(_dumps(doc))
    else:
        print(",".join(_ENTROPY_COLUMNS))
        for row in rows:
            print(",".join(row))
        summary = " ".join(f"{k}={'pass' if v else 'fail'}" for k, v in sync.items())
        print(f"# synchronicity {summary}")
    return 0


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


def _cmd_registry(args) -> int:
    rows = identities.registry_table()
    if args.json:
        print(_dumps({"command": "registry", "rows": rows}))
    else:
        for row in rows:
            modes = "/".join(row["modes"])
            print(f"{row['id']:<9} {row['equation']:<12} {modes:<18} "
                  f"{len(row['default_params']):>3} param sets  {row['description']}")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


#: each command's help line and arguments, each argument as its name and
#: the keywords of ``add_argument``: :func:`build_parser` builds the
#: argparse sub-parsers from them and :func:`_parse_command` reads them
_COMMANDS = {
    "eval": ("evaluate a function", (
        ("function", {"choices": EVAL_FUNCTIONS}),
        ("params", {"nargs": "*", "help": "key=value parameters (rationals as p/q)"}),
        ("--exact", {"action": "store_true", "help": "exact rational output"}),
        ("--grid", {"help": "evaluate on grid a:b:count instead of a single x"}),
        ("--json", {"action": "store_true"}),
    )),
    "verify": ("run identity checks", (
        ("--id", {"help": "identity id, e.g. I39"}),
        ("--all", {"action": "store_true", "help": "run the full default suite"}),
        ("--params", {"action": "append", "help": "key=value[,key=value...]"}),
        ("--mode", {"choices": ("exact", "ode", "numeric")}),
        ("--tol", {"type": float, "help": "override numeric tolerance"}),
        ("--json", {"action": "store_true"}),
    )),
    "entropy": ("entropy/variance table", (
        ("--op", {"choices": ("bspline", "kantorovich"), "required": True}),
        ("--n", {"type": int, "required": True}),
        ("--k", {"type": int, "help": "Kantorovich order (default 2)"}),
        ("--sigma", {"help": "const:c, quad:c:d or table:file.csv"}),
        ("--grid", {"required": True, "help": "a:b:count, endpoints included"}),
        ("--json", {"action": "store_true"}),
    )),
    "registry": ("identity registry table", (
        ("--json", {"action": "store_true"}),
    )),
}


def build_parser() -> argparse.ArgumentParser:
    import argparse

    ap = argparse.ArgumentParser(prog="heunops",
                                 description="special functions, operator entropies and "
                                             "machine-checked identities")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (help_line, arguments) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_line)
        for flag, keywords in arguments:
            command.add_argument(flag, **keywords)

    # each command's sub-parser, by name, for main to parse a command's argv
    # without the top-level pass
    ap.commands = sub.choices
    return ap


def _convert(keywords: dict, text: str):
    """``text`` converted by an argument's ``type`` and checked against its
    ``choices``; ValueError where argparse would reject it."""
    value = keywords.get("type", str)(text)
    if "choices" in keywords and value not in keywords["choices"]:
        raise ValueError(text)
    return value


def _parse_command(name: str, tokens: list[str]):
    """The namespace that the sub-parser of command ``name`` makes of
    ``tokens``, the argv after the name, when they take the plainest form;
    None for any other, which is left to argparse.

    The plainest form is the command's positionals first, then options
    spelled out in full: ``--opt value`` (a value that does not start with
    "-") or ``--opt=value`` for a store or append option, a bare flag for a
    ``store_true`` one.  Values are converted by the argument's ``type`` and
    checked against its ``choices``, and every required argument must be
    given.  Abbreviations, ``-h``, ``--``, unknown options and positionals
    after an option give None.
    """
    arguments = _COMMANDS[name][1]
    values = {flag.lstrip("-"): False if kw.get("action") == "store_true" else None
              for flag, kw in arguments}
    options = {flag: kw for flag, kw in arguments if flag.startswith("-")}
    first_option = next((i for i, token in enumerate(tokens) if token.startswith("-")), len(tokens))
    head, rest, given = tokens[:first_option], iter(tokens[first_option:]), set()
    try:
        for flag, kw in arguments:
            if flag in options:
                continue
            if kw.get("nargs") == "*":
                values[flag], head = [_convert(kw, token) for token in head], []
            elif head:
                values[flag], head = _convert(kw, head[0]), head[1:]
            else:
                return None
        if head:
            return None
        for token in rest:
            flag, eq, value = token.partition("=")
            kw = options.get(flag)
            if kw is None:
                return None
            given.add(flag)
            dest = flag.lstrip("-")
            if kw.get("action") == "store_true":
                if eq:
                    return None
                values[dest] = True
                continue
            if not eq:
                value = next(rest, "-")
                if value.startswith("-"):
                    return None
            value = _convert(kw, value)
            values[dest] = [*(values[dest] or ()), value] if kw.get("action") == "append" else value
    except ValueError:
        return None
    if any(kw.get("required") and flag not in given for flag, kw in options.items()):
        return None
    return SimpleNamespace(**values)


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use and shared by every later call."""
    return build_parser()


#: a grid spec with a negative start, which argparse takes for an option
_NEGATIVE_GRID = re.compile(r"-[0-9.]")


def _join_grid_values(argv: list[str]) -> list[str]:
    """Rewrite ``--grid -1:1:3`` as ``--grid=-1:1:3``, up to a ``--``."""
    out = list(argv)
    end = out.index("--") if "--" in out else len(out)
    for i in reversed(range(end - 1)):
        if out[i] == "--grid" and _NEGATIVE_GRID.match(out[i + 1]):
            out[i:i + 2] = [f"--grid={out[i + 1]}"]
    return out


def main(argv=None) -> int:
    argv = _join_grid_values(sys.argv[1:] if argv is None else argv)
    name = argv[0] if argv and argv[0] in _COMMANDS else None
    if name is None:
        args = _parser().parse_args(argv)
    else:
        args = _parse_command(name, argv[1:]) or _parser().commands[name].parse_args(argv[1:])
        args.command = name
    handlers = {
        "eval": _cmd_eval,
        "verify": _cmd_verify,
        "entropy": _cmd_entropy,
        "registry": _cmd_registry,
    }
    try:
        return handlers[args.command](args)
    except (HeunopsError, ValueError, ZeroDivisionError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
