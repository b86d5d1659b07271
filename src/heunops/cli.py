"""Command-line front end.

Subcommands:

* ``eval``      evaluate any library function at a point or on a grid
* ``verify``    run identity checks; exit 0 iff everything passes
* ``entropy``   emit an entropy/variance table for an operator family
* ``registry``  export the identity registry table

Exit codes: 0 success / all checks pass, 1 verification failure,
2 usage error, 141 (128 + SIGPIPE) when the reader closes stdout early.
Diagnostics go to standard error; output is deterministic (two runs with
identical arguments are byte-identical).  Floats print with 17
significant digits (zero unsigned), exact rationals as ``p/q`` strings.
``--json`` output is ``json.dumps(doc, indent=2)``, the same bytes on
every supported Python (see :func:`_dumps`).  The rows of an
``eval`` or ``entropy`` table, in CSV or ``--json``, are written by one
``%`` format per table (:func:`_csv_table`, :func:`_json_table`), on
every Python, and the whole table is formatted before any of it prints.

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
import os
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
    indentation of its depth; other containers write their scalar members
    inline (:func:`_member`) and recurse here for the rest.  Python 3.13
    indents in C itself.  The rows of an eval or entropy table do not come
    here: :func:`_json_table` writes them on every Python."""
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


def _float_cells(values) -> list[float]:
    """Each value as a cell of a float table, which prints it by "%.17g":
    rounded to a float, a negative zero made 0.0; a value past the float
    range raises OverflowError.  An --exact table prints its Fraction or int
    cells by "%s"."""
    return [float(v) + 0.0 for v in values]


def _csv_table(columns: tuple[str, ...], cells: list, cell: str) -> str:
    """A header line of ``columns``, then one line per ``len(columns)``
    ``cells``, in order, each cell written by the %-format ``cell``: one %
    format of a template built for the whole table."""
    row = ",".join([cell] * len(columns))
    return "\n".join([",".join(columns), *[row] * (len(cells) // len(columns))]) % tuple(cells)


def _json_table(doc: dict, columns: tuple[str, ...], cells: list, cell: str) -> str:
    """``_dumps(doc)`` with the empty "rows" list of ``doc`` replaced by one
    dict ``{column: cell % value}`` per ``len(columns)`` ``cells`` (one row
    or more), in order, byte for byte as ``json.dumps(doc, indent=2)`` writes
    such rows, by one % format of a template built for the whole table.

    A cell is put between quotes as it is written: "%.17g" of a float and
    "%s" of a Fraction or int hold no character that JSON escapes.  No JSON
    string holds a raw line break, so the one line of the document text that
    starts with ``  "rows": `` is the member that the table replaces."""
    row = "{\n      " + ",\n      ".join([f'{_encode_str(c)}: "{cell}"' for c in columns]) + "\n    }"
    rows = ",\n    ".join([row] * (len(cells) // len(columns))) % tuple(cells)
    return _dumps(doc).replace('\n  "rows": []', '\n  "rows": [\n    ' + rows + "\n  ]", 1)


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
    None.  Float tables run on the grid's integer form, and so do the
    exact rows of F, U, J and G, from the one table of
    :func:`specfun.kernel_ratios`; other exact rows, B-spline rows and the
    constants read :meth:`Grid.fractions`."""
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
        ratios = specfun.kernel_ratios(name, _int(params, "n"), grid)
        return [Fraction(a, b) for a, b in ratios] if exact else [a / b for a, b in ratios]
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
    cell = "%s" if exact else "%.17g"
    if not exact:
        values = _float_cells(values)
    if not (args.json or args.grid):
        print(cell % values[0])
        return 0
    if grid is None:  # a function of no x, and no --grid
        columns, cells = ("value",), values
    else:
        columns, cells = ("x", "value"), [None] * (2 * len(values))
        den = grid.den  # x = u/D as Grid.floats gives it, and + 0.0 prints zero unsigned
        cells[::2] = grid.fractions() if exact else [u / den + 0.0 for u in grid.numerators()]
        cells[1::2] = values
    if args.json:
        doc = {
            "command": "eval",
            "params": {"function": args.function, **{k: str(v) for k, v in sorted(params.items())},
                       "exact": exact},
            "rows": [],
        }
        print(_json_table(doc, columns, cells, cell))
    else:
        print(_csv_table(columns, cells, cell))
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


#: the columns of the entropy table, in the order of :func:`entropy.entropy_columns`
_ENTROPY_COLUMNS = ("x", "squared_kernel_integral", "renyi", "tsallis", "variance")


def _cmd_entropy(args) -> int:
    if args.op == "bspline" and args.k is not None:
        raise HeunopsError("--k applies only to --op kantorovich")
    if args.op == "kantorovich" and args.sigma is not None:
        raise HeunopsError("--sigma applies only to --op bspline")
    grid = _parse_grid(args.grid)
    if args.op == "bspline":
        sigma = _parse_sigma(args.sigma or "const:1")
        op = entropy.BSplineOp(args.n, sigma)
    else:
        op = entropy.KantorovichOp(args.n, args.k if args.k is not None else 2)
    columns = dict(zip(_ENTROPY_COLUMNS, entropy.entropy_columns(op, [grid])))
    measures = _ENTROPY_COLUMNS[-1:] + _ENTROPY_COLUMNS[2:-1]  # variance, renyi, tsallis
    sync = {f"{f}~{g}": entropy.synchronicity_check(columns[f], columns[g]).passed
            for f, g in itertools.combinations(measures, 2)}
    cells = _float_cells(itertools.chain.from_iterable(zip(*columns.values())))
    if args.json:
        doc = {
            "command": "entropy",
            "params": {"op": args.op, "n": args.n, "k": args.k,
                       "sigma": args.sigma, "grid": args.grid},
            "rows": [],
            "pass": all(sync.values()),
            "synchronicity": sync,
        }
        print(_json_table(doc, _ENTROPY_COLUMNS, cells, "%.17g"))
    else:
        print(_csv_table(_ENTROPY_COLUMNS, cells, "%.17g"))
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
        code = handlers[args.command](args)
        sys.stdout.flush()  # a reader's closed pipe raises here, not at exit
        return code
    except BrokenPipeError:  # as in the "Note on SIGPIPE" of the signal docs
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (HeunopsError, ValueError, ZeroDivisionError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
