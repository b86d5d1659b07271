"""Seeded op lists for the three workloads.

An op is one heunops command line.  The harness keeps the generating
parameters next to the argv so the checkers can rebuild expected values;
the program itself only ever receives the argv.

Every workload is built from a fixed menu of op *shapes* (function, size,
grid count).  The seed picks the order and the parameter values inside
each shape, so two seeds exercise different inputs while doing about the
same amount of work, which keeps per-run figures comparable across seeds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction as Fr

WORKLOADS = ("verify", "entropy", "eval")
#: entropy and eval repeat their menu with fresh values until a pass has
#: >= 100 ops, so op_p90_ms has >= 10 ops beyond it
ROUNDS = {"entropy": 5, "eval": 2}


@dataclass
class Op:
    argv: list[str]
    params: dict

    @property
    def command(self) -> str:
        return " ".join(self.argv)


def grid_points(a: Fr, b: Fr, count: int) -> list[Fr]:
    """The points ``heunops`` puts on ``--grid=a:b:count`` (endpoints included)."""
    step = (b - a) / (count - 1)
    return [a + step * i for i in range(count)]


def _grid_arg(a: Fr, b: Fr, count: int) -> str:
    # "--grid=a:b:count" in one token: argparse rejects a separate value
    # that starts with "-" (a negative left endpoint).
    return f"--grid={a}:{b}:{count}"


def _kv(params: dict) -> list[str]:
    return [f"{k}={v}" for k, v in params.items()]


# ---------------------------------------------------------------------------
# verify: the 336 single checks that `heunops verify --all` runs
# ---------------------------------------------------------------------------

_JSON_BOOL = "TypeError: Object of type bool is not JSON serializable"
#: Ops that crash today with numpy 2.x: the report carries numpy.bool /
#: numpy.float64 values that `json.dumps` rejects.  The crash comes after
#: the check has run, so these ops are timed like the others and counted
#: as failed; an op of this list that starts to pass is not an error.
KNOWN_CRASHES = {
    **{f"verify --id I22 --mode numeric --params m={m} --json": _JSON_BOOL for m in range(2, 9)},
    **{f"verify --id I31 --mode numeric --params q={q} --json": _JSON_BOOL
       for q in ("1/2", "1", "-1", "3/2")},
}


def verify_ops(rng: random.Random) -> list[Op]:
    import heunops.identities as identities

    ops = []
    for iid in identities.IdentityId:
        entry = identities.REGISTRY[iid]
        for mode in entry.modes:
            for ps in entry.default_params:
                kv = ",".join(_kv(ps))
                argv = ["verify", "--id", iid.value, "--mode", mode, "--params", kv, "--json"]
                ops.append(Op(argv, {"id": iid.value, "mode": mode}))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# entropy: small-grid Kantorovich and B-spline tables
# ---------------------------------------------------------------------------

# (n, k, grid count); cost is dominated by n, k and the count.
_KANTOROVICH = [(4, 1, 9), (5, 2, 9), (6, 2, 7), (6, 3, 7), (7, 1, 9), (8, 2, 5),
                (8, 3, 5), (10, 2, 5), (5, 3, 9), (8, 1, 7), (9, 4, 3), (12, 3, 3)]
# (n, sigma kind, grid count)
_BSPLINE = [(2, "const", 9), (3, "const", 9), (4, "const", 7), (5, "const", 5),
            (3, "quad", 7), (4, "quad", 7), (5, "quad", 5), (6, "quad", 5)]
_SIGMA_C = [Fr(1, 2), Fr(2, 3), Fr(3, 4), Fr(1), Fr(5, 4), Fr(3, 2), Fr(2)]
_SIGMA_D = [Fr(1, 8), Fr(1, 4), Fr(1, 3), Fr(1, 2)]


def entropy_ops(rng: random.Random) -> list[Op]:
    ops = []
    for _ in range(ROUNDS["entropy"]):
        for n, k, count in _KANTOROVICH:
            a, b = Fr(rng.randint(0, 4), 16), Fr(rng.randint(12, 16), 16)
            argv = ["entropy", "--op", "kantorovich", "--n", str(n), "--k", str(k),
                    _grid_arg(a, b, count), "--json"]
            ops.append(Op(argv, {"op": "kantorovich", "n": n, "k": k, "grid": (a, b, count)}))
        for n, kind, count in _BSPLINE:
            a, b = -Fr(rng.randint(2, 12), 8), Fr(rng.randint(2, 12), 8)
            c = rng.choice(_SIGMA_C)
            sigma = (c,) if kind == "const" else (c, rng.choice(_SIGMA_D))
            spec = ":".join([kind, *map(str, sigma)])
            argv = ["entropy", "--op", "bspline", "--n", str(n), "--sigma", spec,
                    _grid_arg(a, b, count), "--json"]
            ops.append(Op(argv, {"op": "bspline", "n": n, "sigma": sigma, "grid": (a, b, count)}))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# eval: function tables on grids
# ---------------------------------------------------------------------------

# Parameter pools of like size, so a seed changes values but hardly the cost.
_NONINT = [Fr(1, 2), Fr(3, 2), Fr(5, 2), Fr(-1, 2), Fr(-3, 2), Fr(1, 3), Fr(2, 3)]
_POS = [Fr(1, 2), Fr(1), Fr(3, 2), Fr(2), Fr(5, 2)]
_SMALL = [Fr(-1), Fr(-1, 2), Fr(0), Fr(1, 2), Fr(1), Fr(2)]


def _inner_grid(rng: random.Random, count: int) -> tuple[Fr, Fr, int]:
    """A grid inside |x| <= 3/4, the disk where the local series converge."""
    return -Fr(rng.randint(2, 6), 8), Fr(rng.randint(2, 6), 8), count


def _wide_grid(rng: random.Random, count: int) -> tuple[Fr, Fr, int]:
    return -Fr(rng.randint(4, 8), 8), Fr(rng.randint(8, 12), 8), count


def _eval_op(func: str, params: dict, grid: tuple, exact: bool = False, **meta) -> Op:
    argv = ["eval", func, *_kv(params), _grid_arg(*grid), "--json"]
    if exact:
        argv.append("--exact")
    return Op(argv, {"func": func, "params": params, "grid": grid, "exact": exact, **meta})


def _eval_round(rng: random.Random, ops: list[Op]) -> None:
    # Terminating local Heun: squared Bernstein weight family of (3.3) and
    # the even-shifted family of (3.14); the series stops at degree 2n.
    for n in (3, 5):
        ps = {"a": Fr(1, 2), "q": -n, "alpha": -2 * n, "beta": 1, "gamma": 1, "delta": 1}
        ops.append(_eval_op("hl", ps, _wide_grid(rng, 41), terminating=True))
    for n, i in ((4, 1), (6, 2)):
        ps = {"a": Fr(1, 2), "q": (i - n) * (2 * i + 1), "alpha": 2 * (i - n),
              "beta": 2 * i + 1, "gamma": i + 1, "delta": i + 1}
        ops.append(_eval_op("hl", ps, _wide_grid(rng, 41), terminating=True))
    # Non-terminating local Heun: alpha, beta not integers, so no coefficient
    # pair vanishes and every point pays the full exact termination scan.
    for _ in range(8):
        ps = {"a": rng.choice([Fr(2), Fr(-2), Fr(3), Fr(-3)]), "q": rng.choice(_SMALL),
              "alpha": rng.choice(_NONINT), "beta": rng.choice(_NONINT),
              "gamma": rng.choice(_POS), "delta": rng.choice(_POS)}
        ops.append(_eval_op("hl", ps, _inner_grid(rng, 13), terminating=False))
    # Terminating confluent Heun: p = 0 leaves a two-term recurrence, which
    # stops at degree N when sigma = N(N - 1 + gamma + delta).
    for big_n in (3, 5, 6, 8):
        g, d = rng.choice(_POS), rng.choice([Fr(0), Fr(1, 2), Fr(1), Fr(2)])
        ps = {"p": 0, "gamma": g, "delta": d, "alpha": rng.choice(_NONINT),
              "sigma": big_n * (big_n - 1 + g + d)}
        ops.append(_eval_op("hc", ps, _wide_grid(rng, 41), terminating=True))
    # Non-terminating confluent Heun, half from the Poisson-weight family of (4.8).
    for slot in range(8):
        if slot % 2:
            n, j = rng.randint(1, 2), rng.randint(0, 4)
            ps = {"p": n, "gamma": j + 1, "delta": 0, "alpha": Fr(2 * j + 1, 2),
                  "sigma": 2 * n * (2 * j + 1)}
        else:
            ps = {"p": rng.choice([Fr(1, 2), Fr(1), Fr(-1, 2)]), "gamma": rng.choice(_POS),
                  "delta": rng.choice([Fr(0), Fr(1, 2), Fr(1)]), "alpha": rng.choice(_NONINT),
                  "sigma": rng.choice(_SMALL)}
        ops.append(_eval_op("hc", ps, _inner_grid(rng, 13), terminating=False))
    for big_n in (4, 8, 10):
        ps = {"a": -big_n, "b": rng.choice(_NONINT + _POS), "c": rng.choice(_POS)}
        ops.append(_eval_op("2f1", ps, _wide_grid(rng, 41)))
    for _ in range(4):
        ps = {"a": rng.choice(_NONINT), "b": rng.choice(_NONINT + _POS), "c": rng.choice(_POS)}
        ops.append(_eval_op("2f1", ps, _inner_grid(rng, 41)))
    for n in (8, 16, 24):
        ops.append(_eval_op("legendre", {"n": n}, (-Fr(rng.randint(4, 8), 8), Fr(1), 41)))
    for n in (6, 12):
        ops.append(_eval_op("legendre", {"n": n}, (-Fr(rng.randint(4, 8), 8), Fr(1), 21), exact=True))
    for n in (3, 6, 8):
        ops.append(_eval_op("F", {"n": n}, (Fr(0), Fr(rng.randint(4, 7), 8), 21), exact=True))
        ops.append(_eval_op("U", {"n": n}, (Fr(0), Fr(rng.randint(8, 16), 8), 21), exact=True))
    for n in (2, 4, 6):
        ops.append(_eval_op("G", {"n": n}, (Fr(0), Fr(rng.randint(20, 24), 8), 101)))
    for n in (2, 3, 5):
        ops.append(_eval_op("J", {"n": n}, _inner_grid(rng, 101)))
    for n, j in ((1, 0), (2, 1), (4, 0)):
        ops.append(_eval_op("K", {"n": n, "j": j}, (Fr(0), Fr(rng.randint(12, 16), 8), 101)))


def eval_ops(rng: random.Random) -> list[Op]:
    ops: list[Op] = []
    for _ in range(ROUNDS["eval"]):
        _eval_round(rng, ops)
    rng.shuffle(ops)
    return ops


def make_ops(workload: str, seed: int) -> list[Op]:
    rng = random.Random(f"{workload}:{seed}")
    return {"verify": verify_ops, "entropy": entropy_ops, "eval": eval_ops}[workload](rng)
