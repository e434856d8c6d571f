"""Command-line entry point: solve (Monte Carlo estimation), stability
(condition reports and horizon sweeps), progeny (series tables), verify
(built-in suite of 12 consistency checks).

JSON config in, CSV/JSON out, no interactive mode.  Exit codes are part of
the contract: solve returns 0 on success, 2 when the lifetime model fails
validation, 3 on config errors; stability returns 1 when conditions fail
(the report is still written); verify returns 0 iff every check passes.  A
config error, a config that is not a JSON object among them, is one stderr
line "config error: ..." and exit 3.

Each command reads its config through one field table (`cmd_solve`'s,
`_STABILITY`, `_PROGENY`), and each nested block through its own (`_CODE`,
`_CAPS`, `_POINT`, and `_LIFETIME` and `_REGIME` by kind): every key the
block may hold, with its reader and default.  Any other key, a missing
key and a value its reader refuses are config errors named with their
block ("config field 'points.x' is missing").  The checks that span fields
follow the walk, before anything is allocated; a stability bound that is
not a finite float is a config error too.  solve samples in one process, so `workers` (or --workers) must be 1, and
the resolved config it echoes appends its defaults.  Its `mean` estimator
is median-of-means with one group.  Log level comes from the BRANCHPDE_LOG
environment variable.

Each command loads only the half it runs: this module imports neither
half at the top, and the package's `__init__` imports nothing.
`cmd_solve` imports the sampler (`estimator`, `tree`, `problems`),
`cmd_stability`, `cmd_progeny` and `_regime` the analyzer (`stability`,
`progeny`), and `cmd_verify` imports `verify`, when they run.  So `solve`
loads no analyzer module, and `progeny` and `stability` no sampler module.
"""

from __future__ import annotations

import argparse
import io
import json
import logging
import math
import os
import sys
from dataclasses import asdict
from fractions import Fraction

from .lifetimes import LifetimeModel, exponential_model, tabulated_model
from .multiindex import mi_upto


class ConfigError(ValueError):
    pass


def _setup_logging() -> None:
    level = os.environ.get("BRANCHPDE_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config must be a JSON object, got {type(cfg).__name__}")
    return cfg


# A field table maps each key of a config block to (reader, default), where
# reader(field, value) returns the value as the command uses it or raises a
# ConfigError naming the field ("T", or "points.x" for the key x of a points
# row), and the default is read, as a config would give it, when the key is
# absent.  REQUIRED marks a key with no default; a None default reads as None.
REQUIRED = object()


def _fields(cfg, table: dict, block: str = "config") -> dict:
    """Each key of the table read from the block cfg ("config" is the top
    level).  A block that is not an object, a key the table does not hold
    and a missing required key are refused; a key given as null is read,
    not taken as absent."""
    if not isinstance(cfg, dict):
        raise ConfigError(f"a {block} block must be an object, got {cfg!r}")
    unknown = sorted(set(cfg) - set(table))
    if unknown:
        raise ConfigError(f"unknown {block} field {unknown[0]!r}; known: {', '.join(sorted(table))}")
    values = {}
    for key, (read, default) in table.items():
        field = key if block == "config" else f"{block}.{key}"
        if key in cfg:
            values[key] = read(field, cfg[key])
        elif default is REQUIRED:
            raise ConfigError(f"config field {field!r} is missing")
        else:
            values[key] = None if default is None else read(field, default)
    return values


def _number(low=None, strict=False):
    """The reader of a finite float, >= low (> low if strict) where low is
    given; a boolean is refused, not read as 0 or 1."""

    def read(field, value) -> float:
        try:
            x = float(value) if type(value) in (int, float) else math.nan
        except OverflowError:
            x = math.inf
        if not math.isfinite(x):
            raise ConfigError(f"config field {field!r} must be a finite number, got {value!r}")
        if low is not None and (x <= low if strict else x < low):
            raise ConfigError(
                f"config field {field!r} must be {'>' if strict else '>='} {low}, got {x}"
            )
        return x

    return read


def _integer(low=None, high=None):
    """The reader of an int from low to high, where given; an integral float
    is read as its int, and a non-integral number or a boolean is refused,
    not truncated.  A count that sizes a range or a list stops at
    sys.maxsize, past which nothing can index it."""

    def read(field, value) -> int:
        if type(value) is float and value.is_integer():
            value = int(value)
        if type(value) is not int:
            raise ConfigError(f"config field {field!r} must be an integer, got {value!r}")
        if low is not None and value < low:
            raise ConfigError(f"config field {field!r} must be >= {low}, got {value}")
        if high is not None and value > high:
            raise ConfigError(f"config field {field!r} must be <= {high}, got {value}")
        return value

    return read


def _text(*choices):
    """The reader of a string among choices."""

    def read(field, value) -> str:
        if not (isinstance(value, str) and value in choices):
            raise ConfigError(f"config field {field!r} must be {'|'.join(choices)}, got {value!r}")
        return value

    return read


def _list(item, size=None):
    """The reader of a list (of size entries, where given) each entry of
    which item reads under the list's field."""

    def read(field, value) -> list:
        if not (isinstance(value, list) and size in (None, len(value))):
            what = "a list" if size is None else f"a list of {size} entries"
            raise ConfigError(f"config field {field!r} must be {what}, got {value!r}")
        return [item(field, entry) for entry in value]

    return read


def _boolean(field, value) -> bool:
    if type(value) is not bool:
        raise ConfigError(f"config field {field!r} must be true or false, got {value!r}")
    return value


def _ratio(field, value) -> Fraction:
    """A number or a rational string ("3/2") as a Fraction (float(Fraction(
    str(x))) == x for a finite float x), > 0 and a float > 0."""
    try:
        q = Fraction(str(value))
        positive = 0 < float(q) < math.inf
    except (ValueError, ZeroDivisionError, OverflowError):
        positive = False
    if not positive:
        raise ConfigError(f"config field {field!r} must be a ratio > 0 in float range, got {value!r}")
    return q


def _block(table):
    """The reader of a nested block that table reads."""
    return lambda field, value: _fields(value, table, field)


def _kinded(tables: dict, default: str):
    """The reader of a block whose keys depend on its kind (default when
    absent): the block read by the table of that kind, with its kind."""
    kind = _text(*tables)

    def read(field, value) -> dict:
        table = {}
        if isinstance(value, dict):  # else _fields refuses it
            table = tables[kind(f"{field}.kind", value.get("kind", default))]
        return _fields(value, {"kind": (kind, default), **table}, field)

    return read


_CODE = {"alpha": (_list(_integer(0)), REQUIRED), "j": (_integer(-1), REQUIRED)}
_CAPS = {"max_branches": (_integer(1), REQUIRED), "max_generation": (_integer(0), REQUIRED)}
_POINT = {"t": (_number(), REQUIRED), "x": (_list(_number()), REQUIRED)}
_RATE = {"lambda": (_number(0, True), REQUIRED)}
_LIFETIME = _kinded({
    "exponential": _RATE,
    "tabulated": {**_RATE, "points": (_list(_list(_number(), 2)), REQUIRED)},
}, "exponential")
_THETA = {"theta": (_ratio, REQUIRED)}
_REGIME = _kinded({"factorial": {**_THETA, "r": (_ratio, REQUIRED)}, "exponential": _THETA},
                  "factorial")


def _lifetime(field, value) -> LifetimeModel:
    """A lifetime block as its model: exponential, or tabulated by
    [r, rho] knots."""
    block = _LIFETIME(field, value)
    if block["kind"] == "exponential":
        return exponential_model(block["lambda"])
    try:
        return tabulated_model(block["points"], block["lambda"])
    except ValueError as exc:  # knots that make no density
        raise ConfigError(f"config field '{field}.points' must tabulate a density: {exc}") from None


def _regime(field, value):
    """A regime block as Factorial(theta, r) or Exponential(theta)."""
    from .stability import Exponential, Factorial

    params = _REGIME(field, value)
    return {c.name: c for c in (Factorial, Exponential)}[params.pop("kind")](**params)


def _finite_radius(regime, d: int):
    """regime, if its radius R(d) is a float > 0."""
    try:
        radius = regime.radius(d)
    except (OverflowError, ZeroDivisionError):
        radius = math.nan
    if not 0 < radius < math.inf:
        raise ConfigError(f"config field 'regime' has no float radius R(d) > 0 at d = {d}")
    return regime


def cmd_solve(args) -> int:
    from .estimator import (
        AllSamplesCapped,
        AssumptionHViolated,
        ProblemSetup,
        median_of_means,
        write_csv,
    )
    from .mechanism import Code
    from .tree import Caps
    from . import problems

    table = {
        "problem": (_text(*problems.REGISTRY), REQUIRED),
        "T": (_number(0, True), REQUIRED),
        "points": (_list(_block(_POINT)), REQUIRED),
        "seed_offsets": (_list(_integer()), None),
        "format": (_text("csv", "json"), None),
        # the resolved config appends these defaults in this order
        "seed": (_integer(), 0),
        "workers": (_integer(1, 1), 1),
        "n": (_integer(1, sys.maxsize), 100_000),
        "estimator": (_text("mean", "mom"), "mean"),
        "groups": (_integer(1), 9),
        "code": (_block(_CODE), {"alpha": [0], "j": -1}),
        "lifetime": (_lifetime, {"kind": "exponential", "lambda": 1.0}),
        "caps": (_block(_CAPS), asdict(Caps())),
    }
    try:
        cfg = _load_config(args.config)
        cfg.update((key, arg) for key, arg in (("seed", args.seed), ("workers", args.workers))
                   if arg is not None)
        read = _fields(cfg, table)
        cfg.update((key, default) for key, (_, default) in table.items()
                   if key not in cfg and default is not None)
        T, n, seed = read["T"], read["n"], read["seed"]
        problem = problems.make_problem(read["problem"], T)
        d = problem.d
        code = Code(tuple(read["code"]["alpha"]), read["code"]["j"])
        if len(code.alpha) != d:
            raise ConfigError(f"config field 'code.alpha' must have {d} entries, got {code.alpha}")
        points = [(point["t"], point["x"]) for point in read["points"]]
        for t, x in points:
            if len(x) != d:
                raise ConfigError(f"config field 'points.x' must have {d} entries, got {x}")
            if not 0 <= t <= T:
                raise ConfigError(f"config field 'points.t' = {t} is outside [0, T] = [0, {T}]")
        offsets = [0] * len(points) if read["seed_offsets"] is None else read["seed_offsets"]
        if len(offsets) != len(points):
            raise ConfigError(f"config field 'seed_offsets' needs one entry per point, got {offsets}")
        # the trees read a seed mod 2^64, which is one to one on the int64 range
        for value in [seed] + [seed + off for off in offsets]:
            if not -(1 << 63) <= value < 1 << 63:
                raise ConfigError(
                    "config field 'seed', and 'seed' plus each of 'seed_offsets', must be "
                    f"in the int64 range [-2^63, 2^63 - 1], got {value}"
                )
        groups = read["groups"] if read["estimator"] == "mom" else 1
        if groups % 2 == 0 or groups > n:
            raise ConfigError(
                f"config field 'groups' must be odd and between 1 and n = {n}, got {groups}"
            )
        out_fmt = args.format or read["format"] or "csv"
    except (KeyError, TypeError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3

    setup = ProblemSetup(oracle=problem.oracle, model=read["lifetime"], d=d)
    caps = Caps(**read["caps"])
    rows = []
    try:
        for (t, x), off in zip(points, offsets):
            est = median_of_means(code, t, x, T, setup, n, groups, seed + off, caps)
            rows.append((t, tuple(x), est))
    except AssumptionHViolated as exc:
        print(f"lifetime model fails validation: {exc}", file=sys.stderr)
        return 2
    except AllSamplesCapped as exc:
        print(f"estimation failed: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:  # a config the sampler refuses, e.g. a code past int64
        print(f"config error: {exc}", file=sys.stderr)
        return 3

    buf = io.StringIO()
    if out_fmt == "csv":
        write_csv(buf, rows, code, seed, offsets)
        payload = buf.getvalue()
    else:
        payload = json.dumps(
            {
                "config": cfg,
                "rows": [
                    {
                        "t": t,
                        "x": list(x),
                        "mean": est.mean,
                        "std_error": est.std_error,
                        "n": est.n_samples,
                        "n_capped": est.n_capped,
                        "stats": asdict(est.stats) if est.stats is not None else None,
                    }
                    for t, x, est in rows
                ],
            },
            indent=2,
        ) + "\n"
    _emit(args.out, payload)
    if args.out and out_fmt == "csv":
        # resolved config sidecar for bit-exact re-runs
        with open(args.out + ".config.json", "w") as fh:
            json.dump(cfg, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0


_STABILITY = {
    "d": (_integer(1, sys.maxsize), 1),
    "regime": (_regime, REQUIRED),
    "lambda": (_number(0, True), REQUIRED),
    "delta1": (_number(0, True), REQUIRED),
    "delta2": (_number(0, True), REQUIRED),
    "m_max": (_integer(0), 3),
    "T": (_number(0), None),
    "sweep_T": (_list(_number(0)), []),
    "lifetime": (_lifetime, None),
}


def cmd_stability(args) -> int:
    from . import progeny, stability

    try:
        cfg = _load_config(args.config)
        read = _fields(cfg, _STABILITY)
        d, lam, T, sweep = read["d"], read["lambda"], read["T"], read["sweep_T"]
        regime = _finite_radius(read["regime"], d)
        if T is None and not sweep:
            raise ConfigError("config needs either 'T' or 'sweep_T'")
        model = read["lifetime"] or exponential_model(lam)
        if model.lam != lam:
            raise ConfigError(f"lifetime.lambda = {model.lam!r} differs from lambda = {lam!r}")
    except (KeyError, TypeError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3

    report: dict = {"config": cfg}
    overall = True

    def conditions_at(TT: float) -> tuple[stability.GrowthParams, dict]:
        p = stability.GrowthParams(regime=regime, delta1=read["delta1"], delta2=read["delta2"],
                                   lam=lam, T=TT, d=d)
        rep = stability.check_conditions(p, model)
        return p, {
            "T": TT,
            "pass": rep.passed,
            "conditions": [
                {"name": c.name, "lhs": c.lhs, "rhs": c.rhs, "pass": c.passed}
                for c in rep.conditions
            ],
        }

    if T is not None:
        p, main = conditions_at(T)
        report["report"] = main
        overall = main["pass"]
        if overall:
            try:
                x = p.dominating_argument()
                rows = [progeny.dominating_bound((m,) + (0,) * (d - 1), p, x, 1.0)
                        for m in range(read["m_max"] + 1)]
            except OverflowError as exc:
                print(f"config error: {exc}", file=sys.stderr)
                return 3
            report["hbound"] = [
                {"alpha_order": m, **{k: v for k, v in row.items() if k != "alpha"}}
                for m, row in enumerate(rows)
            ]
    if isinstance(regime, stability.Factorial):
        report["t_max"] = stability.max_horizon(regime, lam, d)
        report["lambda_free_envelope"] = regime.horizon_threshold(d)
    if sweep:
        report["sweep"] = [conditions_at(TT)[1] for TT in sweep]

    report["pass"] = overall
    _emit(args.out, json.dumps(report, indent=2) + "\n")
    return 0 if overall else 1


_PROGENY = {
    "d": (_integer(1, sys.maxsize), 1),
    "regime": (_regime, REQUIRED),
    "kmax": (_integer(0, sys.maxsize), 6),
    "alpha_max": (_integer(0, sys.maxsize), 3),
    "exact": (_boolean, True),
}


def cmd_progeny(args) -> int:
    from . import progeny

    try:
        read = _fields(_load_config(args.config), _PROGENY)
        d, kmax, exact = read["d"], read["kmax"], read["exact"]
        regime = _finite_radius(read["regime"], d)
    except (KeyError, TypeError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3

    radius, g = regime.radius(d), regime.g()
    lines = ["alpha,k,value_num,value_den,value_float,regime,radius"]
    for alpha in mi_upto(read["alpha_max"], d):
        table = progeny.ahat_recursion(g, d, alpha, kmax)
        alpha_txt = "|".join(str(a) for a in alpha)
        for k in range(kmax + 1):
            v = table.values[(alpha, k)]
            frac = Fraction(v)
            num, den = (frac.numerator, frac.denominator) if exact else ("", "")
            lines.append(
                f"{alpha_txt},{k},{num},{den},{float(v)!r},{regime.name},{radius!r}"
            )
    _emit(args.out, "\n".join(lines) + "\n")
    return 0


def cmd_verify(args) -> int:
    from .verify import run_suite

    results = run_suite(fault=getattr(args, "inject_fault", False))
    width = max(len(name) for name, _, _ in results)
    for name, ok, error in results:
        print(f"{name:<{width}}  {'PASS' if ok else 'FAIL'}" + (f"  {error}" if error else ""))
    n_fail = sum(1 for _, ok, _ in results if not ok)
    print(f"{len(results) - n_fail}/{len(results)} checks passed")
    return 0 if n_fail == 0 else 1


def _emit(out_path, payload: str) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def main(argv=None) -> int:
    _setup_logging()
    parser = argparse.ArgumentParser(
        prog="branchpde",
        description="Branching Monte Carlo solver and stability analyzer "
        "for semilinear heat equations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="Monte Carlo estimation from a JSON config")
    p_solve.add_argument("--config", required=True)
    p_solve.add_argument("--out", default=None)
    p_solve.add_argument("--seed", type=int, default=None)
    p_solve.add_argument("--workers", type=int, default=None)
    p_solve.add_argument("--format", choices=("csv", "json"), default=None)
    p_solve.set_defaults(func=cmd_solve)

    p_stab = sub.add_parser("stability", help="integrability condition report")
    p_stab.add_argument("--config", required=True)
    p_stab.add_argument("--out", default=None)
    p_stab.set_defaults(func=cmd_stability)

    p_prog = sub.add_parser("progeny", help="dominating-series tables as CSV")
    p_prog.add_argument("--config", required=True)
    p_prog.add_argument("--out", default=None)
    p_prog.set_defaults(func=cmd_progeny)

    p_ver = sub.add_parser("verify", help="run the built-in consistency suite")
    p_ver.add_argument("--inject-fault", action="store_true", help=argparse.SUPPRESS)
    p_ver.set_defaults(func=cmd_verify)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
