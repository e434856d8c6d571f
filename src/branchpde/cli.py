"""Command-line entry point: solve (Monte Carlo estimation), stability
(condition reports and horizon sweeps), progeny (series tables), verify
(built-in suite of 12 consistency checks).

JSON config in, CSV/JSON out, no interactive mode.  Exit codes are part of
the contract: solve returns 0 on success, 2 when the lifetime model fails
validation, 3 on config errors; stability returns 1 when conditions fail
(the report is still written); verify returns 0 iff every check passes.  A
config error, a config that is not a JSON object among them, is one stderr
line "config error: ..." and exit 3, as is a stability bound that is not a
finite float, or a stability `lifetime` block whose lambda is not the
config's `lambda`, or a top-level field the command does not read
(_SOLVE_FIELDS, _STABILITY_FIELDS, _PROGENY_FIELDS), or a key a nested
block does not read: `code` reads alpha and j, `caps` max_branches and
max_generation, `lifetime` kind and lambda (and points when the kind is
tabulated), each `points` row t and x, and `regime` kind and theta (and r
when the kind is factorial), or a nested field that is missing or of the
wrong type, which the line names with its block ("config field 'points.x'
is missing", "config field 'code.alpha' must be a list, got 5").  So is a
solve `n`, or a progeny `d`, `kmax` or `alpha_max`, past sys.maxsize
(2^63 - 1), which no range or list can index, and a solve `seed` (from
the config or --seed), or a seed plus one of its `seed_offsets`, outside
the int64 range [-2^63, 2^63 - 1], on which the trees' seed mod 2^64 is
one to one; all are checked before anything is allocated.  solve samples
in one process, so `workers` (or --workers) must be 1; the field stays in
the resolved config it echoes.  Its `mean` estimator is median-of-means
with one group.  Log level comes from the BRANCHPDE_LOG environment
variable.

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
from dataclasses import asdict, fields
from fractions import Fraction

from .lifetimes import LifetimeModel, model_from_config
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


# the top-level config fields each command reads; any other is refused
_SOLVE_FIELDS = {"problem", "T", "lifetime", "code", "points", "seed_offsets", "n", "seed",
                "workers", "caps", "estimator", "groups", "format"}
_STABILITY_FIELDS = {"d", "regime", "lambda", "delta1", "delta2", "m_max", "sweep_T", "T", "lifetime"}
_PROGENY_FIELDS = {"d", "regime", "kmax", "alpha_max", "exact"}


def _known(cfg: dict, fields: set, block: str = "config") -> dict:
    """cfg, if it is an object and every field of it is among the fields a
    command reads; else ConfigError naming the block (the top level is
    "config") and the first other field."""
    if not isinstance(cfg, dict):
        raise ConfigError(f"a {block} block must be an object, got {cfg!r}")
    unknown = sorted(set(cfg) - fields)
    if unknown:
        raise ConfigError(f"unknown {block} field {unknown[0]!r}; known: {', '.join(sorted(fields))}")
    return cfg


_KINDS = {str: "a string", list: "a list", dict: "an object"}


def _require(cfg: dict, field: str, kind=None):
    """The value of a field, named as its messages name it: "T" at the top
    level, "points.x" for the key x of a points block."""
    key = field.rpartition(".")[2]
    if key not in cfg:
        raise ConfigError(f"config field {field!r} is missing")
    value = cfg[key]
    if kind is not None and not isinstance(value, kind):
        raise ConfigError(f"config field {field!r} must be {_KINDS[kind]}, got {value!r}")
    return value


def _as_float(value) -> float:
    """float(value), or inf where that overflows."""
    try:
        return float(value)
    except OverflowError:
        return math.inf


def _finite(field: str, value) -> float:
    """value as a finite float; a boolean is refused, not read as 0 or 1."""
    x = _as_float(value) if type(value) in (int, float) else math.nan
    if not math.isfinite(x):
        raise ConfigError(f"config field {field!r} must be a finite number, got {value!r}")
    return x


def _positive(field: str, value) -> float:
    x = _finite(field, value)
    if x <= 0:
        raise ConfigError(f"config field {field!r} must be > 0, got {x}")
    return x


def _lifetime(block) -> LifetimeModel:
    """The `lifetime` block as a model, its lambda finite and > 0."""
    if not isinstance(block, dict):
        raise ConfigError(f"config field 'lifetime' must be an object, got {block!r}")
    keys = {"kind", "lambda", "points"} if block.get("kind") == "tabulated" else {"kind", "lambda"}
    _known(block, keys, "lifetime")
    _positive("lifetime.lambda", _require(block, "lifetime.lambda"))
    if "points" in keys:
        _require(block, "lifetime.points", list)
    return model_from_config(block)


def _integer(field: str, value, low: int | None = None) -> int:
    """value as an int (>= low, if given); a non-integral number or a
    boolean is refused, not truncated."""
    if type(value) is float and value.is_integer():
        value = int(value)
    if type(value) is not int:
        raise ConfigError(f"config field {field!r} must be an integer, got {value!r}")
    if low is not None and value < low:
        raise ConfigError(f"config field {field!r} must be >= {low}, got {value}")
    return value


def _at_least(cfg: dict, field: str, low: int, default=None) -> int:
    """An integer field (named as in _require) >= low; a top-level field
    with a default may be missing."""
    value = _require(cfg, field) if default is None else cfg.get(field, default)
    return _integer(field, value, low)


def _size(cfg: dict, field: str, default=None, low: int = 1) -> int:
    """A count that sizes a range or a list: an int from low to
    sys.maxsize, past which Python cannot index it."""
    value = _at_least(cfg, field, low, default)
    if value > sys.maxsize:
        raise ConfigError(f"config field {field!r} must be <= {sys.maxsize}, got {value}")
    return value


def _regime(cfg: dict, d: int):
    """The `regime` block as Factorial(theta, r) or Exponential(theta).
    kind defaults to factorial; theta and r are numbers or rational strings
    ("3/2"), read as Fractions (float(Fraction(str(x))) == x for a finite
    float x).  Each parameter, as a float, and the radius R(d) must be
    finite and > 0."""
    from .stability import Exponential, Factorial

    block = _require(cfg, "regime", dict)
    regime = {c.name: c for c in (Factorial, Exponential)}.get(
        block.get("kind", "factorial")
    )
    if regime is None:
        raise ConfigError("regime.kind must be factorial|exponential")
    _known(block, {"kind"} | {field.name for field in fields(regime)}, "regime")
    params = []
    for field in fields(regime):
        value = _require(block, f"regime.{field.name}")
        try:
            q = Fraction(str(value))
        except (ValueError, ZeroDivisionError):
            raise ConfigError(
                f"regime.{field.name} must be a finite number or a ratio, got {value!r}"
            ) from None
        if q <= 0:
            raise ConfigError(f"regime.{field.name} must be > 0, got {value!r}")
        if not 0 < _as_float(q) < math.inf:
            raise ConfigError(f"regime.{field.name} = {value!r} is outside the float range")
        params.append(q)
    regime = regime(*params)
    try:
        radius = regime.radius(d)
    except (OverflowError, ZeroDivisionError):
        radius = math.nan
    if not 0 < radius < math.inf:
        raise ConfigError(f"regime {block!r} has no float radius R(d) > 0 at d = {d}")
    return regime


def _resolve_solve_config(cfg: dict, args) -> dict:
    from .tree import Caps

    resolved = dict(cfg)
    if args.seed is not None:
        resolved["seed"] = args.seed
    if args.workers is not None:
        resolved["workers"] = args.workers
    resolved.setdefault("seed", 0)
    resolved.setdefault("workers", 1)
    resolved.setdefault("n", 100_000)
    resolved.setdefault("estimator", "mean")
    resolved.setdefault("groups", 9)
    resolved.setdefault("code", {"alpha": [0], "j": -1})
    resolved.setdefault("lifetime", {"kind": "exponential", "lambda": 1.0})
    resolved.setdefault("caps", asdict(Caps()))
    return resolved


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

    try:
        cfg = _resolve_solve_config(_known(_load_config(args.config), _SOLVE_FIELDS), args)
        name = _require(cfg, "problem", str)
        T = _positive("T", _require(cfg, "T"))
        model = _lifetime(cfg["lifetime"])
        problem = problems.make_problem(name, T)
        code_cfg = _known(_require(cfg, "code", dict), {"alpha", "j"}, "code")
        code = Code(
            tuple(_integer("code.alpha", a, 0) for a in _require(code_cfg, "code.alpha", list)),
            _at_least(code_cfg, "code.j", -1),
        )
        if len(code.alpha) != problem.d:
            raise ConfigError(
                f"code alpha has dimension {len(code.alpha)}, problem wants {problem.d}"
            )
        points = _require(cfg, "points", list)
        parsed_points = []
        for row in points:
            _known(row, {"t", "x"}, "points")
            t = _finite("points.t", _require(row, "points.t"))
            x = [_finite("points.x", v) for v in _require(row, "points.x", list)]
            if len(x) != problem.d:
                raise ConfigError(f"point {row} has wrong dimension for d={problem.d}")
            if not 0 <= t <= T:
                raise ConfigError(f"point {row} has t outside [0, T] = [0, {T}]")
            parsed_points.append((t, x))
        offsets = cfg.get("seed_offsets", [0] * len(parsed_points))
        if not isinstance(offsets, list) or len(offsets) != len(parsed_points):
            raise ConfigError(
                f"config field 'seed_offsets' must list one offset per point ({len(parsed_points)})"
            )
        offsets = [_integer("seed_offsets", off) for off in offsets]
        n = _size(cfg, "n")
        seed = _integer("seed", cfg["seed"])
        # the trees read a seed mod 2^64, which is one to one on the int64 range
        for value in [seed] + [seed + off for off in offsets]:
            if not -(1 << 63) <= value < 1 << 63:
                raise ConfigError(
                    "config field 'seed', and 'seed' plus each of 'seed_offsets', must be "
                    f"in the int64 range [-2^63, 2^63 - 1], got {value}"
                )
        workers = _at_least(cfg, "workers", 1)
        if workers != 1:
            raise ConfigError(
                f"config field 'workers' (or --workers) must be 1, got {workers}: "
                "sampling runs in one process"
            )
        caps_cfg = _known(_require(cfg, "caps", dict), {f.name for f in fields(Caps)}, "caps")
        caps = Caps(
            max_branches=_at_least(caps_cfg, "caps.max_branches", 1),
            max_generation=_at_least(caps_cfg, "caps.max_generation", 0),
        )
        estimator_kind = cfg["estimator"]
        if estimator_kind not in ("mean", "mom"):
            raise ConfigError(f"config field 'estimator' must be mean|mom")
        groups = _at_least(cfg, "groups", 1) if estimator_kind == "mom" else 1
        if groups % 2 == 0 or groups > n:
            raise ConfigError(
                f"config field 'groups' must be odd and between 1 and n = {n}, got {groups}"
            )
        out_fmt = args.format or cfg.get("format", "csv")
        if out_fmt not in ("csv", "json"):
            raise ConfigError(f"config field 'format' must be csv|json, got {out_fmt!r}")
    except (KeyError, TypeError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3

    setup = ProblemSetup(oracle=problem.oracle, model=model, d=problem.d)
    rows = []
    try:
        for (t, x), off in zip(parsed_points, offsets):
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


def cmd_stability(args) -> int:
    from . import progeny, stability

    try:
        cfg = _known(_load_config(args.config), _STABILITY_FIELDS)
        d = _at_least(cfg, "d", 1, default=1)
        regime = _regime(cfg, d)
        lam = _positive("lambda", _require(cfg, "lambda"))
        delta1 = _positive("delta1", _require(cfg, "delta1"))
        delta2 = _positive("delta2", _require(cfg, "delta2"))
        m_max = _at_least(cfg, "m_max", 0, default=3)
        sweep = [_finite("sweep_T", TT) for TT in cfg.get("sweep_T") or []]
        T = _finite("T", cfg["T"]) if "T" in cfg else None
        if T is None and not sweep:
            raise ConfigError("config needs either 'T' or 'sweep_T'")
        if not all(TT >= 0 for TT in sweep + ([] if T is None else [T])):
            raise ConfigError("horizons 'T' and 'sweep_T' must be >= 0")
        model = _lifetime(cfg.get("lifetime", {"kind": "exponential", "lambda": lam}))
        if model.lam != lam:
            raise ConfigError(f"lifetime.lambda = {model.lam!r} differs from lambda = {lam!r}")
    except (KeyError, TypeError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3

    report: dict = {"config": cfg}
    overall = True

    def conditions_at(TT: float) -> tuple[stability.GrowthParams, dict]:
        p = stability.GrowthParams(regime=regime, delta1=delta1, delta2=delta2,
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
                        for m in range(m_max + 1)]
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


def cmd_progeny(args) -> int:
    from . import progeny

    try:
        cfg = _known(_load_config(args.config), _PROGENY_FIELDS)
        d = _size(cfg, "d", default=1)
        regime = _regime(cfg, d)
        kmax = _size(cfg, "kmax", default=6, low=0)
        alpha_max = _size(cfg, "alpha_max", default=3, low=0)
        exact = cfg.get("exact", True)
        if type(exact) is not bool:
            raise ConfigError(f"config field 'exact' must be true or false, got {exact!r}")
    except (KeyError, TypeError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3

    radius, g = regime.radius(d), regime.g()
    lines = ["alpha,k,value_num,value_den,value_float,regime,radius"]
    for alpha in mi_upto(alpha_max, d):
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
