import contextlib
import copy
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction
from functools import reduce
from operator import getitem
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from branchpde import cli, verify


SOLVE = {"problem": "b2", "T": 0.1, "n": 200, "points": [{"t": 0.0, "x": [0.0]}]}


def run_solve(tmp_path, capsys, **fields):
    cfg = {**SOLVE, **fields}
    path = tmp_path / "solve.json"
    path.write_text(json.dumps(cfg))
    code = cli.main(["solve", "--config", str(path)])
    out, err = capsys.readouterr()
    return code, out, err


def test_solve_writes_one_row_per_point(tmp_path, capsys):
    points = [{"t": 0.0, "x": [0.0]}, {"t": 0.05, "x": [0.5]}]
    code, out, _ = run_solve(tmp_path, capsys, points=points, seed_offsets=[0, 1])
    assert code == 0
    assert len(out.splitlines()) == 1 + len(points)


@pytest.mark.parametrize("offsets", [[0], [0, 1, 2], 0])
def test_solve_refuses_seed_offsets_not_matching_points(tmp_path, capsys, offsets):
    points = [{"t": 0.0, "x": [0.0]}, {"t": 0.05, "x": [0.5]}]
    code, out, err = run_solve(tmp_path, capsys, points=points, seed_offsets=offsets)
    assert code == 3
    assert out == "" and "seed_offsets" in err


@pytest.mark.parametrize("t", [0.2, -0.01])
def test_solve_refuses_point_outside_horizon(tmp_path, capsys, t):
    code, out, err = run_solve(tmp_path, capsys, points=[{"t": t, "x": [0.0]}])
    assert code == 3
    assert out == "" and "outside [0, T]" in err


def test_verify_prints_why_a_check_crashed(monkeypatch, capsys):
    for name in dir(verify):
        if name.startswith("_check_"):
            monkeypatch.setattr(verify, name, lambda *args: True)

    def crash():
        raise ZeroDivisionError("division by zero in the check")

    monkeypatch.setattr(verify, "_check_radius", crash)
    assert cli.main(["verify"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "11/12 checks passed"
    [failed] = [line for line in lines if "FAIL" in line]
    assert failed.split() == [
        "radius-ratio", "FAIL", "ZeroDivisionError:", "division", "by", "zero", "in", "the", "check"
    ]
    assert all(line.endswith("PASS") for line in lines[:-1] if line is not failed)


def test_solve_mom_samples_each_index_once_per_point(tmp_path, capsys, monkeypatch):
    from branchpde import estimator

    sampled = []
    original = estimator._sample_values

    def recording(setup, c, t, x, T, indices, seed, caps):
        sampled.append((seed, indices))
        return original(setup, c, t, x, T, indices, seed, caps)

    monkeypatch.setattr(estimator, "_sample_values", recording)
    points = [{"t": 0.0, "x": [0.0]}, {"t": 0.05, "x": [0.5]}]
    code, out, _ = run_solve(
        tmp_path, capsys, points=points, seed_offsets=[0, 1], seed=5, n=90,
        estimator="mom", groups=3,
    )
    assert code == 0 and len(out.splitlines()) == 3
    for seed in (5, 6):
        indices = sorted(i for s, r in sampled if s == seed for i in r)
        assert indices == list(range(90))


@pytest.mark.parametrize("kind", ["mean", "mom"])
def test_solve_json_rows_carry_tree_stats(tmp_path, capsys, kind):
    path = tmp_path / "solve.json"
    path.write_text(json.dumps({
        "problem": "b2", "T": 0.5, "n": 300, "estimator": kind, "groups": 3,
        "code": {"alpha": [3], "j": 0}, "lifetime": {"kind": "exponential", "lambda": 2.0},
        "points": [{"t": 0.0, "x": [0.0]}, {"t": 0.5, "x": [0.0]}],
    }))
    assert cli.main(["solve", "--config", str(path), "--format", "json"]) == 0
    inner, terminal = json.loads(capsys.readouterr().out)["rows"]
    stats = inner["stats"]
    assert set(stats) == {"branches_mean", "branches_p99", "branches_max", "max_generation"}
    assert 1.0 <= stats["branches_mean"] <= stats["branches_p99"] <= stats["branches_max"]
    assert stats["max_generation"] >= 1
    assert terminal["stats"] is None  # t = T: no tree is sampled


@pytest.mark.parametrize("fields", [
    {"estimator": "mom", "groups": 4},
    {"estimator": "mom", "groups": -3},
    {"estimator": "mom", "groups": 5, "n": 3},
    {"n": 0},
    {"n": -5},
    {"workers": 0},
    {"workers": -2},
    {"workers": 2},
    {"code": {"alpha": [-1], "j": 0}},
    {"code": {"alpha": [0], "j": -3}},
    {"code": {"alpha": [1.5], "j": 0}},
], ids=["mom-even-groups", "mom-negative-groups", "mom-more-groups-than-n", "n-0", "n-negative",
        "workers-0", "workers-negative", "workers-2", "alpha-negative", "j-below-minus-one",
        "alpha-non-integral"])
def test_solve_refuses_bad_estimator_config(tmp_path, capsys, fields):
    code, out, err = run_solve(tmp_path, capsys, **fields)
    assert code == 3
    assert out == "" and "config error:" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("workers", ["0", "2"])
def test_solve_refuses_workers_other_than_one_on_the_command_line(tmp_path, capsys, workers):
    path = tmp_path / "solve.json"
    path.write_text(json.dumps({"problem": "b2", "T": 0.1, "n": 50, "points": [{"t": 0.0, "x": [0.0]}]}))
    assert cli.main(["solve", "--config", str(path), "--workers", workers]) == 3
    out, err = capsys.readouterr()
    assert out == "" and "config error:" in err and "workers" in err


@pytest.mark.parametrize("fields", [
    {"n": 2.9},
    {"estimator": "mom", "groups": 3.5},
    {"workers": 1.5},
    {"caps": {"max_branches": 1000.5, "max_generation": 200}},
    {"caps": {"max_branches": 1000, "max_generation": 20.2}},
    {"caps": {"max_branches": 0, "max_generation": 200}},
    {"caps": [1000, 200]},
    {"n": True},
    {"format": "xml"},
    {"T": True},
    {"lifetime": {"kind": "exponential", "lambda": True}},
    {"lifetime": {"lambda": float("inf")}},
    {"lifetime": [1.0]},
    {"points": [{"t": 0.0, "x": [float("nan")]}]},
    {"points": [{"t": 0.0, "x": [float("inf")]}]},
    {"T": 2.0, "points": [{"t": True, "x": [0.0]}]},
    {"points": [{"t": 0.0, "x": [False]}]},
], ids=["n", "groups", "workers", "max_branches", "max_generation", "max_branches-0", "caps-list",
        "n-bool", "format-xml", "T-bool", "lambda-bool", "lambda-inf", "lifetime-list", "x-nan",
        "x-inf", "t-bool", "x-bool"])
def test_solve_refuses_values_it_would_reinterpret(tmp_path, capsys, fields):
    code, out, err = run_solve(tmp_path, capsys, **fields)
    assert code == 3
    assert out == "" and "config error:" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("j", [-1, 0])
def test_solve_takes_a_code_past_the_float_factorial(tmp_path, capsys, j):
    # 171! is past the float range; the e^x jet behind b2's oracle goes on
    code, out, err = run_solve(tmp_path, capsys, code={"alpha": [171], "j": j})
    assert code == 0 and err == ""
    (row,) = out.splitlines()[1:]
    mean, std_error = (float(v) for v in row.split(",")[4:6])
    assert math.isfinite(mean) and 0 < std_error < math.inf


def test_solve_refuses_a_code_whose_offspring_law_passes_int64(tmp_path, capsys):
    # the config passes the parser; the sampler refuses the code when it
    # draws the first death's offspring entry
    code, out, err = run_solve(
        tmp_path, capsys, problem="constant", T=0.5, code={"alpha": [2000000], "j": 0}, n=10
    )
    assert code == 3 and out == ""
    assert err.startswith("config error: ") and len(err.splitlines()) == 1
    # the line names the code's alpha and the bound it passes
    assert "(2000000,)" in err and "2^62" in err


def test_verify_passes_every_check(capsys):
    assert cli.main(["verify"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "12/12 checks passed"
    assert len(lines) == 13 and all(line.split()[1:] == ["PASS"] for line in lines[:-1])


def test_solve_reads_integral_floats_as_integers(tmp_path, capsys):
    _, as_int, _ = run_solve(tmp_path, capsys, n=200, workers=1)
    code, as_float, _ = run_solve(tmp_path, capsys, n=200.0, workers=1.0)
    assert code == 0 and as_float == as_int


@pytest.mark.parametrize("fields", [
    {"seed": 2.7},
    {"seed": True},
    {"seed": "3"},
    {"seed_offsets": [0.9]},
    {"seed_offsets": [True]},
], ids=["seed-non-integral", "seed-bool", "seed-string", "offset-non-integral", "offset-bool"])
def test_solve_refuses_seeds_it_would_truncate(tmp_path, capsys, fields):
    code, out, err = run_solve(tmp_path, capsys, **fields)
    assert code == 3
    assert out == "" and "config error:" in err and "seed" in err


def test_solve_reads_integral_float_and_negative_seeds(tmp_path, capsys):
    _, as_int, _ = run_solve(tmp_path, capsys, seed=2, seed_offsets=[1])
    code, as_float, _ = run_solve(tmp_path, capsys, seed=2.0, seed_offsets=[1.0])
    assert code == 0 and as_float == as_int
    code, out, _ = run_solve(tmp_path, capsys, seed=-5, seed_offsets=[-1])
    assert code == 0 and len(out.splitlines()) == 2


def test_solve_mean_ignores_groups(tmp_path, capsys):
    code, out, _ = run_solve(tmp_path, capsys, groups=4)
    assert code == 0 and len(out.splitlines()) == 2


def run_command(tmp_path, capsys, command, cfg):
    path = tmp_path / f"{command}.json"
    path.write_text(json.dumps(cfg))
    code = cli.main([command, "--config", str(path)])
    out, err = capsys.readouterr()
    return code, out, err


PROGENY = {"regime": {"kind": "factorial", "theta": 1.5, "r": 1}, "d": 1, "kmax": 3, "alpha_max": 2}


@pytest.mark.parametrize("fields", [
    {"regime": {"kind": "foo", "theta": 1.5}},
    {"regime": {"kind": "factorial", "theta": 0, "r": 1}},
    {"regime": {"kind": "exponential", "theta": -1}},
    {"regime": {"kind": "factorial", "theta": 1.5, "r": 0}},
    {"d": 0},
    {"kmax": -1},
    {"alpha_max": -1},
    {"d": 1.5},
    {"kmax": 2.7},
    {"alpha_max": 1.5},
], ids=["kind-foo", "theta-0", "theta-negative", "r-0", "d-0", "kmax-negative", "alpha_max-negative",
        "d-non-integral", "kmax-non-integral", "alpha_max-non-integral"])
def test_progeny_refuses_bad_config(tmp_path, capsys, fields):
    code, out, err = run_command(tmp_path, capsys, "progeny", {**PROGENY, **fields})
    assert code == 3
    assert out == "" and "config error:" in err


def test_progeny_writes_every_alpha_and_order(tmp_path, capsys):
    code, out, _ = run_command(tmp_path, capsys, "progeny", PROGENY)
    assert code == 0
    assert len(out.splitlines()) == 1 + 3 * 4  # header, |alpha| <= 2 by k <= 3


@pytest.mark.parametrize("exact", ["no", "false", 0, 1, None])
def test_progeny_refuses_exact_that_is_not_a_boolean(tmp_path, capsys, exact):
    code, out, err = run_command(tmp_path, capsys, "progeny", {**PROGENY, "exact": exact})
    assert code == 3
    assert out == "" and "config error:" in err and "exact" in err


def test_progeny_exact_false_prints_no_numerators(tmp_path, capsys):
    rows = {}
    for exact in (True, False):
        code, out, _ = run_command(tmp_path, capsys, "progeny", {**PROGENY, "exact": exact})
        assert code == 0
        rows[exact] = [line.split(",") for line in out.splitlines()[1:]]
    assert all(row[2] and row[3] for row in rows[True])
    assert all(row[2] == row[3] == "" for row in rows[False])
    assert [row[4:] for row in rows[False]] == [row[4:] for row in rows[True]]


@pytest.mark.parametrize("d", [1, 2, 3])
def test_progeny_exponential_rows_carry_regime_and_radius(tmp_path, capsys, d):
    cfg = {**PROGENY, "regime": {"kind": "exponential", "theta": 1.5}, "d": d}
    code, out, _ = run_command(tmp_path, capsys, "progeny", cfg)
    header, *rows = out.splitlines()
    assert code == 0 and header == "alpha,k,value_num,value_den,value_float,regime,radius"
    assert len(rows) == {1: 3, 2: 6, 3: 10}[d] * 4  # |alpha| <= 2 by k <= 3
    for row in rows:
        alpha, k, num, den, _, regime, radius = row.split(",")
        assert regime == "exponential"
        assert float(radius) == pytest.approx(1.0 / (2.0 * math.e * 1.5**2 * d), rel=1e-15)
        if k == "0":  # A'(0) = g(alpha) = theta^|alpha|/alpha!
            orders = [int(a) for a in alpha.split("|")]
            want = Fraction(3, 2) ** sum(orders) / math.prod(map(math.factorial, orders))
            assert Fraction(int(num), int(den)) == want


STABILITY = {
    "regime": {"kind": "factorial", "theta": 1.5, "r": 1},
    "lambda": 1.0, "delta1": 1.2, "delta2": 1.2, "d": 1, "T": 0.001, "m_max": 2,
}


# sha256 of the analyzer's outputs, fixed when the A and A-hat tables became
# one row each; a change to any printed digit changes them.  The last two
# pin an exponential report with its hbound rows and sweep, and a report in
# which every condition fails (exit 1)
FACTORIAL = {"kind": "factorial", "theta": 1.5, "r": 1}
OUTPUT_DIGESTS = [
    ("progeny", {"regime": FACTORIAL, "d": 2, "kmax": 6, "alpha_max": 3, "exact": True}, 0,
     "43b9c4ff1c6dd052852055455666ede8a5ff5f74c597e8c6910ccc92b8b94baa"),
    ("progeny", {"regime": FACTORIAL, "d": 2, "kmax": 6, "alpha_max": 3, "exact": False}, 0,
     "3c9cd82c629d4ef6e10df0039a7da7725acedb99aa454fe2a661cd973e060086"),
    ("progeny", {"regime": {"kind": "exponential", "theta": 1.5}, "d": 3, "kmax": 4, "alpha_max": 3}, 0,
     "d00903353d915eb476277097e0988e6f85d3a3445874a08f01d700cefaebc0ef"),
    ("stability", {**STABILITY, "sweep_T": [0.0, 0.0005, 0.001]}, 0,
     "637645da1bc7ffb2e2c7fe90e9d8fc1d3a0f4b1ab79f3844cd792bc9a4f9f675"),
    ("stability", {**STABILITY, "regime": {"kind": "exponential", "theta": 1.5}, "d": 2,
                   "sweep_T": [0.0, 0.0005, 0.001]}, 0,
     "56f1adbeb1b11ca2e3d981636ed6914be4bf2d5e0d64f2041f47291fe8d535ac"),
    ("stability", {**STABILITY, "regime": {"kind": "factorial", "theta": 0.5, "r": 1}, "T": 0.3}, 1,
     "483f36ca49db006b80cd51d1de0d20b74a2ac87b9e34f6602148e3b8e18a1d7b"),
]


@pytest.mark.parametrize("command, cfg, exit_code, digest", OUTPUT_DIGESTS,
                         ids=["progeny-factorial-exact", "progeny-factorial-float",
                              "progeny-exponential", "stability-sweep",
                              "stability-exponential-sweep", "stability-all-fail"])
def test_analyzer_output_is_byte_for_byte_unchanged(tmp_path, capsys, command, cfg, exit_code,
                                                   digest):
    code, out, _ = run_command(tmp_path, capsys, command, cfg)
    assert code == exit_code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of `solve`'s stdout, fixed before the batched sampler held one
# generation at a time; every printed digit of a mean, SE or tree statistic
# must survive any change to how the trees are grown.  The first config caps
# some trees (137 of 4000) and has a t = T row and seed offsets, the second
# takes the median of means
SOLVE_CAPPED = {
    "problem": "b2", "T": 0.5, "n": 4000, "seed": 7, "code": {"alpha": [3], "j": 0},
    "lifetime": {"kind": "exponential", "lambda": 2.0},
    "caps": {"max_branches": 12, "max_generation": 200},
    "points": [{"t": 0.0, "x": [0.0]}, {"t": 0.25, "x": [0.5]}, {"t": 0.5, "x": [0.0]}],
    "seed_offsets": [0, 1, 2],
}
SOLVE_MOM = {
    "problem": "b2", "T": 0.1, "n": 4001, "seed": 3, "estimator": "mom", "groups": 5,
    "code": {"alpha": [0], "j": -1}, "lifetime": {"kind": "exponential", "lambda": 1.0},
    "points": [{"t": 0.0, "x": [0.0]}, {"t": 0.05, "x": [-1.5]}],
}
SOLVE_DIGESTS = [
    (SOLVE_CAPPED, "csv", "2050a6af9b6a2f9090d64dc43ee39a605ed7e66bfa0462376c6d4450560cba2d"),
    (SOLVE_CAPPED, "json", "c6cff24ba527b299eb474f5812fde9a0012fcbac6baa89b1b523e481ba412393"),
    (SOLVE_MOM, "csv", "9e8ed32b6b4f77b90e55caea898f27e7f7b6132a91d4a367ce8d042c304e9c47"),
    (SOLVE_MOM, "json", "3344bc271980cc553e41c5de08e0af82c8afc37ec2058d6499a925f7a77e3769"),
]


@pytest.mark.parametrize("cfg, fmt, digest", SOLVE_DIGESTS,
                         ids=["capped-csv", "capped-json", "mom-csv", "mom-json"])
def test_solve_output_is_byte_for_byte_unchanged(tmp_path, capsys, cfg, fmt, digest):
    # the format comes by flag: the JSON output echoes the config
    path = tmp_path / "solve.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["solve", "--config", str(path), "--format", fmt]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


@pytest.mark.parametrize("fields", [
    {"d": 0},
    {"T": -0.1},
    {"sweep_T": [0.001, -0.002]},
    {"m_max": -1},
    {"m_max": 2.5},
    {"d": 1.5},
    {"lambda": True},
    {"delta1": True},
    {"delta2": float("nan")},
    {"lambda": float("inf")},
    {"T": True},
    {"T": float("inf")},
    {"sweep_T": [0.001, float("nan")]},
    {"sweep_T": [0.001, True]},
], ids=["d-0", "T-negative", "sweep-negative", "m_max-negative", "m_max-non-integral",
        "d-non-integral", "lambda-bool", "delta1-bool", "delta2-nan", "lambda-inf", "T-bool",
        "T-inf", "sweep-nan", "sweep-bool"])
def test_stability_refuses_bad_config(tmp_path, capsys, fields):
    code, out, err = run_command(tmp_path, capsys, "stability", {**STABILITY, **fields})
    assert code == 3
    assert out == "" and "config error:" in err


def test_stability_reports_every_horizon(tmp_path, capsys):
    code, out, _ = run_command(tmp_path, capsys, "stability", {**STABILITY, "sweep_T": [0.0, 0.001]})
    report = json.loads(out)
    assert code == 0 and report["pass"]
    assert [row["T"] for row in report["sweep"]] == [0.0, 0.001]
    assert len(report["hbound"]) == 3  # m_max = 2


@pytest.mark.parametrize("regime", [
    {"kind": "factorial", "theta": 1.5, "r": 1},
    {"kind": "exponential", "theta": 1.5},
], ids=["factorial", "exponential"])
def test_stability_reports_hbound_and_the_factorial_horizon(tmp_path, capsys, regime):
    code, out, _ = run_command(tmp_path, capsys, "stability", {**STABILITY, "regime": regime})
    report = json.loads(out)
    assert code == 0 and report["pass"]
    assert [row["alpha_order"] for row in report["hbound"]] == [0, 1, 2]  # m_max = 2
    assert all(row["regime"] == regime["kind"] for row in report["hbound"])
    # t_max is defined for the factorial regime only
    horizon = {"t_max", "lambda_free_envelope"}
    assert horizon & set(report) == (horizon if regime["kind"] == "factorial" else set())


def test_stability_reports_a_tabulated_lifetime(tmp_path, capsys):
    lifetime = {"kind": "tabulated", "lambda": 1.0, "points": [[0, 1], [1, 1], [2, 0]]}
    code, out, _ = run_command(tmp_path, capsys, "stability", {**STABILITY, "lifetime": lifetime})
    report = json.loads(out)
    assert code == (0 if report["pass"] else 1)
    assert [c["name"] for c in report["report"]["conditions"]][0] == "bound-split-time"


@pytest.mark.parametrize("command", ["solve", "stability", "progeny"])
@pytest.mark.parametrize("text", [None, "{not json"], ids=["missing", "not-json"])
def test_unreadable_config_exits_3(tmp_path, capsys, command, text):
    path = tmp_path / "config.json"
    if text is not None:
        path.write_text(text)
    assert cli.main([command, "--config", str(path)]) == 3
    out, err = capsys.readouterr()
    assert out == "" and "config error:" in err and "config.json" in err


@pytest.mark.parametrize("lifetime", [
    {"kind": "weird"},
    {"kind": "exponential", "lambda": -1},
    {"kind": "exponential"},
    {"kind": "exponential", "lambda": True},
    [1.0],
    {"kind": "exponential", "lambda": 50.0},
], ids=["kind-weird", "lambda-negative", "lambda-missing", "lambda-bool", "not-an-object",
        "lambda-differs"])
def test_stability_refuses_bad_lifetime(tmp_path, capsys, lifetime):
    code, out, err = run_command(tmp_path, capsys, "stability", {**STABILITY, "lifetime": lifetime})
    assert code == 3
    assert out == "" and err.startswith("config error:") and len(err.splitlines()) == 1


@pytest.mark.parametrize("command", ["solve", "stability"])
@pytest.mark.parametrize("points", [
    [[0, 1], [1, math.nan]],
    [[False, 1], [True, 1]],
    [[0, 1], [1, math.inf]],
    [[0, 1], ["1", 1]],
    [[0, 1], [1, 10**400]],
], ids=["nan", "bool", "inf", "string", "huge-int"])
def test_tabulated_lifetime_refuses_points_that_are_not_finite_numbers(tmp_path, capsys, command, points):
    # read through float(), these passed validation: stability printed a
    # report (exit 1) and solve stopped at assumption H (exit 2)
    lifetime = {"kind": "tabulated", "lambda": 1.0, "points": points}
    if command == "solve":
        code, out, err = run_solve(tmp_path, capsys, lifetime=lifetime)
    else:
        code, out, err = run_command(tmp_path, capsys, "stability", {**STABILITY, "lifetime": lifetime})
    assert code == 3
    assert out == "" and "config error:" in err and "finite number" in err


@pytest.mark.parametrize("command", ["stability", "progeny"])
@pytest.mark.parametrize("regime", [
    {"kind": "foo", "theta": 1.5, "r": 1},
    {"kind": "factorial", "theta": 1.5},
    {"kind": "factorial", "theta": "1/0", "r": 1},
    {"kind": "factorial", "theta": "inf", "r": 1},
    {"kind": "factorial", "theta": float("inf"), "r": 1},
    {"kind": "factorial", "theta": float("nan"), "r": 1},
    {"kind": "exponential", "theta": "-3/2"},
    {"kind": "exponential", "theta": "abc"},
    {"kind": "exponential", "theta": True},
    {"kind": "exponential", "theta": [1.5]},
    {"kind": "exponential", "theta": 1e-300},
    {"kind": "exponential", "theta": "1e400"},
    {"kind": "factorial", "theta": "1e-400", "r": 1},
    {"kind": "factorial", "theta": 1.5, "r": "1e400"},
    {"kind": "factorial", "theta": 1.5, "r": 1e300},
    {"kind": "factorial", "theta": 1e200, "r": 1},
], ids=["kind-foo", "r-missing", "theta-1/0", "theta-inf-text", "theta-inf", "theta-nan",
        "theta-negative-text", "theta-text", "theta-bool", "theta-list", "radius-overflow",
        "theta-float-overflow", "theta-float-underflow", "r-float-overflow", "r-power-overflow",
        "radius-underflow"])
def test_regime_parser_refuses_in_both_commands(tmp_path, capsys, command, regime):
    base = STABILITY if command == "stability" else PROGENY
    code, out, err = run_command(tmp_path, capsys, command, {**base, "regime": regime})
    assert code == 3
    assert out == "" and "config error:" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["stability", "progeny"])
def test_regime_parser_reads_rational_strings_and_defaults_to_factorial(tmp_path, capsys, command):
    base = STABILITY if command == "stability" else PROGENY
    outputs = []
    for regime in (
        {"kind": "factorial", "theta": 1.5, "r": 1},
        {"theta": "3/2", "r": "1"},
        {"theta": 1.5, "r": 1.0},
    ):
        code, out, _ = run_command(tmp_path, capsys, command, {**base, "regime": regime})
        assert code == 0
        if command == "stability":
            out = json.loads(out)
            del out["config"]  # echoes the regime block as given
        outputs.append(out)
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


@pytest.mark.parametrize("command", ["solve", "stability", "progeny"])
@pytest.mark.parametrize("text, kind", [
    ("[1, 2]", "list"), ('"x"', "str"), ("3", "int"), ("null", "NoneType"),
])
def test_config_that_is_not_an_object_exits_3(tmp_path, capsys, command, text, kind):
    path = tmp_path / "config.json"
    path.write_text(text)
    assert cli.main([command, "--config", str(path)]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"config error: config must be a JSON object, got {kind}\n"


@pytest.mark.parametrize("fields", [{"T": -1.0}, {"points": 3}])
def test_solve_config_error_is_one_stderr_line(tmp_path, fields):
    # a fresh interpreter, so that the log handler the command sets up writes
    # to the real stderr
    cfg = {**SOLVE, **fields}
    path = tmp_path / "solve.json"
    path.write_text(json.dumps(cfg))
    env = {k: v for k, v in os.environ.items() if k != "BRANCHPDE_LOG"}
    env["PYTHONPATH"] = str(Path(cli.__file__).parents[1])
    run = subprocess.run(
        [sys.executable, "-m", "branchpde.cli", "solve", "--config", str(path)],
        env=env, capture_output=True, text=True,
    )
    assert run.returncode == 3 and run.stdout == ""
    assert len(run.stderr.splitlines()) == 1 and run.stderr.startswith("config error: ")


@pytest.mark.parametrize("command, fields, unknown", [
    ("solve", {**SOLVE, "N": 10}, "N"),
    ("solve", {**SOLVE, "estimator": "mom", "estimater": "mean"}, "estimater"),
    ("solve", {**SOLVE, "d": 3}, "d"),
    ("stability", {**STABILITY, "kmax": 3}, "kmax"),
    ("progeny", {**PROGENY, "m_max": 3}, "m_max"),
], ids=["solve-N", "solve-estimater", "solve-d", "stability-kmax", "progeny-m_max"])
def test_a_field_the_command_does_not_read_exits_3(tmp_path, capsys, command, fields, unknown):
    # a misspelt field used to run on the defaults and exit 0
    code, out, err = run_command(tmp_path, capsys, command, fields)
    assert code == 3 and out == ""
    assert err.startswith(f"config error: unknown config field {unknown!r}") and len(err.splitlines()) == 1


@pytest.mark.parametrize("command, fields, block, unknown", [
    ("solve", {**SOLVE, "code": {"alpha": [0], "j": -1, "jj": 5}}, "code", "jj"),
    ("solve", {**SOLVE, "caps": {"max_branches": 12, "max_generation": 200, "max_gen": 0}},
     "caps", "max_gen"),
    ("solve", {**SOLVE, "lifetime": {"kind": "exponential", "lambda": 1.0, "points": [[0, 1]]}},
     "lifetime", "points"),
    ("stability", {**STABILITY, "lifetime": {"kind": "tabulated", "lambda": 1.0, "lam": 1.0,
                                             "points": [[0, 1], [1, 1], [2, 0]]}}, "lifetime", "lam"),
    ("solve", {**SOLVE, "points": [{"t": 0.0, "x": [0.0]}, {"t": 0.0, "x": [0.0], "y": [1.0]}]},
     "points", "y"),
    ("progeny", {**PROGENY, "regime": {"kind": "exponential", "theta": 1.5, "r": 1}}, "regime", "r"),
    ("stability", {**STABILITY, "regime": {"theta": 1.5, "r": 1, "thetta": 2}}, "regime", "thetta"),
], ids=["code", "caps", "lifetime-exponential", "lifetime-tabulated", "points", "regime-exponential",
        "regime-factorial"])
def test_a_key_a_nested_block_does_not_read_exits_3(tmp_path, capsys, command, fields, block, unknown):
    # each of these used to run without the key and exit 0; the digest
    # tests run these blocks with the keys they read
    code, out, err = run_command(tmp_path, capsys, command, fields)
    assert code == 3 and out == ""
    assert err.startswith(f"config error: unknown {block} field {unknown!r}; known: ")
    assert len(err.splitlines()) == 1


def test_a_points_row_that_is_not_an_object_exits_3(tmp_path, capsys):
    # a string row was read as a set of its characters
    code, out, err = run_solve(tmp_path, capsys, points=["tx"])
    assert code == 3 and out == ""
    assert err == "config error: a points block must be an object, got 'tx'\n"


INT64 = 1 << 63


@pytest.mark.parametrize("fields, argv, value", [
    ({"seed": INT64}, [], INT64),
    ({"seed": -INT64 - 1}, [], -INT64 - 1),
    ({"seed": INT64 - 1, "seed_offsets": [1]}, [], INT64),
    ({"seed": -INT64, "seed_offsets": [-1]}, [], -INT64 - 1),
    ({}, ["--seed", str((1 << 64) - 1)], (1 << 64) - 1),
], ids=["seed-above", "seed-below", "offset-above", "offset-below", "cli-seed"])
def test_a_seed_outside_the_int64_range_exits_3(tmp_path, capsys, fields, argv, value):
    # the trees read a seed mod 2^64, so -1 and 2^64 - 1 grew the same trees
    path = tmp_path / "solve.json"
    path.write_text(json.dumps({**SOLVE, **fields}))
    code = cli.main(["solve", "--config", str(path)] + argv)
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    assert err.startswith("config error: config field 'seed'") and err.endswith(f", got {value}\n")
    assert len(err.splitlines()) == 1


def test_seeds_at_the_ends_of_the_int64_range_run(tmp_path, capsys):
    for seed, offsets in ((INT64 - 1, [0, -1]), (-INT64, [0, 1])):
        points = [{"t": 0.0, "x": [0.0]}] * 2
        code, out, _ = run_solve(tmp_path, capsys, n=20, seed=seed, seed_offsets=offsets, points=points)
        assert code == 0 and len(out.splitlines()) == 3


@pytest.mark.parametrize("command, cfg, field", [
    ("solve", SOLVE, "n"), ("progeny", PROGENY, "d"), ("progeny", PROGENY, "kmax"),
    ("progeny", PROGENY, "alpha_max"), ("stability", STABILITY, "d"),
], ids=["solve-n", "progeny-d", "progeny-kmax", "progeny-alpha_max", "stability-d"])
def test_a_size_past_the_index_range_exits_3(tmp_path, capsys, command, cfg, field):
    # n and d raised OverflowError where the size first made a range or a
    # list; kmax and alpha_max went on to size the A-hat tables, and
    # stability's d reached a report (exit 1)
    code, out, err = run_command(tmp_path, capsys, command, {**cfg, field: 10**30})
    assert code == 3 and out == ""
    assert err == f"config error: config field {field!r} must be <= {sys.maxsize}, got {10**30}\n"


@pytest.mark.parametrize("fields, order", [
    ({"regime": {"kind": "exponential", "theta": 1e150}, "T": 0}, 3),
    ({"regime": {"kind": "exponential", "theta": 4e6}, "T": 1e-15, "m_max": 60}, 50),
    ({"regime": {"kind": "exponential", "theta": 1e5}, "delta1": 1e300, "T": 0}, 2),
])
def test_stability_refuses_a_bound_past_the_float_range(tmp_path, capsys, fields, order):
    cfg = {"lambda": 1.0, "delta1": 1.2, "delta2": 1.2, **fields}
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run_command(tmp_path, capsys, "stability", cfg)
    assert code == 3 and out == ""
    assert err.startswith(f"config error: the bound of order {order} at ")
    assert "is not a finite float" in err and len(err.splitlines()) == 1


TABULATED = {"kind": "tabulated", "lambda": 1.0, "points": [[0, 1], [1, 1], [2, 0]]}


@pytest.mark.parametrize("command, fields, field", [
    ("solve", {**SOLVE, "points": [{"t": 0}]}, "points.x"),
    ("solve", {**SOLVE, "points": [{"x": [0.0]}]}, "points.t"),
    ("solve", {**SOLVE, "points": [{"t": 0, "x": 0.5}]}, "points.x"),
    ("solve", {**SOLVE, "code": {"alpha": [0]}}, "code.j"),
    ("solve", {**SOLVE, "code": {"j": 0}}, "code.alpha"),
    ("solve", {**SOLVE, "code": {"alpha": 5, "j": 0}}, "code.alpha"),
    ("solve", {**SOLVE, "lifetime": {"kind": "tabulated", "lambda": 1.0}}, "lifetime.points"),
    ("stability", {**STABILITY, "lifetime": {**TABULATED, "points": 3}}, "lifetime.points"),
    ("solve", {**SOLVE, "lifetime": {"kind": "exponential"}}, "lifetime.lambda"),
    ("solve", {**SOLVE, "caps": {"max_branches": 12}}, "caps.max_generation"),
    ("solve", {**SOLVE, "caps": {"max_generation": 20}}, "caps.max_branches"),
    ("stability", {**STABILITY, "regime": {"kind": "factorial", "theta": 1.5}}, "regime.r"),
    ("progeny", {**PROGENY, "regime": {"kind": "exponential"}}, "regime.theta"),
    ("stability", {**STABILITY, "sweep_T": 2}, "sweep_T"),
    ("stability", {**STABILITY, "regime": {**STABILITY["regime"], "kind": ["factorial"]}},
     "regime.kind"),
    ("progeny", {**PROGENY, "regime": {**PROGENY["regime"], "kind": ["factorial"]}}, "regime.kind"),
    ("stability", {**STABILITY, "lifetime": {**TABULATED, "points": [3, [1, 1], [2, 0]]}},
     "lifetime.points"),
    ("solve", {**SOLVE, "lifetime": {**TABULATED, "points": [[0, 1], [1, 1, 0], [2, 0]]}},
     "lifetime.points"),
    ("stability", {**STABILITY, "lifetime": {**TABULATED, "kind": ["tabulated"]}}, "lifetime.kind"),
    ("stability", {**STABILITY, "lifetime": {**TABULATED, "points": [["a", 1], [1, 0]]}},
     "lifetime.points"),
    ("stability", {**STABILITY, "lifetime": {**TABULATED, "points": [[1, 1], [2, 0]]}},
     "lifetime.points"),
    ("stability", {**STABILITY, "lifetime": {**TABULATED, "points": [[0, 0], [1, 0]]}},
     "lifetime.points"),
    ("solve", {**SOLVE, "lifetime": {**TABULATED, "points": [[0, 1], [1, -1]]}}, "lifetime.points"),
    ("solve", {**SOLVE, "problem": "b3"}, "problem"),
    ("solve", {**SOLVE, "points": [{"t": 0.0, "x": [0.0, 0.0]}]}, "points.x"),
    ("solve", {**SOLVE, "code": {"alpha": [0, 0], "j": -1}}, "code.alpha"),
], ids=["points.x", "points.t", "points.x-float", "code.j", "code.alpha", "code.alpha-int",
        "lifetime.points", "lifetime.points-int", "lifetime.lambda", "caps.max_generation",
        "caps.max_branches", "regime.r", "regime.theta", "sweep_T-int", "regime.kind-list",
        "progeny-regime.kind-list", "lifetime.points-row-int", "lifetime.points-row-triple",
        "lifetime.kind-list", "lifetime.points-knot-text", "lifetime.points-not-from-0",
        "lifetime.points-zero-mass", "lifetime.points-negative", "problem-unknown",
        "points.x-dimension", "code.alpha-dimension"])
def test_a_missing_or_malformed_nested_field_is_named_with_its_block(tmp_path, capsys, command,
                                                                     fields, field):
    # each was named by a bare repr ('x'), by a Python message ('int'
    # object is not iterable, unhashable type: 'list', cannot unpack
    # non-iterable int object) or by a message of the library call behind
    # the field (need increasing knots starting at r=0, unknown problem
    # 'b3') that did not say which field it came from
    code, out, err = run_command(tmp_path, capsys, command, fields)
    assert code == 3 and out == ""
    assert err.startswith(f"config error: config field {field!r} ") and len(err.splitlines()) == 1


# small valid configs of the three commands, and the exit codes each documents
VALID = {
    "solve": {**SOLVE, "n": 20, "code": {"alpha": [1], "j": 0},
              "caps": {"max_branches": 50, "max_generation": 20},
              "lifetime": {"kind": "exponential", "lambda": 1.0}},
    "stability": {**STABILITY, "sweep_T": [0.001], "lifetime": TABULATED},
    "progeny": PROGENY,
}
EXITS = {"solve": {0, 2, 3}, "stability": {0, 1, 3}, "progeny": {0, 3}}
# values of every JSON type, none extreme, so that no mutation allocates much
SWAPS = ["x", [1], {}, None, True, 1.5, 2]
# small values of a number's own type past the edge of some field's range
EDGES = {int: [-1, 0, 0.5], float: [-0.5, 0.0]}


def config_paths(value, path=()):
    """The path of value and, in order, of every field and item below it."""
    yield path
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield from config_paths(child, path + (key,))


@st.composite
def mutated_configs(draw, command):
    """VALID[command] with one key omitted, one unknown key added, one
    value swapped for a value of another type, or one number swapped for a
    small one of its type (EDGES), at any depth."""
    cfg = copy.deepcopy(VALID[command])
    path = draw(st.sampled_from(list(config_paths(cfg))))
    target = reduce(getitem, path, cfg)
    parent = reduce(getitem, path[:-1], cfg)
    ops = (["swap"] if path else []) + (["omit"] if path and isinstance(parent, dict) else [])
    ops += ["edge"] if type(target) in EDGES else []
    op = draw(st.sampled_from(ops + (["extra"] if isinstance(target, dict) else [])))
    if op == "omit":
        del parent[path[-1]]
    elif op == "extra":
        target["zz"] = 1
    elif op == "edge":
        parent[path[-1]] = draw(st.sampled_from(EDGES[type(target)]))
    else:
        parent[path[-1]] = draw(st.sampled_from([v for v in SWAPS if type(v) is not type(target)]))
    return cfg


@pytest.mark.parametrize("command", sorted(VALID))
def test_a_mutated_config_exits_as_documented(tmp_path_factory, command):
    path = tmp_path_factory.mktemp(command) / "config.json"

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(mutated_configs(command))
    def check(cfg):
        path.write_text(json.dumps(cfg))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([command, "--config", str(path)])
        err = err.getvalue()
        assert code in EXITS[command] and "Traceback" not in err
        if code == 3:
            assert len(err.splitlines()) == 1 and err.startswith("config error:")

    check()
