import json
import math
from fractions import Fraction

import pytest

from branchpde import cli, verify


def run_solve(tmp_path, capsys, **fields):
    cfg = {"problem": "b2", "T": 0.1, "n": 200, "points": [{"t": 0.0, "x": [0.0]}]}
    cfg.update(fields)
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
], ids=["n", "groups", "workers", "max_branches", "max_generation", "max_branches-0", "caps-list",
        "n-bool", "format-xml"])
def test_solve_refuses_values_it_would_reinterpret(tmp_path, capsys, fields):
    code, out, err = run_solve(tmp_path, capsys, **fields)
    assert code == 3
    assert out == "" and "config error:" in err
    assert "Traceback" not in err


def test_solve_reads_integral_floats_as_integers(tmp_path, capsys):
    _, as_int, _ = run_solve(tmp_path, capsys, n=200, workers=1)
    code, as_float, _ = run_solve(tmp_path, capsys, n=200.0, workers=1.0)
    assert code == 0 and as_float == as_int


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


@pytest.mark.parametrize("fields", [
    {"d": 0},
    {"T": -0.1},
    {"sweep_T": [0.001, -0.002]},
    {"m_max": -1},
    {"m_max": 2.5},
    {"d": 1.5},
], ids=["d-0", "T-negative", "sweep-negative", "m_max-negative", "m_max-non-integral",
        "d-non-integral"])
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
], ids=["kind-weird", "lambda-negative", "lambda-missing"])
def test_stability_refuses_bad_lifetime(tmp_path, capsys, lifetime):
    code, out, err = run_command(tmp_path, capsys, "stability", {**STABILITY, "lifetime": lifetime})
    assert code == 3
    assert out == "" and "config error:" in err


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
], ids=["kind-foo", "r-missing", "theta-1/0", "theta-inf-text", "theta-inf", "theta-nan",
        "theta-negative-text", "theta-text", "theta-bool", "theta-list"])
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
