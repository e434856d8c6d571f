import math

import numpy as np
import pytest

from branchpde.lifetimes import exponential_model
from branchpde.problems import b2_problem
from branchpde.stability import Exponential, Factorial, GrowthParams, verify_code_bounds

# b2 at T = 0.1 with lambda = 1 and delta2 = 1/rho_*(T), on [-6, 6] with 121
# points, m <= 5 and k <= 3.  The least margin sits on the m = 0 rows, whose
# envelope delta1 g(0) = delta1 is the same in every regime.
B2_T = 0.1
GRID = np.linspace(-6.0, 6.0, 121).tolist()
CODE_BOUNDS = {  # regime -> G(m), the envelope per unit delta1
    Factorial(0.5, 1): lambda m: 0.5**m * math.factorial(m),
    Factorial(1, 1): lambda m: math.factorial(m),
    Factorial(1.5, 1): lambda m: 1.5**m * math.factorial(m),
    Factorial(2, 1): lambda m: 2**m * math.factorial(m),
    Exponential(1.5): lambda m: 1.5**m,
}


@pytest.mark.parametrize("regime", list(CODE_BOUNDS), ids=repr)
def test_b2_code_bounds_pass_at_delta1_6_and_fail_at_3(regime):
    oracle = b2_problem(B2_T).oracle
    delta2 = 1.0 / exponential_model(1.0).rho_star(B2_T)
    least = {}
    for delta1 in (6.0, 3.0):
        p = GrowthParams(regime, delta1, delta2, 1.0, B2_T, 1)
        rep = verify_code_bounds(oracle, p, GRID, m_max=5, k_max=3)
        assert rep["grid"] == (-6.0, 6.0, 121)
        assert rep["survival_at_T"] == pytest.approx(math.exp(-B2_T), rel=1e-15)
        assert [(row.m, row.k) for row in rep["rows"]] == [
            (m, k) for m in range(6) for k in (-1, 3)
        ]
        for row in rep["rows"]:
            assert row.envelope == pytest.approx(delta1 * CODE_BOUNDS[regime](row.m), rel=1e-15)
            assert row.passed == (row.margin >= 0)
        assert rep["passed"] == (delta1 == 6.0)
        least[delta1] = min(row.margin for row in rep["rows"])
    assert least[6.0] == pytest.approx(0.9713, abs=1e-4)
    assert least[3.0] == pytest.approx(-2.0287, abs=1e-4)


def test_code_bounds_refuse_d_above_1():
    p = GrowthParams(Factorial(1.5, 1), 6.0, 1.2, 1.0, B2_T, 2)
    with pytest.raises(ValueError):
        verify_code_bounds(b2_problem(B2_T).oracle, p, GRID, m_max=2)
