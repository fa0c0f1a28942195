"""Limiting-coverage functions and level calibration.

Oracles: psi_zero is checked against direct adaptive quadrature of its
defining integral (indicator of the h_zero level set times the normal
density, scipy end to end), and solve_gamma against a scipy brentq inversion
of the coverage formula.  Neither route touches the package's normal
functions or bisection code.  solve_gamma and solve_levels share the
package's one Newton level solve and its input checks, so both are also
held to the scalar bisection of oracles.level_by_bisection.
"""

import re

import numpy as np
import pytest
from hypothesis import example, given, settings as hyp_settings, strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.stats import norm as scipy_norm

from oracles import level_by_bisection
from sparseproj.calibration import (
    TABLE_LAMBDAS,
    TABLE_TARGETS,
    calibration_table,
    calibration_table_csv,
    display_level,
    effective_penalty,
    h_plus,
    h_zero,
    psi,
    psi_zero,
    solve_gamma,
    solve_levels,
)
from sparseproj.cli import main
from sparseproj.regions import _rank

# frozen reference values, computed once from scipy/mpmath cross-checked runs
PSI_005_1 = 0.9209024658394035
LEVEL_L05_T95 = 0.9565868183
LEVEL_L1_T95 = 0.9708518789
LEVEL_L2_T95 = 0.9918585222
PSI0_L05_T95 = 0.9625785733
PSI0_L1_T95 = 0.9844987212
PSI0_L2_T95 = 0.9993328893


def h_zero_ref(lambda0, z):
    """The three-case formula written directly against scipy's CDF."""
    b = 0.5 * lambda0
    if z > b:
        return scipy_norm.cdf(z - b) - scipy_norm.cdf(-z - b)
    if z < -b:
        return scipy_norm.cdf(-z + b) - scipy_norm.cdf(z + b)
    return scipy_norm.cdf(z + b) - scipy_norm.cdf(z - b)


def psi_zero_quad(alpha, lambda0):
    """Blind quadrature of the defining integral over [-10, 10].

    Locates the jump points of the indicator by a fine scan plus brentq,
    then integrates the normal density over the accepted pieces.
    """
    thr = 1.0 - alpha
    b = 0.5 * lambda0
    zs = np.linspace(-10.0, 10.0, 8001)
    cdf = scipy_norm.cdf
    g = np.where(zs > b, cdf(zs - b) - cdf(-zs - b),
                 np.where(zs < -b, cdf(-zs + b) - cdf(zs + b),
                          cdf(zs + b) - cdf(zs - b))) - thr
    roots = []
    for i in np.nonzero(np.diff(np.sign(g)) != 0)[0]:
        roots.append(brentq(lambda z: h_zero_ref(lambda0, z) - thr,
                            zs[i], zs[i + 1], xtol=1e-13))
    cuts = [-10.0] + sorted(roots) + [10.0]
    total = 0.0
    for a, b in zip(cuts[:-1], cuts[1:]):
        if h_zero_ref(lambda0, 0.5 * (a + b)) <= thr:
            total += quad(scipy_norm.pdf, a, b, epsabs=1e-12, limit=200)[0]
    return total


def solve_gamma_ref(lambda_eff, target):
    """Invert the signal-coverage formula with scipy's brentq."""
    def cov(z):
        return scipy_norm.cdf(0.5 * lambda_eff + z) - scipy_norm.cdf(0.5 * lambda_eff - z)
    z = brentq(lambda v: cov(v) - target, 1e-8, 40.0, xtol=1e-13)
    gamma = 2.0 * (1.0 - scipy_norm.cdf(z))
    return 1.0 - gamma


# --- h functions -------------------------------------------------------------

def test_h_plus_examples():
    assert h_plus(1.0, 0.5) == 0.0
    assert h_plus(0.0, 1.959964) == pytest.approx(0.95, abs=5e-6)
    assert h_plus(0.0, 1.959964) == pytest.approx(0.9500000018071153, abs=1e-12)
    assert h_plus(2.0, -1.0) == pytest.approx(0.9544997361036416, abs=1e-12)


def test_h_zero_collapses_at_zero_penalty():
    for z in (-2.0, -0.3, 0.0, 1.1, 4.0):
        assert h_zero(0.0, z) == pytest.approx(2.0 * scipy_norm.cdf(abs(z)) - 1.0,
                                               abs=1e-14)


def test_h_zero_center_value():
    assert h_zero(2.0, 0.0) == pytest.approx(0.6826894921370859, abs=1e-12)
    assert h_zero(2.0, 0.0) == pytest.approx(0.68269, abs=5e-6)


def test_h_zero_matches_reference_everywhere():
    for lam in (0.0, 0.4, 1.0, 2.0, 3.7):
        for z in np.linspace(-4, 4, 81):
            assert h_zero(lam, float(z)) == pytest.approx(
                h_zero_ref(lam, float(z)), abs=1e-14)


def test_h_zero_even():
    for lam in (0.3, 1.0, 2.5):
        for z in (0.1, 0.77, 1.3, 2.9):
            assert h_zero(lam, z) == pytest.approx(h_zero(lam, -z), abs=1e-15)


def test_h_zero_boundary_continuity():
    for lam in (0.6, 1.0, 3.0):
        b = 0.5 * lam
        expected = 0.5 - scipy_norm.cdf(-2.0 * b)
        assert h_zero(lam, b) == pytest.approx(expected, abs=1e-14)
        assert h_zero(lam, b + 1e-12) == pytest.approx(expected, abs=1e-11)
        assert h_zero(lam, -b - 1e-12) == pytest.approx(expected, abs=1e-11)


# --- psi and psi_zero --------------------------------------------------------

def test_psi_at_zero_penalty_is_complement():
    for alpha in (0.01, 0.05, 0.1, 0.25):
        assert psi(alpha, 0.0) == pytest.approx(1.0 - alpha, abs=1e-12)
        assert psi_zero(alpha, 0.0) == pytest.approx(1.0 - alpha, abs=1e-12)


def test_psi_frozen_value():
    assert psi(0.05, 1.0) == pytest.approx(PSI_005_1, abs=1e-12)
    # quoted rounding of the same quantity
    assert psi(0.05, 1.0) == pytest.approx(0.92087, abs=5e-4)


def test_psi_inverse_of_table_row():
    assert psi(0.0292, 1.0) == pytest.approx(0.95, abs=5e-4)
    assert psi(0.0292, 1.0) == pytest.approx(0.9499241839942666, abs=1e-12)


def test_psi_strictly_below_nominal_for_positive_penalty():
    for alpha in (0.01, 0.05, 0.1):
        for lam in (0.1, 0.5, 1.0, 2.0, 4.0):
            assert psi(alpha, lam) < 1.0 - alpha


def test_psi_monotone_in_penalty_and_alpha():
    lams = np.arange(0.0, 4.1, 0.25)
    for alpha in (0.01, 0.05, 0.1):
        vals = [psi(alpha, float(l)) for l in lams]
        assert all(vals[i + 1] < vals[i] for i in range(len(vals) - 1))
    alphas = (0.01, 0.05, 0.1, 0.2, 0.4)
    for lam in (0.0, 1.0, 3.0):
        vals = [psi(a, lam) for a in alphas]
        assert all(vals[i + 1] < vals[i] for i in range(len(vals) - 1))


def test_psi_zero_against_quadrature_oracle():
    for alpha in (0.01, 0.05, 0.1, 0.25):
        for lam in (0.3, 1.0, 2.0, 3.0):
            assert psi_zero(alpha, lam) == pytest.approx(
                psi_zero_quad(alpha, lam), abs=1e-8)


def test_psi_zero_spec_point_against_oracle():
    assert psi_zero(0.05, 1.0) == pytest.approx(psi_zero_quad(0.05, 1.0), abs=1e-8)


def test_dominance_on_default_grid():
    # noise coverage dominates signal coverage over the whole reference grid
    for target in TABLE_TARGETS:
        alpha = 1.0 - target
        for lam in TABLE_LAMBDAS:
            assert psi_zero(alpha, lam) >= psi(alpha, lam) - 1e-12


def test_dominance_at_five_percent_strict():
    for lam in np.arange(0.1, 4.05, 0.1):
        assert psi_zero(0.05, float(lam)) > psi(0.05, float(lam))


# --- solve_gamma -------------------------------------------------------------

def test_solve_gamma_table_displays():
    assert display_level(solve_gamma(1.0, 0.95)[0]) == "0.9708"
    assert display_level(solve_gamma(0.5, 0.9)[0]) == "0.9100"
    assert display_level(solve_gamma(0.05, 0.99)[0]) == "0.9900"


def test_solve_gamma_frozen_values():
    for lam, level, psi0 in ((0.5, LEVEL_L05_T95, PSI0_L05_T95),
                             (1.0, LEVEL_L1_T95, PSI0_L1_T95),
                             (2.0, LEVEL_L2_T95, PSI0_L2_T95)):
        got_level, got_psi, got_psi0 = solve_gamma(lam, 0.95)
        assert got_level == pytest.approx(level, abs=1e-9)
        assert got_psi == pytest.approx(0.95, abs=1e-10)
        assert got_psi0 == pytest.approx(psi0, abs=1e-9)


def test_solve_gamma_against_scipy_inversion():
    for lam in (0.05, 0.4, 1.0, 2.2, 4.0):
        for target in (0.9, 0.95, 0.99):
            ours, _, _ = solve_gamma(lam, target)
            assert ours == pytest.approx(
                solve_gamma_ref(lam, target), abs=1e-9)


def test_solve_gamma_round_trip():
    for lam in (0.3, 1.0, 3.5):
        for target in (0.9, 0.95, 0.975):
            gamma = 1.0 - solve_gamma(lam, target)[0]
            assert psi(gamma, lam) == pytest.approx(target, abs=1e-10)


def test_solve_gamma_effective_penalty_scaling():
    # lambda0 / (sigma0 sqrt(c_j)): a larger Gram diagonal or error s.d. both
    # lower the penalty a component is calibrated at
    assert effective_penalty(1.0, 4.0, 2.0) == 0.25
    plain = solve_gamma(1.0, 0.95)
    assert solve_gamma(effective_penalty(2.0, 4.0, 1.0), 0.95) == plain
    assert solve_gamma(effective_penalty(2.0, 1.0, 2.0), 0.95) == plain
    assert solve_gamma(effective_penalty(0.5, 0.25, 1.0), 0.95) == plain
    lam = effective_penalty(1.0, 0.25, 0.5)
    assert lam == pytest.approx(4.0)
    assert solve_gamma(lam, 0.95)[0] == pytest.approx(solve_gamma_ref(4.0, 0.95), abs=1e-9)
    # one rule for a whole Gram diagonal and for one component
    diag = np.array([0.25, 1.0, 4.0])
    np.testing.assert_array_equal(effective_penalty(2.0, diag, 0.5),
                                  [effective_penalty(2.0, c, 0.5) for c in diag])


def test_solve_gamma_zero_penalty():
    level, _, psi0 = solve_gamma(0.0, 0.95)
    assert level == pytest.approx(0.95, abs=1e-10)
    assert psi0 == pytest.approx(0.95, abs=1e-10)


def test_solve_gamma_saturates_at_huge_penalty():
    # an absurd penalty pushes the level to its ceiling; must not raise
    for lam in (30.0, 353.55, 1e6):
        level, psi_signal, psi_noise = solve_gamma(lam, 0.95)
        assert level == pytest.approx(1.0, abs=1e-12)
        assert 0.0 <= psi_signal < 1e-9
        assert 0.0 <= psi_noise <= 1.0


def test_solve_gamma_methods_agree():
    for lam in (0.05, 0.5, 1.3, 2.0, 4.0):
        for target in TABLE_TARGETS:
            b = level_by_bisection(lam, target)
            assert solve_gamma(lam, target)[0] == pytest.approx(b, abs=1e-9)
            assert float(solve_levels([lam], target)[0]) == pytest.approx(b, abs=1e-9)


def test_query_validation():
    # solve_gamma takes solve_levels' checks: a penalty that is negative or
    # not finite, or a target outside (0, 1), never reaches the solve
    for lam, target in ((-0.1, 0.95), (1.0, 1.0), (float("nan"), 0.95),
                        (effective_penalty(1.0, 1.0, -1.0), 0.95)):
        with pytest.raises(ValueError, match="must"):
            solve_gamma(lam, target)
    # a zero denominator or an overflow gives inf, which is rejected
    for args in ((1.0, 1.0, 0.0), (1e300, 1.0, 1e-300)):
        lam = effective_penalty(*args)
        assert lam == float("inf")
        with pytest.raises(ValueError, match="must be finite and nonnegative, got inf"):
            solve_gamma(lam, 0.95)


@pytest.mark.parametrize("field, value", [
    ("lambda0", float("nan")), ("lambda0", float("inf")),
    ("c_j", float("nan")), ("c_j", float("inf")),
    ("sigma0", float("nan")), ("sigma0", float("inf")),
])
def test_query_rejects_non_finite_inputs(field, value, capsys):
    # a lookup's lambda0, c_j and sigma0 are checked where they enter, as
    # `calibrate` flags (effective_penalty only combines them); a usage error
    flag = {"lambda0": "--lambda0", "c_j": "--c", "sigma0": "--sigma0"}[field]
    with pytest.raises(SystemExit) as exc:
        main(["calibrate", "--lambda0=1", "--target=0.95", f"{flag}={value}"])
    assert exc.value.code == 2
    assert f"{flag} must be" in capsys.readouterr().err


# --- solve_levels --------------------------------------------------------------

SATURATING = [0.0, 1e-8, 30.0, 353.55, 1e6]


@hyp_settings(max_examples=200, deadline=None)
@given(lambdas=st.lists(st.one_of(st.sampled_from(SATURATING),
                                  st.floats(min_value=0.0, max_value=8.0),
                                  st.floats(min_value=0.0, max_value=1e6)),
                        min_size=1, max_size=12),
       target=st.floats(min_value=0.5, max_value=0.999))
@example(lambdas=SATURATING, target=0.5)
@example(lambdas=SATURATING, target=0.95)
@example(lambdas=SATURATING, target=0.999)
def test_solve_levels_matches_bisection(lambdas, target):
    levels = solve_levels(np.array(lambdas), target)
    assert levels.shape == (len(lambdas),)
    R = 2000
    for lam, level in zip(lambdas, levels.tolist()):
        ref = level_by_bisection(lam, target)
        assert abs(level - ref) <= 1e-12
        # the intervals read the order statistic at rank ceil(R*level - 1e-9);
        # two levels 1e-12 apart can only take different ranks when a rank
        # boundary lies between them (at penalty 0 the exact level is the
        # target itself, and 2000 * 0.5 is an integer)
        pos = R * ref - 1e-9
        if abs(pos - round(pos)) > R * 1e-12:
            assert _rank(R, level) == _rank(R, ref)


def test_solve_levels_saturated_penalties_reach_the_ceiling():
    # at these penalties the normal density underflows to 0 around the
    # start, so only the bracket's bisection steps can move z
    levels = solve_levels(np.array([30.0, 353.55, 1e6, 1e300]), 0.95)
    np.testing.assert_array_equal(levels, 1.0 - 1e-15)


@pytest.mark.parametrize("lambdas, target, message", [
    ([1.0, float("nan")], 0.95, "got nan at index 1"),
    ([float("inf")], 0.95, "got inf at index 0"),
    ([-0.5, 1.0], 0.95, "got -0.5 at index 0"),
    ([1.0], 1.0, "target must lie in"),
    ([1.0], 0.0, "target must lie in"),
    ([1.0], float("nan"), "target must lie in"),
])
def test_solve_levels_rejects_what_the_query_rejects(lambdas, target, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        solve_levels(np.array(lambdas), target)


def test_result_is_plain_record():
    res = solve_gamma(1.0, 0.95)
    assert type(res) is tuple and [type(v) for v in res] == [float] * 3
    assert res[0] == float(solve_levels(1.0, 0.95))


# --- table -------------------------------------------------------------------

def test_table_shape_and_known_cells():
    rows = calibration_table()
    assert len(rows) == 37 and all(len(r) == 5 for r in rows)
    lam_index = {lam: i for i, lam in enumerate(TABLE_LAMBDAS)}
    t_index = {t: j for j, t in enumerate(TABLE_TARGETS)}
    assert display_level(rows[lam_index[4.0]][t_index[0.975]]) == "0.9999"
    assert display_level(rows[lam_index[2.6]][t_index[0.9]]) == "0.9901"
    assert display_level(rows[lam_index[1.0]][t_index[0.95]]) == "0.9708"


def test_table_monotone_in_lambda_and_target():
    rows = np.array(calibration_table())
    assert np.all(np.diff(rows, axis=0) > 0)   # level grows with the penalty
    assert np.all(np.diff(rows, axis=1) > 0)   # and with the target


def test_table_and_calibrate_agree_on_every_cell():
    # the table takes its columns from solve_levels and `calibrate` reads one
    # penalty through solve_gamma; both must print the same level everywhere
    rows = calibration_table()
    for lam, row in zip(TABLE_LAMBDAS, rows):
        for target, level in zip(TABLE_TARGETS, row):
            one = solve_gamma(lam, target)[0]
            assert display_level(one) == display_level(level), (lam, target)
            assert abs(one - level) <= 1e-15, (lam, target)


def test_table_rejects_empty():
    with pytest.raises(ValueError):
        calibration_table(lambdas=[])
    with pytest.raises(ValueError):
        calibration_table(targets=[])


def test_table_csv_layout():
    text = calibration_table_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "lambda,0.9,0.925,0.95,0.975,0.99"
    assert len(lines) == 38
    first = lines[1].split(",")
    assert first[0] == "0.05" and len(first) == 6
    row_1 = next(l for l in lines if l.startswith("1,"))
    assert row_1.split(",")[3] == "0.9708"


def test_display_level_truncates():
    assert display_level(0.9708518789) == "0.9708"
    assert display_level(0.9901734752) == "0.9901"
    assert display_level(0.97) == "0.9700"
    assert display_level(0.9709) == "0.9709"
    assert display_level(0.97089999) == "0.9708"
