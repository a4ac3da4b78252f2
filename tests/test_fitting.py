import numpy as np
import pytest

from vipair.fitting import (
    RankDeficientFit,
    cheb_fit_1d,
    cheb_to_monomial_matrix,
    compose,
    design_matrix,
    fit_poly2d,
    fit_poly2d_scaled,
    lstsq_fit,
    poly2d_exponents,
)


def test_poly23_exponents_match_printed_term_order():
    assert poly2d_exponents(2, 3) == [
        (0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (2, 1), (1, 2), (0, 3)]


def test_poly45_exponent_counts():
    assert len(poly2d_exponents(3, 5)) == 18
    assert len(poly2d_exponents(4, 5)) == 20
    assert (4, 1) in poly2d_exponents(4, 5)
    assert (4, 1) not in poly2d_exponents(3, 5)


def test_exact_polynomial_recovered(rng):
    v = rng.uniform(0.6, 1.0, 120)
    p = rng.uniform(0.1, 0.5, 120)
    target = 2.0 - 1.5 * p + 0.3 * v - 0.7 * p * v + 0.2 * v**3
    coeffs, exps, report = fit_poly2d(v, p, target, 2, 3)
    assert report.sse == pytest.approx(0.0, abs=1e-20)
    assert report.r_squared == pytest.approx(1.0)
    rebuilt = design_matrix(v, p, exps) @ coeffs
    assert np.allclose(rebuilt, target)


def test_scaled_fit_matches_plain_on_good_data(rng):
    v = rng.uniform(0.63, 0.94, 200)
    p = rng.uniform(0.15, 0.45, 200)
    target = 1 + p - v + 0.5 * p**2 * v - v**2
    plain, exps, _ = (*fit_poly2d(v, p, target, 2, 3)[:2], None)
    scaled, _, _ = fit_poly2d_scaled(v, p, target, 2, 3, (0.63, 0.94), (0.15, 0.45))
    assert np.allclose(plain, scaled, atol=1e-8)


def test_rank_deficiency_detected(rng):
    v = np.full(30, 0.7)          # no v variation: columns collide
    p = rng.uniform(0.1, 0.5, 30)
    with pytest.raises(RankDeficientFit):
        fit_poly2d(v, p, p * 2, 2, 3)
    with pytest.raises(RankDeficientFit):
        # fewer samples than terms
        lstsq_fit(np.polynomial.polynomial.polyvander(np.arange(3.0), 5), np.arange(3.0))


def test_nested_degree_improves_fit(rng):
    x = rng.uniform(0, 1, 100)
    y = np.sin(3 * x)
    rms = []
    for deg in (2, 4, 6):
        _, report = cheb_fit_1d(x, y, deg, (0.0, 1.0))
        rms.append(report.rmse)
    assert rms[0] >= rms[1] >= rms[2]


def test_cheb_conversion_exact(rng):
    x = rng.uniform(0.01, 0.55, 150)
    y = 1 - 2 * x + 4 * x**5 - 0.3 * x**8
    cheb, report = cheb_fit_1d(x, y, 8, (0.0, 0.6))
    coeffs = cheb_to_monomial_matrix(8, (0.0, 0.6)) @ cheb
    assert report.rmse < 1e-10
    val = np.polynomial.polynomial.polyval(0.3, coeffs)
    assert val == pytest.approx(1 - 0.6 + 4 * 0.3**5 - 0.3 * 0.3**8, abs=1e-9)


def test_cheb_matrix_roundtrip(rng):
    degree, window = 5, (2.0, 3.0)
    cheb = rng.normal(size=degree + 1)
    T = cheb_to_monomial_matrix(degree, window)
    mono = T @ cheb
    xs = np.linspace(*window, 7)
    u = (2 * xs - sum(window)) / (window[1] - window[0])
    expect = np.polynomial.chebyshev.chebval(u, cheb)
    got = np.polynomial.polynomial.polyval(xs, mono)
    assert np.allclose(got, expect)


def test_cheb_fit_report(rng):
    x = rng.uniform(0.0, 1.0, 80)
    y = x**2
    cheb, report = cheb_fit_1d(x, y, 3, (0.0, 1.0))
    assert report.n_samples == 80
    assert report.rmse < 1e-12


def _compose_by_polynomial_module(outer, inner):
    """compose's Horner loop on numpy.polynomial's polyadd and polymul: the
    reference that compose must match bit for bit."""
    P = np.polynomial.polynomial
    acc = np.array([outer[-1]])
    for c in outer[-2::-1]:
        acc = P.polyadd(P.polymul(acc, inner), [c])
    return acc


def test_compose_matches_the_polynomial_module_bit_for_bit(rng):
    cases = [(rng.normal(size=n), rng.normal(size=m))
             for n, m in ((1, 2), (2, 2), (4, 4), (9, 2), (10, 4))]
    cases += [
        (np.append(rng.normal(size=4), 0.0), rng.normal(size=3)),   # zero leading coefficient
        (rng.normal(size=4), np.append(rng.normal(size=2), [0.0, 0.0])),   # inner trails zeros
        (np.zeros(3), rng.normal(size=3)),
        (np.array([-2.0, 1.0, 0.0]), np.array([2.0, 0.0])),   # cancels to a constant 0
        (np.polynomial.chebyshev.cheb2poly(np.eye(9)[8]), [-1.0 / 0.3, 1.0 / 0.3]),
    ]
    for outer, inner in cases:
        got, want = compose(outer, inner), _compose_by_polynomial_module(outer, inner)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (outer, inner)
