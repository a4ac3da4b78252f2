"""Polynomial bases and least-squares fitting for the return-map surfaces.

The 2D basis follows the MATLAB ``polyNM`` convention: all monomials
phi^i * v^j with i <= deg_phi, j <= deg_v and i + j <= max(deg_phi, deg_v).
Systems are solved through an orthogonal decomposition (numpy lstsq/SVD),
never the normal equations; several shipped coefficient families are badly
scaled and conditioning matters.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np


def poly2d_exponents(deg_phi: int, deg_v: int) -> list[tuple[int, int]]:
    """(i, j) exponent pairs of the polyNM basis, i for phi, j for v.

    Ordered by total degree then descending phi power, which reproduces the
    printed term order of the region maps.
    """
    cap = max(deg_phi, deg_v)
    out = []
    for total in range(cap + 1):
        for i in range(min(deg_phi, total), -1, -1):
            j = total - i
            if j <= deg_v:
                out.append((i, j))
    return out


def design_matrix(v, phi, exponents) -> np.ndarray:
    """Columns phi**i * v**j, one per (i, j); each distinct power is taken once."""
    v = np.asarray(v, dtype=float)
    phi = np.asarray(phi, dtype=float)
    phi_pow = {i: phi**i for i in {i for i, _ in exponents}}
    v_pow = {j: v**j for j in {j for _, j in exponents}}
    design = np.empty((len(v), len(exponents)))
    for k, (i, j) in enumerate(exponents):
        np.multiply(phi_pow[i], v_pow[j], out=design[:, k])
    return design


@dataclass(frozen=True)
class FitReport:
    """Least-squares quality summary: R^2 = 1 - SSE/SST."""

    n_samples: int
    sse: float
    sst: float
    rmse: float

    @property
    def r_squared(self) -> float:
        return 1.0 - self.sse / self.sst if self.sst > 0 else 1.0


class RankDeficientFit(RuntimeError):
    """The design matrix does not determine all coefficients."""


def lstsq_fit(design: np.ndarray, target) -> tuple[np.ndarray, FitReport]:
    """Solve min ||design @ c - target|| and report fit quality."""
    target = np.asarray(target, dtype=float)
    if design.shape[0] < design.shape[1]:
        raise RankDeficientFit(
            f"{design.shape[0]} samples cannot determine {design.shape[1]} coefficients")
    coeffs, _, rank, _ = np.linalg.lstsq(design, target, rcond=None)
    if rank < design.shape[1]:
        raise RankDeficientFit(f"design matrix rank {rank} < {design.shape[1]} coefficients")
    resid = design @ coeffs - target
    sse = float(resid @ resid)
    sst = float(np.sum((target - target.mean()) ** 2))
    report = FitReport(n_samples=len(target), sse=sse, sst=sst,
                       rmse=float(np.sqrt(sse / len(target))))
    return coeffs, report


def fit_poly2d(v, phi, target, deg_phi: int, deg_v: int):
    """Fit target(v, phi) with the polyNM basis; returns (coeffs, exponents, report)."""
    exponents = poly2d_exponents(deg_phi, deg_v)
    coeffs, report = lstsq_fit(design_matrix(v, phi, exponents), target)
    return coeffs, exponents, report


def _trimmed(c):
    """c without trailing zeros, but at least one coefficient long."""
    while len(c) > 1 and c[-1] == 0:
        c = c[:-1]
    return c


def compose(outer, inner) -> np.ndarray:
    """Coefficients (ascending) of outer(inner(x)), by Horner's rule on the
    coefficient arrays, trimmed of trailing zeros as numpy.polynomial trims."""
    inner = _trimmed(np.asarray(inner, dtype=float))
    acc = np.array([outer[-1]])
    for c in outer[-2::-1]:
        acc = np.convolve(acc, inner)
        acc[0] += c
        acc = _trimmed(acc)
    return acc


def cheb_fit_1d(x, target, degree: int, window: tuple[float, float]):
    """Least squares in a Chebyshev basis on a fixed window; (coeffs, report).

    High-degree monomial bases on short windows are nearly singular and make
    the fitted coefficients jitter between nearby sample sets; solving in an
    orthogonal basis keeps the coefficient family smooth in d.
    """
    a, b = window
    x = np.asarray(x, dtype=float)
    u = (2.0 * x - (a + b)) / (b - a)
    design = np.polynomial.chebyshev.chebvander(u, degree)
    return lstsq_fit(design, target)


def cheb_to_monomial_matrix(degree: int, window: tuple[float, float]) -> np.ndarray:
    """Constant matrix T with monomial_coeffs = T @ cheb_coeffs on the window."""
    a, b = window
    offset, scale = 0.5 * (a + b), 0.5 * (b - a)
    # T_k in powers of u by T_{k+1} = 2u T_k - T_{k-1}: small integers, exact in floats
    series = [np.ones(1), np.array([0.0, 1.0])]
    while len(series) <= degree:
        series.append(np.append(0.0, 2.0 * series[-1]) - np.append(series[-2], (0.0, 0.0)))
    T = np.zeros((degree + 1, degree + 1))
    for k, power_u in enumerate(series[: degree + 1]):
        coeffs = compose(power_u, [-offset / scale, 1.0 / scale])  # u = (x - offset)/scale
        T[: len(coeffs), k] = coeffs
    return T


def scaled_fit_2d(v, phi, target, deg_phi: int, deg_v: int,
                  v_window: tuple[float, float], phi_window: tuple[float, float]):
    """polyNM least squares in box-scaled coordinates; (scaled coeffs, report)."""
    exponents = poly2d_exponents(deg_phi, deg_v)
    v = np.asarray(v, dtype=float)
    phi = np.asarray(phi, dtype=float)
    v0, s_v = 0.5 * (v_window[0] + v_window[1]), 0.5 * (v_window[1] - v_window[0])
    p0, s_p = 0.5 * (phi_window[0] + phi_window[1]), 0.5 * (phi_window[1] - phi_window[0])
    u = (v - v0) / s_v
    w = (phi - p0) / s_p
    scaled, report = lstsq_fit(design_matrix(u, w, exponents), target)
    return scaled, report


def scaled_to_monomial_matrix_2d(deg_phi: int, deg_v: int,
                                 v_window: tuple[float, float],
                                 phi_window: tuple[float, float]) -> np.ndarray:
    """Constant matrix T with raw_coeffs = T @ scaled_coeffs, both aligned
    with poly2d_exponents(deg_phi, deg_v)."""
    exponents = poly2d_exponents(deg_phi, deg_v)
    index = {exp: k for k, exp in enumerate(exponents)}
    v0, s_v = 0.5 * (v_window[0] + v_window[1]), 0.5 * (v_window[1] - v_window[0])
    p0, s_p = 0.5 * (phi_window[0] + phi_window[1]), 0.5 * (phi_window[1] - phi_window[0])
    T = np.zeros((len(exponents), len(exponents)))
    for col, (i, j) in enumerate(exponents):
        for a in range(i + 1):
            ca = comb(i, a) * (-p0) ** (i - a) / s_p**i
            for b in range(j + 1):
                cb = comb(j, b) * (-v0) ** (j - b) / s_v**j
                T[index[(a, b)], col] += ca * cb
    return T


def fit_poly2d_scaled(v, phi, target, deg_phi: int, deg_v: int,
                      v_window: tuple[float, float], phi_window: tuple[float, float]):
    """Box-scaled polyNM fit converted exactly to raw monomial coefficients."""
    scaled, report = scaled_fit_2d(v, phi, target, deg_phi, deg_v, v_window, phi_window)
    T = scaled_to_monomial_matrix_2d(deg_phi, deg_v, v_window, phi_window)
    return T @ scaled, poly2d_exponents(deg_phi, deg_v), report
