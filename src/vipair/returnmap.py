"""First-return maps to the bottom wall and the surfaces they sweep out.

A return sample maps one bottom-wall impact state (v_k, phi_k) to the next
bottom-wall state, classified by the number of intervening top impacts:
0 -> BB, 1 -> BTB, 2 -> BTTB; anything else (more than two top impacts,
grazing, or no impact within the solver horizon) folds into OTHER with a
reason code.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, fields, replace
from enum import IntEnum

import numpy as np

from .core import PI, STATUS_NO_IMPACT, STATUS_OK, NondimParams, impact_phase, next_impact_batch


class ReturnClass(IntEnum):
    """Class code of a first return: its number of top impacts, else OTHER."""

    BB = 0
    BTB = 1
    BTTB = 2
    OTHER = 3


# Reason codes are next_impact_batch's statuses (core.STATUS_*) plus
# MANY_T_IMPACTS, a third top impact before the return.
MANY_T_IMPACTS = 3
_MAX_T_IMPACTS = 2


@dataclass(frozen=True)
class GridSpec:
    """Rectangular sweep grid; v nodes exclude the lower edge (no zero-velocity
    impacts), phase nodes include both ends."""

    n_v: int = 200
    n_phi: int = 200
    v_range: tuple[float, float] = (0.0, 1.0)
    phi_range: tuple[float, float] = (0.0, PI)

    def __post_init__(self):
        if self.n_v < 2 or self.n_phi < 2:
            raise ValueError("grid needs at least 2 nodes per axis")
        if not (self.v_range[0] < self.v_range[1] and self.phi_range[0] < self.phi_range[1]):
            raise ValueError(f"grid ranges must increase, got v {self.v_range}, "
                             f"phi {self.phi_range}")

    def v_nodes(self) -> np.ndarray:
        lo, hi = self.v_range
        return lo + (hi - lo) * np.arange(1, self.n_v + 1) / self.n_v

    def phi_nodes(self) -> np.ndarray:
        return np.linspace(self.phi_range[0], self.phi_range[1], self.n_phi)

    def points(self) -> tuple[np.ndarray, np.ndarray]:
        """Flat (v, phi) of every node, node (i_v, i_phi) at i_v * n_phi + i_phi."""
        V, P = np.meshgrid(self.v_nodes(), self.phi_nodes(), indexing="ij")
        return V.ravel(), P.ravel()


@dataclass
class SurfaceData:
    """Sampled first-return map over a grid, stored column-wise.

    Arrays are flat with node (i_v, i_phi) at index i_v * n_phi + i_phi.
    """

    params: NondimParams
    grid: GridSpec | None        # None for a point set (_sweep_points, curve samples)
    v_in: np.ndarray
    phi_in: np.ndarray
    klass: np.ndarray            # int8 ReturnClass codes
    v_out: np.ndarray            # NaN where class is OTHER
    phi_out: np.ndarray
    n_intermediate: np.ndarray
    reason: np.ndarray           # int8 reason codes: core.STATUS_*, MANY_T_IMPACTS

    @property
    def d(self) -> float:
        return self.params.length

    def __len__(self) -> int:
        return len(self.v_in)

    def rows(self, index: slice) -> "SurfaceData":
        """The rows at index as a point set; its arrays are views of these."""
        return replace(self, grid=None, **{
            f.name: getattr(self, f.name)[index] for f in fields(self)
            if isinstance(getattr(self, f.name), np.ndarray)})

    def class_samples(self, klass: ReturnClass):
        """Arrays (v_in, phi_in, v_out, phi_out) of one class."""
        m = self.klass == klass
        return self.v_in[m], self.phi_in[m], self.v_out[m], self.phi_out[m]

    def class_counts(self) -> dict:
        counts = np.bincount(self.klass, minlength=len(ReturnClass))
        return {k: int(n) for k, n in zip(ReturnClass, counts)}


def sweep_surfaces(grid: GridSpec, p: NondimParams) -> SurfaceData:
    """Evaluate the first-return map on every grid node (deterministic)."""
    surface = _sweep_points(*grid.points(), p)
    surface.grid = grid
    return surface


def _sweep_points(v_in, phi_in, p: NondimParams) -> SurfaceData:
    """Chain the batched event solver until each point returns to B or fails.

    A row stops at its third top impact at the latest, so the chain ends
    within three legs.
    """
    n = len(v_in)
    v_in = np.asarray(v_in, dtype=float)
    phi_in = np.asarray(phi_in, dtype=float)

    sides = np.ones(n, dtype=np.int8)
    times = (phi_in - p.general_phase) / PI
    vels = v_in.copy()

    reason = np.where(v_in > 0, STATUS_OK, STATUS_NO_IMPACT).astype(np.int8)
    v_out = np.full(n, np.nan)
    phi_out = np.full(n, np.nan)
    n_inter = np.zeros(n, dtype=np.int64)

    active = np.flatnonzero(v_in > 0)
    while active.size:
        s, t, v, st = next_impact_batch(sides[active], times[active], vels[active], p)
        reason[active] = st
        ok = st == STATUS_OK
        back_b = ok & (s > 0)
        done = active[back_b]
        v_out[done] = v[back_b]
        phi_out[done] = impact_phase(t[back_b], p.general_phase)

        to_t = ok & (s < 0)
        cont = active[to_t]
        many = n_inter[cont] == _MAX_T_IMPACTS
        reason[cont[many]] = MANY_T_IMPACTS
        n_inter[cont] += 1

        active, t, v = cont[~many], t[to_t][~many], v[to_t][~many]
        sides[active] = -1
        times[active] = t
        vels[active] = v

    klass = np.where(reason == STATUS_OK, n_inter, ReturnClass.OTHER).astype(np.int8)
    return SurfaceData(params=p, grid=None, v_in=v_in, phi_in=phi_in, klass=klass,
                       v_out=v_out, phi_out=phi_out, n_intermediate=n_inter,
                       reason=reason)


def partition_by_class(surface: SurfaceData) -> np.ndarray:
    """Class-label raster over the grid, shape (n_v, n_phi), values 'BB'...'OTHER'."""
    labels = np.array([k.name for k in ReturnClass], dtype=object)[surface.klass]
    return labels.reshape(surface.grid.n_v, surface.grid.n_phi)


class EmptyFilterResult(UserWarning):
    pass


# The diagonal-proximity ratio that carves out region 1 (R1 fits and the
# CLI's --delta default)
R1_DELTA = 1.2


def near_diagonal(v_in, phi_in, v_out, phi_out, delta: float) -> np.ndarray:
    """Diagonal-proximity ratio test: 1/delta < |v_out/v_in| < delta and
    1/delta < |phi_out/phi_in| < delta.

    A zero input makes its ratio inf or NaN, which fails the open interval;
    delta = 0 makes 1/delta inf, so, like every delta <= 1, it keeps no point.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        rv = np.abs(v_out / v_in)
        rp = np.abs(phi_out / phi_in)
        lo = 1 / np.float64(delta)
    return (rv > lo) & (rv < delta) & (rp > lo) & (rp < delta)


def r1_filter(surfaces, delta: float) -> tuple[np.ndarray, tuple]:
    """Diagonal-proximity filter defining region R1.

    Keeps BTB samples whose input/output ratios satisfy
    1/delta < |phi_out/phi_in| < delta and 1/delta < |v_out/v_in| < delta,
    unioned over the surfaces (any iterable, so a generator holds one sweep
    at a time).  Returns (points, box): the kept states as rows (d, v, phi)
    and their axis-aligned bounding box (v_min, v_max, phi_min, phi_max).  A
    filter that keeps no point (any delta <= 1 does) warns EmptyFilterResult
    and has a NaN box.
    """
    rows = []
    for surface in surfaces:
        vk, pk, vn, pn = surface.class_samples(ReturnClass.BTB)
        keep = near_diagonal(vk, pk, vn, pn, delta)
        rows.append(np.column_stack([np.full(keep.sum(), surface.d), vk[keep], pk[keep]]))
    points = np.concatenate(rows) if rows else np.empty((0, 3))
    if not len(points):
        warnings.warn(f"R1 filter with delta={delta} kept no points",
                       EmptyFilterResult, stacklevel=2)
        box = (np.nan,) * 4
    else:
        box = (points[:, 1].min(), points[:, 1].max(),
               points[:, 2].min(), points[:, 2].max())
    return points, box
