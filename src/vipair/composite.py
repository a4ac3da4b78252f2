"""Piecewise-polynomial composite return map over regions R1..R5 with reset.

Dispatch is one ordered rule table, REGION_RULES, read by region_of and
region_mask: reset for phases outside [0, pi], then R1 (2D cubic/quadratic map
on its box), R2/R4/R5 (separable 1D maps), and R3 (2D map on the remaining
low-velocity triangle, where no rule holds, so dispatch is total).

Coefficient tables store every coefficient as a polynomial in the
dimensionless length d (ascending powers); two sets ship with the package:

* ``calibrated`` -- regenerated from the exact event-driven dynamics by the
  in-repo fitting pipeline; the default for all dynamics.
* ``supplement`` -- a verbatim transcription of the published tables, kept
  for reference and comparison.

``load_table`` (the CLI's ``--table``) reads these names as the shipped files,
whatever the working directory holds; any other string is a path.
"""

from __future__ import annotations

import hashlib
import json
import math
import warnings
from dataclasses import dataclass, field
from enum import Enum
from importlib import resources
from pathlib import Path

import numpy as np

PI = np.pi

PHI_RESET = 1.2

R1_BOX = (0.63, 0.94, 0.15, 0.45)  # v_min, v_max, phi_min, phi_max


class Region(Enum):
    R1 = "R1"
    R2 = "R2"
    R3 = "R3"
    R4 = "R4"
    R5 = "R5"
    RESET = "RESET"


# A state goes to the first region whose rule holds, else to R3 (NaN too).
# Written with & and |, each rule takes floats and arrays alike.
REGION_RULES = (
    (Region.RESET, lambda v, phi: (phi > PI) | (phi < 0.0)),
    (Region.R1, lambda v, phi: (R1_BOX[0] <= v) & (v <= R1_BOX[1])
     & (R1_BOX[2] <= phi) & (phi <= R1_BOX[3])),
    (Region.R2, lambda v, phi: (v > 0.63 - 0.53 * phi) & (v > 0.55)),
    (Region.R4, lambda v, phi: (v > 0.63 - 0.53 * phi) & (1.1 < phi) & (phi < 2.5)
     & (v < 0.55)),
    (Region.R5, lambda v, phi: (2.5 < phi) & (phi < PI) & (v < 0.55)),
)


def region_of(v: float, phi: float) -> Region:
    """Dispatch a state to its region; total on all real (v, phi)."""
    for region, rule in REGION_RULES:
        if rule(v, phi):
            return region
    return Region.R3


def region_mask(v, phi, region: Region) -> np.ndarray:
    """Mask of the states (v, phi) that region_of dispatches to region."""
    v, phi = np.asarray(v, dtype=float), np.asarray(phi, dtype=float)
    left = np.ones(np.broadcast(v, phi).shape, dtype=bool)   # not yet dispatched
    for branch, rule in REGION_RULES:
        test = rule(v, phi)
        if branch == region:
            return left & test
        left &= ~test
    return left


def horner(coeffs, x):
    """numpy.polynomial.polynomial.polyval(x, coeffs) for a float or an array
    x: the same operations in the same order (coefficients ascending), in
    Python floats for a float x."""
    out = coeffs[-1] + x * 0
    for c in coeffs[-2::-1]:
        out = c + out * x
    return out


def _power_row(x: float, top: int) -> list:
    """[x**0, x**1, x**2, ..., x**top] (at least to x**2) in Python floats.

    x**2 is x*x: ndarray ``**2`` is np.square, this one multiplication.  Each
    x**e for e >= 3 is the np.power ufunc loop of ndarray ``**``, while Python
    ``float ** e``, math.pow and ``np.float64 ** e`` round differently from it
    on some inputs.
    """
    row = [1.0, x, x * x]
    for e in range(3, top + 1):
        row.append(float(np.power(x, e)))
    return row


def _power_rows(xs: list, top: int) -> list:
    """_power_row of each float of xs, with one np.power call per power e >= 3
    over all of them."""
    cols = [[1.0] * len(xs), xs, [x * x for x in xs]]
    if top >= 3:
        arr = np.array(xs, dtype=float)
        cols += [np.power(arr, e).tolist() for e in range(3, top + 1)]
    return list(zip(*cols))


@dataclass(frozen=True)
class Poly2D:
    """Bivariate polynomial sum(c * phi^i * v^j) over fixed exponent pairs.

    Every evaluation sums the terms in term order, so a 0-d call, a call on
    lists of points (``at_points``) and an n-d array call agree bit for bit at
    every point.  The powers make it so (see _power_row): x**2 is one
    multiplication and x**e for e >= 3 the np.power loop on every path.  0-d
    calls and point lists run in Python floats over a term table built once
    per instance; an n-d call takes ndarray ``**`` once per distinct power
    and sums elementwise.  The package itself makes no n-d call; that path
    serves other callers, such as the tests' brute-force grids.
    """

    exponents: tuple[tuple[int, int], ...]
    coeffs: np.ndarray

    def __post_init__(self):
        # the (i, j, c) terms in Python ints and floats, and the top phi and v powers
        terms = [(int(i), int(j), c) for (i, j), c in zip(self.exponents, self.coeffs.tolist())]
        object.__setattr__(self, "_terms", terms)
        object.__setattr__(self, "_top", (max((i for i, _, _ in terms), default=0),
                                          max((j for _, j, _ in terms), default=0)))

    def __call__(self, v, phi):
        if not (isinstance(v, float) and isinstance(phi, float)):   # np.float64 is a float
            v, phi = np.asarray(v, dtype=float), np.asarray(phi, dtype=float)
            if v.ndim or phi.ndim:
                phi_pow = {i: phi**i for i in {i for i, _, _ in self._terms}}
                v_pow = {j: v**j for j in {j for _, j, _ in self._terms}}
                return self._term_sum(phi_pow, v_pow)
        top_i, top_j = self._top
        return self._term_sum(_power_row(float(phi), top_i), _power_row(float(v), top_j))

    def at_points(self, vs: list, phis: list) -> list:
        """Values at the points (vs[k], phis[k]) of two lists of floats, in
        Python floats; each equals that point of the array call."""
        top_i, top_j = self._top
        return [self._term_sum(p, v)
                for p, v in zip(_power_rows(phis, top_i), _power_rows(vs, top_j))]

    def _term_sum(self, phi_pow, v_pow):
        """sum(c * phi_pow[i] * v_pow[j]) in term order."""
        total = 0.0
        for i, j, c in self._terms:
            total += c * phi_pow[i] * v_pow[j]
        return total

    def partial_phi(self, phi0: float) -> "Poly1D":
        """Collapse phi to a constant, leaving an exact polynomial in v."""
        deg_v = max(j for _, j in self.exponents)
        c = np.zeros(deg_v + 1)
        for (i, j), coeff in zip(self.exponents, self.coeffs):
            c[j] += coeff * phi0**i
        return Poly1D(coeffs=c)


@dataclass(frozen=True)
class Poly1D:
    """Single-variable polynomial, coefficients ascending; optional |.| wrapper.
    A region's "v" map takes v and its "phi" map takes phi."""

    coeffs: np.ndarray
    absolute: bool = False

    def __call__(self, x):
        x = float(x) if np.ndim(x) == 0 else np.asarray(x, dtype=float)
        val = horner(self.coeffs.tolist(), x)
        return abs(val) if self.absolute else val

    def derivative(self) -> "Poly1D":
        if self.absolute:
            raise ValueError("derivative undefined through the absolute-value wrapper")
        return Poly1D(np.polynomial.polynomial.polyder(self.coeffs))


# Region map shapes: target -> (deg_phi, deg_v, absolute), the largest phi and
# v powers of a term and the |.| wrapper.  A separable map has 0 in its unused
# slot: its "v" map takes v and its "phi" map takes phi.
REGION_SHAPES = {
    Region.R1: {"v": (2, 3, False), "phi": (2, 3, False)},
    Region.R2: {"v": (0, 5, False), "phi": (5, 0, False)},
    Region.R3: {"v": (3, 5, False), "phi": (4, 5, False)},
    Region.R4: {"v": (0, 8, False), "phi": (4, 0, False)},
    Region.R5: {"v": (0, 4, True), "phi": (3, 0, False)},
}

# The NondimParams fields a table is fitted at (its metadata's base_params);
# the composite map exists only there
TABLE_PARAMS = ("restitution", "gravity_term", "general_phase")


def table_checksum(regions_dict: dict) -> str:
    canonical = json.dumps(regions_dict, sort_keys=True, separators=(",", ":"))
    return "sha256:" + hashlib.sha256(canonical.encode()).hexdigest()


class ExtrapolationWarning(UserWarning):
    """A coefficient table evaluated at a d outside its calibrated range."""


class CoeffTableError(ValueError):
    pass


def _is_number(x) -> bool:
    """Whether x is a finite int or float (a bool is neither)."""
    return type(x) in (int, float) and math.isfinite(x)


def _region_terms(region: Region, targets) -> dict:
    """{target: [(exponent pair, d-polynomial)]} of one region's table entry,
    checked against REGION_SHAPES; a ValueError names the first fault."""
    if not isinstance(targets, dict) or set(targets) != {"v", "phi"}:
        raise ValueError("must map exactly the targets 'v' and 'phi'")
    entries = {}
    for tname, spec in targets.items():
        if not isinstance(spec, dict) or not isinstance(spec.get("terms"), list):
            raise ValueError(f"{tname}-map must be an object with a 'terms' list")
        max_i, max_j, absolute = REGION_SHAPES[region][tname]
        if spec.get("absolute", False) != absolute:
            raise ValueError(f"{tname}-map 'absolute' must be {absolute}")
        entries[tname] = []
        for item in spec["terms"]:
            if not isinstance(item, dict) or not {"exponents", "d_poly"} <= set(item):
                raise ValueError(f"{tname}-map terms need 'exponents' and 'd_poly'")
            exps, poly = item["exponents"], item["d_poly"]
            if not (isinstance(exps, list) and len(exps) == 2
                    and all(type(e) is int for e in exps)
                    and 0 <= exps[0] <= max_i and 0 <= exps[1] <= max_j):
                raise ValueError(f"{tname}-map exponents {exps} do not fit its shape "
                                 f"(phi power <= {max_i}, v power <= {max_j})")
            if not (isinstance(poly, list) and poly and all(map(_is_number, poly))):
                raise ValueError(f"{tname}-map d_poly {poly} is not a nonempty list "
                                 "of finite numbers")
            entries[tname].append((tuple(exps), np.asarray(poly, dtype=float)))
    return entries


@dataclass
class CoeffTable:
    """d-parameterized coefficient tables for the five region maps.

    Entries map region -> target ("v"/"phi") -> list of (exponent pair,
    d-polynomial ascending).  Exponent pairs are (phi power, v power);
    separable maps use pairs with a zero in the unused slot.
    """

    name: str
    d_range: tuple[float, float]
    entries: dict
    metadata: dict = field(default_factory=dict)

    @classmethod
    def from_dict(cls, payload) -> "CoeffTable":
        if not isinstance(payload, dict):
            raise CoeffTableError("a coefficient table must be a JSON object")
        missing = {"regions", "name", "d_range"} - set(payload)
        if missing:
            raise CoeffTableError(f"coefficient table lacks {sorted(missing)}")
        regions = payload["regions"]
        names = {region.value for region in REGION_SHAPES}
        if not isinstance(regions, dict) or not set(regions) <= names:
            raise CoeffTableError(f"coefficient table {payload['name']!r}: 'regions' "
                                  f"must map region names {sorted(names)} to maps")
        expected = payload.get("checksum")
        actual = table_checksum(regions)
        if expected != actual:
            raise CoeffTableError(
                f"coefficient table {payload.get('name')!r} checksum mismatch: "
                f"file says {expected}, content is {actual}")
        entries = {}
        for rname, targets in regions.items():
            region = Region(rname)
            try:
                entries[region] = _region_terms(region, targets)
            except ValueError as err:
                raise CoeffTableError(f"coefficient table {payload['name']!r}: "
                                      f"{rname} {err}") from None
        d_range, metadata = payload["d_range"], payload.get("metadata", {})
        if not (isinstance(d_range, (list, tuple)) and len(d_range) == 2
                and all(map(_is_number, d_range)) and d_range[0] < d_range[1]):
            raise CoeffTableError(f"coefficient table {payload['name']!r}: 'd_range' must "
                                  f"be two finite numbers lo < hi, got {d_range}")
        if not isinstance(metadata, dict):
            raise CoeffTableError(f"coefficient table {payload['name']!r}: 'metadata' "
                                  "must be an object")
        base = metadata.get("base_params")
        if base and not (isinstance(base, dict)
                         and all(_is_number(base.get(key)) for key in TABLE_PARAMS)):
            raise CoeffTableError(f"coefficient table {payload['name']!r}: 'base_params' "
                                  f"must give a number for each of {', '.join(TABLE_PARAMS)}")
        return cls(name=payload["name"], d_range=tuple(d_range), entries=entries,
                   metadata=metadata)

    def to_dict(self) -> dict:
        regions = {}
        for region, targets in self.entries.items():
            regions[region.value] = {}
            for tname, terms in targets.items():
                regions[region.value][tname] = {
                    "absolute": REGION_SHAPES[region][tname][2],
                    "terms": [{"exponents": list(exp), "d_poly": list(map(float, poly))}
                              for exp, poly in terms],
                }
        return {"name": self.name, "d_range": list(self.d_range),
                "metadata": self.metadata, "regions": regions,
                "checksum": table_checksum(regions)}

    def covers(self, d: float) -> bool:
        """Whether d lies in the calibrated range."""
        lo, hi = self.d_range
        return lo - 1e-9 <= d <= hi + 1e-9  # scan grids accumulate float noise

    def coeffs_for(self, region: Region, d: float) -> dict:
        """Evaluate the d-polynomials of one region; {'v': map, 'phi': map}."""
        if not d > 0:
            raise CoeffTableError(f"d must be positive, got {d}")
        if region not in self.entries:
            raise CoeffTableError(f"coefficient table {self.name!r} has no "
                                  f"{region.value} maps")
        if not self.covers(d):
            lo, hi = self.d_range
            warnings.warn(f"d={d} outside the calibrated range [{lo}, {hi}]; "
                          "extrapolating the coefficient polynomials",
                          ExtrapolationWarning, stacklevel=2)
        out = {}
        for tname, terms in self.entries[region].items():
            exps = tuple(exp for exp, _ in terms)
            vals = np.array([np.polynomial.polynomial.polyval(d, poly) for _, poly in terms])
            deg_phi, deg_v, absolute = REGION_SHAPES[region][tname]
            if deg_phi and deg_v:
                out[tname] = Poly2D(exponents=exps, coeffs=vals)
            else:   # separable: one of i, j is 0
                coeffs = np.zeros(deg_phi + deg_v + 1)
                for (i, j), val in zip(exps, vals):
                    coeffs[i + j] += val
                out[tname] = Poly1D(coeffs=coeffs, absolute=absolute)
        return out


SHIPPED_TABLES = ("calibrated", "supplement")


def _data_path(name: str) -> Path:
    return Path(str(resources.files("vipair").joinpath("data", f"{name}_coefficients.json")))


def load_table(name: str = "calibrated") -> CoeffTable:
    """Load the shipped table of a name in SHIPPED_TABLES, else the table at a path."""
    path = _data_path(name) if name in SHIPPED_TABLES else Path(name)
    if not path.exists():
        raise FileNotFoundError(f"no coefficient table at {name!r}; the shipped tables "
                                f"are {', '.join(SHIPPED_TABLES)}")
    return CoeffTable.from_dict(json.loads(path.read_text()))


@dataclass
class CompositeMap:
    """The composite map M: dispatch to a region map, or reset the phase."""

    table: CoeffTable
    d: float

    def __post_init__(self):
        self._maps = {region: self.table.coeffs_for(region, self.d)
                      for region in REGION_SHAPES}

    def step(self, v: float, phi: float) -> tuple[float, float, Region]:
        region = region_of(v, phi)
        if region == Region.RESET:
            return v, PHI_RESET, region
        maps = self._maps[region]
        fmap, gmap = maps["v"], maps["phi"]
        if isinstance(fmap, Poly2D):
            return fmap(v, phi), gmap(v, phi), region
        return fmap(v), gmap(phi), region

    def iterate(self, v0: float, phi0: float, n_steps: int):
        """Trajectory of n_steps applications; arrays (v, phi, region codes).

        Region codes label the region used to map state k to k+1; the final
        state's code is the region it lies in.
        """
        v = np.empty(n_steps + 1)
        phi = np.empty(n_steps + 1)
        regions = np.empty(n_steps + 1, dtype=object)
        v[0], phi[0] = v0, phi0
        for k in range(n_steps):
            v[k + 1], phi[k + 1], regions[k] = self.step(v[k], phi[k])
        regions[n_steps] = region_of(v[n_steps], phi[n_steps])
        return v, phi, regions


@dataclass(frozen=True)
class AttractorClass:
    """Tail classification: kind "FP", "PD" (with period) or "CD"."""

    kind: str
    period: int

    def __str__(self):
        return self.kind if self.kind != "PD" else f"PD({self.period})"


class InsufficientData(ValueError):
    pass


TAIL_FRACTION = 0.1     # share of a trajectory taken as its tail
MAX_PERIOD = 16
PERIOD_TOL = 1e-4


def detect_attractor(v, phi) -> AttractorClass | None:
    """Classify the tail of a trajectory as FP, PD(p) or CD, or None when the
    trajectory holds a non-finite state (it diverged).

    FP: the last TAIL_FRACTION of states repeat with period 1 within
    PERIOD_TOL (sup-norm over both coordinates); PD(p): smallest
    p <= MAX_PERIOD that matches; CD: no period matches.
    """
    v = np.asarray(v, dtype=float)
    phi = np.asarray(phi, dtype=float)
    if len(v) < 4 * MAX_PERIOD:
        raise InsufficientData(f"need at least {4 * MAX_PERIOD} states, got {len(v)}")
    if not (np.isfinite(v).all() and np.isfinite(phi).all()):
        return None
    n_tail = max(int(len(v) * TAIL_FRACTION), 2 * MAX_PERIOD)
    tv, tp = v[-n_tail:], phi[-n_tail:]
    for period in range(1, MAX_PERIOD + 1):
        dv = np.abs(tv[period:] - tv[:-period])
        dp = np.abs(tp[period:] - tp[:-period])
        if dv.max() < PERIOD_TOL and dp.max() < PERIOD_TOL:
            return AttractorClass(kind="FP" if period == 1 else "PD", period=period)
    return AttractorClass(kind="CD", period=0)
