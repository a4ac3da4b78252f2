"""vipair: return-map analysis toolkit for a harmonically forced vibro-impact pair.

Exact impact-to-impact dynamics, first-return-map surfaces on the bottom
wall, a piecewise-polynomial composite map over five state-space regions,
and auxiliary bound-map cobwebbing that boxes the attracting domain for
fixed-point, period-doubled and chaotic regimes.  Each name is imported
from its module, e.g. ``from vipair.returnmap import sweep_surfaces``.
"""

__version__ = "0.1.0"
