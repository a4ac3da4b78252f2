"""vipair: return-map analysis toolkit for a harmonically forced vibro-impact pair.

Exact impact-to-impact dynamics, first-return-map surfaces on the bottom
wall, a piecewise-polynomial composite map over five state-space regions,
and auxiliary bound-map cobwebbing that boxes the attracting domain for
fixed-point, period-doubled and chaotic regimes.
"""

from .core import (
    GrazingImpact,
    ImpactEvent,
    NoImpactWithinHorizon,
    NondimParams,
    PhysicalParams,
    apply_impact_law,
    baseline_params,
    event_on_b,
    flow_between_impacts,
    forcing_antiderivatives,
    impact_phase,
    next_impact,
    nondimensionalize,
)
from .returnmap import (
    GridSpec,
    ReturnClass,
    ReturnSample,
    SurfaceData,
    first_return_B,
    partition_by_class,
    project_phase_planes,
    r1_filter,
    sweep_surfaces,
)
from .composite import (
    CompositeMap,
    CoeffTable,
    Region,
    detect_attractor,
    load_table,
    region_of,
)
from .auxmap import (
    BoundCurves,
    DomainBox,
    TwoCycle,
    build_bound_curves,
    generic_cobweb,
    iterate_updates,
    r1_plus,
    second_iterate_phase,
    second_iterate_v,
    statement61_case,
    wcs_step,
)
from .analysis import (
    BifurcationSample,
    ComparisonRecord,
    bifurcation_scan,
    compare_exact_vs_composite,
    run_case_preset,
)

__version__ = "0.1.0"
