"""Annular billiards: periodic orbits, linear stability, and KAM twist coefficients.

A unit-disk billiard with a small interior circular scatterer placed
perpendicular to a polygonal orbit chord.  The package constructs the
periodic orbits of the scatterer-on-chord families (including the tangent,
cusp-forming configuration), evaluates their monodromy and closed-form
traces, locates saddle-center bifurcations, and computes the first Birkhoff
coefficient of the tangent orbits through exact truncated-Taylor arithmetic.
"""

from .billiard_map import (
    BirkhoffCoords,
    PhasePoint,
    StepResult,
    Wall,
    from_birkhoff,
    generic_step,
    map_disk,
    map_in,
    map_out,
    phase_to_cartesian,
    reflection,
    reflection_birkhoff,
    to_birkhoff,
    wrap_pi,
)
from .birkhoff import (
    BirkhoffReport,
    IslandReport,
    ReducedMap,
    TaylorJet3,
    birkhoff_A,
    birkhoff_report,
    c_terms,
    closed_form_A,
    closed_form_A_large_n,
    fd_taylor_jet,
    island_sampler,
    rotation_number,
    rotation_number_leading,
    taylor_jet,
    theta_jet_to_birkhoff,
    theta_taylor_jet,
    twist_from_c_terms,
    twist_limit,
)
from .errors import (
    BilliardError,
    ClassificationError,
    DomainError,
    GrazingError,
    InvalidTableError,
    NoCollisionError,
    NonEllipticNormalizationError,
    PrecisionError,
    ResonanceError,
    SingularConfigurationError,
    TangencyWarning,
)
from .geometry import (
    ScattererPose,
    TableConfig,
    TableParams,
    caustic_radius,
    clearance_from_other_chords,
    max_radius,
    max_radius_delta,
    max_radius_star,
    scatterer_pose,
    tangency_radius_b,
    tangency_radius_simple,
)
from .linear_stability import (
    Classification,
    StabilityReport,
    admissible_interval,
    bifurcation_radius,
    bounce_jacobian,
    bounce_jacobian_birkhoff,
    classify,
    delta_star,
    epsilon_star,
    epsilon_star_large_n,
    lemma_f,
    min_period_for_k,
    monodromy,
    orbit_stability,
    stability_report,
    star_inequality,
    symplectic_defect,
    trace_b_coefficient,
    trace_b_expansion,
    trace_closed_form,
)
from .orbits import OrbitRecord, build_type_a, build_type_b, verify_closure

__version__ = "0.1.0"
