"""conekit: warped cone metrics over the quotient 3-sphere, certified numerically.

The package constructs explicit cohomogeneity-one metrics
``dr^2 + rho^2 (phi^2 s1^2 + s2^2 + s3^2)`` on the cone over the
quaternion-group quotient of the 3-sphere, certifies their nonnegative
Ricci curvature region by region, samples them as finite metric spaces to
exhibit Gromov-Hausdorff collapse onto the singular cone, and reproduces
the exact eta-invariant/Hitchin-inequality obstruction arithmetic.
"""

from .bump import (
    BumpSpec,
    ConstructionError,
    QuadratureTable,
    build_profile,
    build_table,
    compute_r1,
    default_profile,
    load_profile,
    make_eta,
    make_phi,
    make_rho,
    save_profile,
    smoothness_check,
)
from .frame import (
    FrameDomainError,
    OracleStepError,
    RicciDiag,
    curvature_from_forms,
    metric_eval,
    ricci_curve,
    ricci_diag,
)
from .obstruction import (
    GROUPS,
    SpaceFormGroup,
    TopologicalData,
    betti_constraints,
    eta_invariant,
    hitchin_check,
)
from .profiles import (
    ProfilePair,
    RadialFunction,
    berger_profile,
    cone_profile,
    flat_profile,
    random_smooth_profile,
    round_profile,
    scale_phi,
)
from .reports import BoundCheck, VerificationReport
from .spaces import (
    Correspondence,
    SampledSpace,
    collapse_experiment,
    diameter,
    gh_upper_bound,
    quotient_dist_round,
    sample_annulus,
    sample_sphere,
)
from .verify import (
    Region,
    negative_control,
    standard_regions,
    verify_nonneg,
    verify_region,
)

__version__ = "0.1.0"
