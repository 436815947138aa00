"""Scaled-energy machinery on parabolic cylinders.

Exponent algebra for mixed-norm quantities, closed-form and sampled
velocity/pressure profiles, singular quadrature, viscous/inviscid scaling
checks, and the iteration-lemma/Liouville verdict engine, with a batch CLI.
"""

from .errors import (
    CylscaleError,
    DegenerateInputError,
    DivergentIntegralError,
    DomainError,
    FileFormatError,
    GeometryError,
    InfeasibleDeltaError,
    NonFiniteResultError,
    NonFiniteSampleError,
    RadiusError,
    ResolutionError,
    SingularPointError,
    SupportError,
)
from .exponents import (
    IDENTITY_TOL,
    ExponentParams,
    InterpolationSplit,
    ProfileConstruction,
    WeightedKappa,
    construct_profile_exponents,
    delta_interval,
    derive,
    interpolation_splits,
    pq_of_lambda,
    strong_admissibility,
    weighted_kappa,
)
from .fields import (
    ConstantProfile,
    CylinderSpec,
    DiscreteSelfSimilarProfile,
    GridField,
    PowerLawProfile,
    Profile,
    SampledProfile,
    SelfSimilarProfile,
    SteadyShearProfile,
    azimuthal_unit,
    divergence_residual,
    read_grid_csv,
    sample,
    steady_to_discrete,
    write_grid_csv,
)
from .quadrature import DEFAULT_CONFIG, QuadratureConfig
from .quantities import (
    ExponentialWeighted,
    GaussianBump,
    QuantityReport,
    QuantityRow,
    closed_form_m_power_law,
    cylinder_gradsq_integral,
    cylinder_power_integral,
    energy_quantities,
    local_energy_residual,
    m_quantity,
    quantity_report,
    sup_weighted_mass,
)
from .scaling import (
    InvarianceRow,
    RescaledProfile,
    ScalingSpec,
    invariance_report,
    lambda_for_rk,
    rescale,
    rescale_grid,
)
from .asymptotics import (
    GrowthEnvelope,
    IterationParams,
    IterationTrace,
    LiouvilleVerdict,
    SlabBoundRow,
    derive_iteration_params,
    dss_slab_bounds,
    gamma_ceiling,
    growth_envelope,
    iterate_bound,
    liouville_verdict,
)

__version__ = "1.0.0"
