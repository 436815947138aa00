"""Public entry points refuse NaN, infinite and wrong-sign inputs with a typed
error instead of returning NaN, complex or negative numbers."""

import math

import pytest

from cylscale import (
    CylscaleError,
    IterationParams,
    PowerLawProfile,
    ScalingSpec,
    cylinder_gradsq_integral,
    cylinder_power_integral,
    derive,
    derive_iteration_params,
    energy_quantities,
    iterate_bound,
    lambda_for_rk,
    m_quantity,
    sup_weighted_mass,
)

NAN, INF = math.nan, math.inf
P = PowerLawProfile()

CASES = {
    "derive-s-nan": lambda: derive(NAN, 2.8, 0.9),
    "derive-l-nan": lambda: derive(2.8, NAN, 0.9),
    "iteration-gamma-nan": lambda: derive_iteration_params(0.55, NAN),
    "iteration-gamma-inf": lambda: derive_iteration_params(0.55, INF),
    "iteration-C-inf": lambda: derive_iteration_params(0.55, 0.5, C_force=INF),
    "iterate-R-nan": lambda: iterate_bound(IterationParams(0.5, 0.5), NAN, 3),
    "iterate-R-inf": lambda: iterate_bound(IterationParams(0.5, 0.5), INF, 3),
    "lambda-alpha-nan": lambda: lambda_for_rk(0.5, NAN),
    "lambda-alpha-inf": lambda: lambda_for_rk(0.5, INF),
    "spec-lam-nan": lambda: ScalingSpec("navier-stokes", NAN),
    "spec-lam-inf": lambda: ScalingSpec("navier-stokes", INF),
    "spec-euler-alpha-nan": lambda: ScalingSpec("euler", 0.5, alpha=NAN),
    "m-mu-negative": lambda: m_quantity(P, 1, 2.8, 2.8, 0.9, mu=-1.0),
    "power-mu-negative": lambda: cylinder_power_integral(P, "speed", 2.0, 1.0, 1.0, mu=-1.0),
    "gradsq-mu-nan": lambda: cylinder_gradsq_integral(P, 1.0, 1.0, mu=NAN),
    "report-mu-inf": lambda: energy_quantities(P, 1.0, derive(2.8, 2.8, 0.9), mu=INF),
    "mass-time-positive": lambda: sup_weighted_mass(P, 1.0, 1.0, times=[0.5]),
    "mass-time-before-base": lambda: sup_weighted_mass(P, 1.0, 1.0, times=[-1.5]),
    "mass-time-nan": lambda: sup_weighted_mass(P, 1.0, 1.0, times=[-0.5, NAN]),
    "radius-nan": lambda: sup_weighted_mass(P, NAN, 1.0),
    "radius-inf": lambda: cylinder_power_integral(P, "speed", 2.0, INF, 1.0),
}


@pytest.mark.parametrize("call", list(CASES.values()), ids=list(CASES))
def test_bad_input_raises_typed_error(call):
    with pytest.raises(CylscaleError):
        call()
