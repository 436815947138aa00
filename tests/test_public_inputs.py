"""Public entry points refuse NaN, infinite and wrong-sign inputs with a typed
error instead of returning NaN, complex or negative numbers."""

import ast
import builtins
import dataclasses
import importlib
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cylscale

from cylscale import (
    ConstantProfile,
    CylinderSpec,
    CylscaleError,
    DiscreteSelfSimilarProfile,
    DomainError,
    ExponentialWeighted,
    GaussianBump,
    IterationParams,
    NonFiniteResultError,
    PowerLawProfile,
    RadiusError,
    ResolutionError,
    ScalingSpec,
    SelfSimilarProfile,
    SingularPointError,
    SteadyShearProfile,
    closed_form_m_power_law,
    cylinder_power_integral,
    delta_interval,
    derive,
    derive_iteration_params,
    divergence_residual,
    dss_slab_bounds,
    energy_quantities,
    gamma_ceiling,
    growth_envelope,
    invariance_report,
    iterate_bound,
    lambda_for_rk,
    liouville_verdict,
    m_quantity,
    rescale,
    sample,
    steady_to_discrete,
    sup_weighted_mass,
    weighted_kappa,
)

NAN, INF = math.nan, math.inf
P = PowerLawProfile()
U = lambda y: y

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
    "mass-time-positive": lambda: sup_weighted_mass(P, 1.0, 1.0, times=[0.5]),
    "mass-time-before-base": lambda: sup_weighted_mass(P, 1.0, 1.0, times=[-1.5]),
    "mass-time-nan": lambda: sup_weighted_mass(P, 1.0, 1.0, times=[-0.5, NAN]),
    "radius-nan": lambda: sup_weighted_mass(P, NAN, 1.0),
    "radius-inf": lambda: cylinder_power_integral(P, "speed", 2.0, INF, 1.0),
    # r**2 underflows to 0: a SingularPointError on t, an OverflowError, a silent 0.0
    "radius-square-underflow": lambda: energy_quantities(P, 1e-200, derive(2.8, 2.8, 0.9)),
    "radius-square-underflow-shear":
        lambda: energy_quantities(SteadyShearProfile(), 1e-200, derive(2.8, 2.8, 0.9)),
    "radius-square-underflow-mass": lambda: sup_weighted_mass(ConstantProfile(), 1e-200, 1.0),
    # a bare ValueError (math domain error) at m1 <= -2, NaN at +-inf and NaN
    "ceiling-m1-minus2": lambda: gamma_ceiling(-2.0),
    "ceiling-m1-minus3": lambda: gamma_ceiling(-3.0),
    "ceiling-m1-inf": lambda: gamma_ceiling(INF),
    "ceiling-m1-minus-inf": lambda: gamma_ceiling(-INF),
    "ceiling-m1-nan": lambda: gamma_ceiling(NAN),
    "gamma-max-m1-nan": lambda: IterationParams(0.5, 0.5, m1=NAN).gamma_max,
    # a directly built IterationParams gave NaN or negative bounds
    "params-beta-nan": lambda: IterationParams(0.5, NAN),
    "params-beta-inf": lambda: IterationParams(0.5, INF),
    "params-C-negative": lambda: IterationParams(0.5, 0.5, C_force=-1.0),
    "params-C-nan": lambda: IterationParams(0.5, 0.5, C_force=NAN),
    "params-C-inf": lambda: IterationParams(0.5, 0.5, C_force=INF),
    "params-gamma-negative": lambda: IterationParams(0.5, 0.5, gamma=-0.1),
    "params-gamma-nan": lambda: IterationParams(0.5, 0.5, gamma=NAN),
    "params-gamma-inf": lambda: IterationParams(0.5, 0.5, gamma=INF),
    "params-m1-nan": lambda: iterate_bound(IterationParams(0.5, 0.5, m1=NAN), 2.0, 2),
    "params-m1-inf": lambda: IterationParams(0.5, 0.5, m1=INF),
    "params-m1-minus2": lambda: IterationParams(0.5, 0.5, m1=-2.0),
    # a negated balance, a ZeroDivisionError, a zero balance, NaNs
    "bump-sigma-negative": lambda: GaussianBump(sigma=-0.5),
    "bump-sigma-zero": lambda: GaussianBump(sigma=0.0),
    "bump-sigma-inf": lambda: GaussianBump(sigma=INF),
    "bump-sigma-t-zero": lambda: GaussianBump(sigma_t=0.0),
    "bump-sigma-t-nan": lambda: GaussianBump(sigma_t=NAN),
    "bump-center-nan": lambda: GaussianBump(center=(0.0, NAN, 0.0)),
    # a short centre once ended in an IndexError, a long one in a broadcast ValueError
    "bump-center-short": lambda: GaussianBump(center=(0.0, 0.0)),
    "bump-center-long": lambda: GaussianBump(center=(0.0, 0.0, 0.0, 1.0)),
    "bump-t-center-inf": lambda: GaussianBump(t_center=-INF),
    # NaN residuals at a NaN rate, (0.0, nan, nan) at an infinite one
    "weighted-rate-nan": lambda: ExponentialWeighted(GaussianBump(), NAN),
    "weighted-rate-inf": lambda: ExponentialWeighted(GaussianBump(), INF),
    "weighted-rate-minus-inf": lambda: ExponentialWeighted(GaussianBump(), -INF),
    # a bare TypeError at the first evaluation, a ZeroDivisionError, silent NaNs
    "similar-no-U": lambda: SelfSimilarProfile(alpha=1.5),
    "similar-alpha-minus1": lambda: SelfSimilarProfile(alpha=-1.0, U=U),
    "similar-alpha-nan": lambda: SelfSimilarProfile(alpha=NAN, U=U),
    "similar-alpha-inf": lambda: SelfSimilarProfile(alpha=INF, U=U),
    "discrete-no-U": lambda: DiscreteSelfSimilarProfile(alpha=1.5, S0=1.0),
    "discrete-alpha-minus2": lambda: DiscreteSelfSimilarProfile(alpha=-2.0, U=U),
    "discrete-S0-zero": lambda: DiscreteSelfSimilarProfile(S0=0.0, U=U),
    "discrete-S0-negative": lambda: DiscreteSelfSimilarProfile(S0=-1.0, U=U),
    "discrete-S0-nan": lambda: DiscreteSelfSimilarProfile(S0=NAN, U=U),
    "discrete-S0-inf": lambda: DiscreteSelfSimilarProfile(S0=INF, U=U),
    # 1.0**nan is 1.0, so M_att came back as M; s = 0 divided by zero
    "m-m0-nan": lambda: m_quantity(P, 1.0, 2.8, 2.8, NAN),
    "m-m0-zero": lambda: m_quantity(P, 1.0, 2.8, 2.8, 0.0),
    "m-m0-above-one": lambda: m_quantity(P, 1.0, 2.8, 2.8, 1.5),
    "m-s-zero": lambda: m_quantity(P, 1.0, 0.0, 2.8, 0.9),
    "m-s-nan": lambda: m_quantity(P, 1.0, NAN, 2.8, 0.9),
    "m-l-half": lambda: m_quantity(P, 1.0, 2.8, 0.5, 0.9),
    "m-l-nan": lambda: m_quantity(P, 1.0, 2.8, NAN, 0.9),
    "closed-s-zero": lambda: closed_form_m_power_law(1.0, 0.5, 1.1, 0.0, 2.8, 0.9, 1.0),
    "closed-s-nan": lambda: closed_form_m_power_law(1.0, 0.5, 1.1, NAN, 2.8, 0.9, 1.0),
    "closed-l-nan": lambda: closed_form_m_power_law(1.0, 0.5, 1.1, 2.8, NAN, 0.9, 1.0),
    "closed-m0-nan": lambda: closed_form_m_power_law(1.0, 0.5, 1.1, 2.8, 2.8, NAN, 1.0),
    "closed-m0-negative": lambda: closed_form_m_power_law(1.0, 0.5, 1.1, 2.8, 2.8, -0.1, 1.0),
    # a complex value at c < 0, NaNs at a NaN c or alpha_p: the profile's own checks
    "closed-c-negative": lambda: closed_form_m_power_law(-1.0, 0.5, 1.1, 2.8, 2.8, 0.9, 1.0),
    "closed-c-nan": lambda: closed_form_m_power_law(NAN, 0.5, 1.1, 2.8, 2.8, 0.9, 1.0),
    "closed-alpha-nan": lambda: closed_form_m_power_law(1.0, NAN, 1.1, 2.8, 2.8, 0.9, 1.0),
    "closed-gamma-one": lambda: closed_form_m_power_law(1.0, 0.5, 1.0, 2.8, 2.8, 0.9, 1.0),
    # OutOfScope at a NaN m, Trivial at m = -inf or a negative gamma, and
    # Inconclusive with a NaN in its checklist at a NaN gamma
    "liouville-m-nan": lambda: liouville_verdict(NAN, 0.5, True),
    "liouville-m-minus-inf": lambda: liouville_verdict(-INF, 0.5),
    "liouville-gamma-negative": lambda: liouville_verdict(0.55, -5.0, True),
    "liouville-gamma-nan": lambda: liouville_verdict(0.55, NAN, True),
    "liouville-gamma-inf": lambda: liouville_verdict(0.55, INF, True),
    # kappa_n and m0* came back NaN
    "weighted-kappa-n-nan": lambda: weighted_kappa(2.8, 2.8, NAN),
    # alpha, m and m1 came back NaN at an infinite s or l, kappa_n NaN
    "derive-s-inf": lambda: derive(INF, 2.8, 0.9),
    "derive-l-inf": lambda: derive(2.8, INF, 0.9),
    "weighted-kappa-l-inf": lambda: weighted_kappa(2.8, INF, 0.5),
    # bare OverflowErrors from c**l, _ball_integral(...)**(l/s), 2.0**(gamma*m1),
    # rho**k and lam**shift; infinite C, C_mt, M, q_interp, kappa_n, contraction
    # and iteration bounds
    "m-l-overflow": lambda: m_quantity(P, 1.0, 2.8, 1e308, 0.9),
    "energy-shear-overflow":
        lambda: energy_quantities(SteadyShearProfile(amplitude=1e150), 1.0, derive(2.8, 2.8, 0.9)),
    "closed-c-overflow": lambda: closed_form_m_power_law(1e308, 0.5, 1.1, 2.8, 2.8, 0.9, 1.0),
    "derive-q-overflow": lambda: derive(1e154, 1e308, 0.9),
    "weighted-kappa-n-overflow": lambda: weighted_kappa(2.8, 1e154, 1e200),
    "contraction-overflow": lambda: IterationParams(0.5, 0.5, gamma=1e308, m1=1.0).contraction,
    "contraction-inf-overflow":
        lambda: IterationParams(0.5, 0.5, gamma=1e154, m1=1e200).contraction,
    "iterate-rho-overflow": lambda: iterate_bound(derive_iteration_params(0.55, 30.0), 2.0, 400),
    "iterate-C-overflow":
        lambda: iterate_bound(derive_iteration_params(0.55, 0.5, C_force=1e308), 2.0, 400),
    "rescale-shift-overflow":
        lambda: rescale(PowerLawProfile(gamma_p=1e308), ScalingSpec("navier-stokes", 0.5)),
    # built, then a power of lam raised a bare OverflowError in rescale or a rescaled profile
    "spec-euler-alpha-overflow": lambda: ScalingSpec("euler", 0.5, -1100.0),
    "spec-lam-overflow": lambda: ScalingSpec("navier-stokes", 1e200),
    # 2**beta raised a bare OverflowError in case_tag; its underflow to 0 a
    # ZeroDivisionError in forcing_term
    "iterate-beta-overflow": lambda: iterate_bound(IterationParams(0.5, 2000.0), 2.0, 3),
    "iterate-beta-underflow": lambda: iterate_bound(IterationParams(0.5, -2000.0), 1.0, 3),
    # r**-weight is finite, its product with the integral came back inf
    "mass-weight-product-overflow":
        lambda: sup_weighted_mass(ConstantProfile((1e100, 0.0, 0.0)), 0.01, 60.0),
    "power-weight-product-overflow":
        lambda: cylinder_power_integral(PowerLawProfile(c=1e100), "speed", 2.0, 0.01, 60.0),
    # (r**2/2)**e underflowed to 0 before the divergent time power was refused, and
    # G / 0.0 raised a bare ZeroDivisionError; so did an infinite p
    "power-time-exponent-divergent": lambda: cylinder_power_integral(
        PowerLawProfile(c=1.0, alpha_p=0.0, gamma_p=1.1), "speed", 1e4, 2.0, 0.0),
    "pressure-time-exponent-divergent": lambda: cylinder_power_integral(
        PowerLawProfile(c=5e-324), "pressure", 1e154, 2.0, 0.0),
    "power-p-minus-inf": lambda: cylinder_power_integral(P, "speed", -INF, 1.0, 0.0),
    "power-p-nan": lambda: cylinder_power_integral(P, "speed", NAN, 1.0, 0.0),
    # a negative p makes the time exponent large and positive, where the weight underflows
    "pressure-time-weight-underflow": lambda: cylinder_power_integral(
        PowerLawProfile(c=1.0, alpha_p=0.0, gamma_p=1.1), "pressure", -4.0, 1e-40, 0.0),
}


@pytest.mark.parametrize("call", list(CASES.values()), ids=list(CASES))
def test_bad_input_raises_typed_error(call):
    with pytest.raises(CylscaleError):
        call()


@pytest.mark.parametrize("key", [k for k in CASES if k.endswith("-overflow")])
def test_result_that_overflows_is_a_non_finite_result(key):
    with pytest.raises(NonFiniteResultError):
        CASES[key]()


@pytest.mark.parametrize("key", ["m-l-overflow", "energy-shear-overflow", "closed-c-overflow"])
def test_quantity_that_overflows_names_its_radius(key):
    with pytest.raises(NonFiniteResultError, match=r"\b[rR]=1\.0\b"):
        CASES[key]()


@pytest.mark.parametrize("R", [0.0, -1.0, NAN, INF])
def test_closed_form_radius_is_a_radius_error(R):
    """R = 0 divided by zero, R < 0 returned a complex value, NaN and inf NaN."""
    with pytest.raises(RadiusError):
        closed_form_m_power_law(1.0, 0.5, 1.1, 2.8, 2.8, 0.9, R)


@pytest.mark.parametrize("key", [k for k in CASES if k.startswith("radius-square")])
def test_radius_whose_square_underflows_is_a_radius_error(key):
    with pytest.raises(RadiusError, match="radius 1e-200 "):
        CASES[key]()


@pytest.mark.parametrize("weight", [1.0, 3.0])
def test_radius_whose_ball_volume_is_subnormal_is_a_radius_error(weight):
    """r**3 = 1e-330 is below the smallest normal float: the weighted mass came
    back as 0.0 at weight 1.0 and a bare OverflowError from r**-3.0 at 3.0."""
    with pytest.raises(RadiusError, match="radius 1e-110 "):
        sup_weighted_mass(ConstantProfile(), 1e-110, weight)


def test_weight_that_overflows_is_a_radius_error():
    # r**-3.0 = 1e300 is finite, r**-4.0 = 1e400 is not
    assert sup_weighted_mass(ConstantProfile(), 1e-100, 3.0) == pytest.approx(
        4.0 * math.pi / 3.0, rel=1e-14)
    with pytest.raises(RadiusError, match=r"radius 1e-100 .*r\*\*-4.0 overflows"):
        sup_weighted_mass(ConstantProfile(), 1e-100, 4.0)


@pytest.mark.parametrize("r", [1e-70, 1e-64])
def test_cylinder_integral_that_underflows_is_a_radius_error(r):
    """The unweighted integral over Q(r) scales like r**5 and underflowed: the
    weighted one came back as 0.0 at 1e-70 and as 4.18869e-192 at 1e-64, where
    4.18879e-192 is right."""
    with pytest.raises(RadiusError, match=f"radius {r} "):
        cylinder_power_integral(ConstantProfile(), "speed", 3.0, r, 2.0)


@pytest.mark.parametrize("c", [1e150, 1e155, 1e160])
def test_constant_field_whose_squared_norm_overflows_still_integrates(c):
    """np.linalg.norm squares c3, so past about 1.34e154 the coefficient was inf:
    |v| and |v|^1.5 were refused as "coefficient inf", and so was the pressure
    moment, 0 for this field, through c**2."""
    field = ConstantProfile((c, 0.0, 0.0))
    assert field.coef == c
    volume = 4.0 * math.pi / 3.0  # |Q(1)|
    assert cylinder_power_integral(field, "speed", 1.0, 1.0, 0.0) == pytest.approx(
        c * volume, rel=1e-15)
    assert cylinder_power_integral(field, "speed", 1.5, 1.0, 0.0) == pytest.approx(
        c**1.5 * volume, rel=1e-14)
    assert cylinder_power_integral(field, "pressure", 1.5, 1.0, 0.0) == 0.0
    if c > 1e154:  # |v|^2 itself leaves the float range
        with pytest.raises(NonFiniteResultError, match=re.escape(f"coefficient {c!r} ")):
            cylinder_power_integral(field, "speed", 2.0, 1.0, 0.0)


def test_tiny_constant_field_coefficient_is_the_scaled_norm():
    """The norm squares c3: 1e-200 underflowed to a coefficient 0.0, so the
    integral came back 0.0, and (1e-160, 1e-160, 0) lost its low bits."""
    assert ConstantProfile((1e-200, 0.0, 0.0)).coef == 1e-200
    assert cylinder_power_integral(ConstantProfile((1e-200, 0.0, 0.0)), "speed", 1.0, 1.0,
                                   0.0) == pytest.approx(4.0 * math.pi / 3.0 * 1e-200, rel=1e-15)
    assert ConstantProfile((1e-160, 1e-160, 0.0)).coef == math.hypot(1e-160, 1e-160)


def test_constant_field_coefficient_keeps_the_norm_bits_where_it_is_finite():
    for c3 in ((0.3, -1.2, 2.0), (1e150, 3e153, -7.0), (1.0, 1.0, 1.0)):
        assert ConstantProfile(c3).coef == float(np.linalg.norm(c3))


def test_pressure_coefficient_that_overflows_is_a_non_finite_result():
    # c**2 = 1e400 raised a bare OverflowError from the separable pressure rule
    with pytest.raises(NonFiniteResultError, match=r"c\*\*2 at c=1e\+200"):
        cylinder_power_integral(PowerLawProfile(c=1e200), "pressure", 1.5, 1.0, 2.0)


@pytest.mark.parametrize("beta", [1100.0, 2000.0, -2000.0])
def test_beta_whose_power_of_two_leaves_the_float_range_is_refused(beta):
    with pytest.raises(NonFiniteResultError, match=f"beta={beta}"):
        IterationParams(0.5, beta)


def test_beta_just_inside_the_float_range_still_iterates():
    assert iterate_bound(IterationParams(0.5, 1023.0), 2.0, 3).bounds[-1] == 0.125


@pytest.mark.parametrize("key", ["mass-weight-product-overflow", "power-weight-product-overflow"])
def test_weighted_quantity_that_overflows_names_its_radius(key):
    with pytest.raises(NonFiniteResultError, match=r"r\*\*-60\.0 .* at r=0\.01 "):
        CASES[key]()


def test_radius_whose_ball_volume_overflows_is_a_radius_error():
    # the depth r**2 = 1e400 of Q(r) raised a bare OverflowError
    with pytest.raises(RadiusError, match=r"radius 1e\+200 .*r\*\*3 = inf"):
        cylinder_power_integral(P, "speed", 2.0, 1e200, 2.0)


def test_cylinder_integral_of_normal_size_at_a_tiny_radius_or_of_zero_stays():
    assert cylinder_power_integral(P, "speed", 3.0, 1e-70, 2.0) == 5.3190986727448545e+22
    assert cylinder_power_integral(ConstantProfile((0.0, 0.0, 0.0)), "speed", 3.0, 1.0,
                                   2.0) == 0.0


@pytest.mark.parametrize("radius, lam, mu", [(1e200, 1.0, 1.0), (1e200, 1.0, 1e-300),
                                             (1e154, 1.0, 1e10), (1e154, 1e200, 1.0),
                                             (1e-200, 1.0, 1.0), (1e-160, 1e-200, 1.0)])
def test_cylinder_whose_space_radius_or_depth_leaves_float_range_is_a_domain_error(
        radius, lam, mu):
    """sample(P, CylinderSpec(1e200), 4, 4) raised a bare OverflowError from the
    depth radius**2, and lam*R = inf and mu*R**2 = inf passed unchecked; a depth
    that underflows to 0 sampled every time cell at t = 0."""
    with pytest.raises(DomainError, match=re.escape(f"radius={radius}, lam={lam}, mu={mu}")):
        sample(P, CylinderSpec(radius, lam, mu), 4, 4)


@pytest.mark.parametrize("radial", [False, True])
def test_growth_envelope_radius_whose_ball_volume_overflows_is_a_radius_error(radial):
    # the Cartesian cell volume (2r/n)**3 raised a bare OverflowError at 1e200, and
    # the radial route returned masses (inf, inf)
    u = (lambda r: np.ones_like(r)) if radial else (lambda x: np.ones(x.shape[:-1]))
    with pytest.raises(RadiusError, match=r"radius 1e\+150 .*r\*\*3 = inf"):
        growth_envelope(u, 0.0, ladder=[1e150, 1e200], radial=radial)


@pytest.mark.parametrize("radial", [False, True])
def test_growth_envelope_mass_that_is_not_finite_is_refused(radial):
    """Masses (inf, inf) came back with slope nan and bounded=False, which
    liouville_verdict read as Inconclusive."""
    u = (lambda r: np.full_like(r, 1e200)) if radial else (
        lambda x: np.full(x.shape[:-1], 1e200))
    with np.errstate(over="ignore"), pytest.raises(NonFiniteResultError,
                                                   match="inf at ladder radius 1.0"):
        growth_envelope(u, 0.0, ladder=[1.0, 2.0], radial=radial)


@pytest.mark.parametrize("exponent, ladder", [(4.0, [1e-100, 1e-99]), (-400.0, [10.0, 20.0])])
@pytest.mark.parametrize("radial", [False, True])
def test_growth_envelope_weight_that_overflows_is_a_non_finite_result(exponent, ladder,
                                                                      radial):
    # b**-exponent raised a bare OverflowError before the mass check ran
    u = (lambda r: np.ones_like(r)) if radial else (lambda x: np.ones(x.shape[:-1]))
    with pytest.raises(NonFiniteResultError, match=f"ladder radius {ladder[0]}: "):
        growth_envelope(u, exponent, ladder=ladder, radial=radial)


def test_euler_invariance_radius_is_checked_before_it_is_squared():
    # (lam*a)**2 raised a bare OverflowError from the matched time samples
    spec = ScalingSpec("euler", 0.5, alpha=1.2)
    with pytest.raises(RadiusError, match=r"radius 1e\+200 "):
        invariance_report(P, spec, derive(2.8, 2.8, 0.9), [1e200])


@pytest.mark.parametrize("build", [
    lambda: SteadyShearProfile(amplitude=NAN),
    lambda: SteadyShearProfile(wavenumber=INF),
    lambda: SteadyShearProfile(amplitude=INF, wavenumber=0.0),
    lambda: energy_quantities(SteadyShearProfile(amplitude=1e200), 1.0, derive(2.8, 2.8, 0.9)),
    lambda: ConstantProfile((NAN, 0.0, 0.0)),
    lambda: ConstantProfile((0.0, -INF, 0.0)),
    lambda: ConstantProfile((1.0, 0.0)),
    lambda: ConstantProfile((1.0, 0.0, 0.0, 0.0)),
], ids=["shear-amplitude-nan", "shear-wavenumber-inf", "shear-inf-times-zero",
        "shear-gradient-overflow", "constant-nan", "constant-inf", "constant-short",
        "constant-long"])
def test_shear_and_constant_parameters_are_refused_when_built(build):
    """NaN or infinite parameters built and gave NaN velocities, a short c3 failed
    at the first evaluation with a broadcast ValueError, and amplitude 1e200 with
    a bare OverflowError from (A*k)**2 in grad_norm_sq."""
    with pytest.raises(DomainError):
        build()


def test_shear_gradient_at_the_edge_of_float_range_stays():
    edge = math.sqrt(sys.float_info.max)  # edge**2 is finite
    g = SteadyShearProfile(amplitude=edge).grad_norm_sq(np.zeros((1, 3)), -1.0)
    assert math.isfinite(g[0])
    with pytest.raises(DomainError, match="finite square"):
        SteadyShearProfile(amplitude=math.nextafter(edge, INF))


@pytest.mark.parametrize("call, error, match", [
    (lambda: P.grad_norm_sq(np.array([[0.0, 0.0, 1.0]]), -1.0), SingularPointError,
     "x3-axis"),
    (lambda: sample(P, CylinderSpec(1.0), 0, 2), ResolutionError, "got 0, 2"),
    (lambda: sup_weighted_mass(P, 1.0, 1.0, times=[]), ResolutionError,
     "no time samples"),
], ids=["gradient-on-axis", "sample-without-cells", "mass-without-times"])
def test_singular_and_empty_inputs_are_refused(call, error, match):
    with pytest.raises(error, match=match):
        call()


def _never(*args):
    raise AssertionError("evaluated before the inputs were checked")


@pytest.mark.parametrize("ladder", [[0.0, 1.0, 2.0], [-1.0, 1.0, 2.0], [1.0, 2.0, INF],
                                    [NAN, 1.0, 2.0]])
@pytest.mark.parametrize("radial", [False, True])
def test_growth_envelope_ladder_values(ladder, radial, capfd):
    """0 raised a bare ZeroDivisionError, a negative value a LinAlgError with
    LAPACK text on stderr; both are now refused before any evaluation."""
    with pytest.raises(DomainError, match="positive and finite"):
        growth_envelope(_never, 0.0, ladder, radial=radial)
    assert capfd.readouterr().err == ""


@pytest.mark.parametrize("ladder, n_tau", [([4.0, 8.0], 0), ([4.0, 8.0], -2), ([], 4)])
def test_dss_slab_bounds_counts(ladder, n_tau):
    """n_tau=0 raised ZeroDivisionError and an empty ladder a ValueError from min()."""
    dss = steady_to_discrete(SelfSimilarProfile(alpha=1.5, U=_never), 0.4)
    with pytest.raises(DomainError):
        dss_slab_bounds(dss, ladder, n_tau=n_tau)


@pytest.mark.parametrize("ladder, error", [
    ([4.0, NAN], DomainError), ([4.0, 1e154], RadiusError), ([4.0, 1e308], RadiusError),
    ([4.0, 5e102], RadiusError), ([8.0, 4.0], DomainError), ([4.0, 4.0], DomainError),
])
def test_dss_slab_bounds_ladder_is_checked_as_growth_envelope_checks_it(ladder, error):
    """[4, nan] passed all four rows with slope -inf, 1e154 raised a bare
    OverflowError, 1e308 ended in NaN with a RuntimeWarning, and a falling or
    repeated ladder was fitted; 5e102 has a finite cube, B(2R) has none."""
    dss = steady_to_discrete(SelfSimilarProfile(alpha=1.5, U=_never), 0.4)
    with pytest.raises(error):
        dss_slab_bounds(dss, ladder)


@pytest.mark.parametrize("ladder", [[], [4.0]])
def test_ladder_of_fewer_than_two_radii_is_refused(ladder):
    """With fewer than two radii the fitted slope was -inf: growth_envelope called
    the evidence bounded, so liouville_verdict said Trivial, and dss_slab_bounds
    passed all four rows."""
    dss = steady_to_discrete(SelfSimilarProfile(alpha=1.5, U=_never), 0.4)
    for radial in (False, True):
        with pytest.raises(DomainError, match="two or more ladder values"):
            growth_envelope(_never, 0.0, ladder, radial=radial)
    with pytest.raises(DomainError, match="two or more ladder radii"):
        dss_slab_bounds(dss, ladder)


@pytest.mark.parametrize("m0, alpha", [(0.9, 3), (0.9, 0), (0.9, 1), (0.9, NAN), (2, 0.5)])
def test_delta_interval_range(m0, alpha):
    """delta_interval(0.9, 3) raised ZeroDivisionError from 4 / (3 - alpha)."""
    with pytest.raises(DomainError, match="0 < alpha_profile < 1"):
        delta_interval(m0, alpha)


@pytest.mark.parametrize("obj", [1, None, PowerLawProfile()])
def test_divergence_residual_needs_a_grid(obj):
    with pytest.raises(CylscaleError, match="GridField"):
        divergence_residual(obj)


def _raise_sites(tree):
    """(scope, raised expression, names the enclosing try bodies catch) of
    each raise that names its exception; scope is the dotted def/class path."""
    sites = []

    def walk(node, scope, caught):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope, caught = scope + (node.name,), frozenset()
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            sites.append((".".join(scope), exc, caught))
        if isinstance(node, ast.Try):
            names = {n.id for h in node.handlers if h.type is not None
                     for n in ast.walk(h.type) if isinstance(n, ast.Name)}
            for child in node.body:
                walk(child, scope, caught | names)
            for child in node.handlers + node.orelse + node.finalbody:
                walk(child, scope, caught)
            return
        for child in ast.iter_child_nodes(node):
            walk(child, scope, caught)

    walk(tree, (), frozenset())
    return sites


#: the only raises outside CylscaleError: Profile's abstract velocity, and
#: the ValueError that read_grid_csv's own try turns into FileFormatError
_UNTYPED_RAISES = {
    ("fields", "Profile.velocity", "NotImplementedError"),
    ("fields", "read_grid_csv", "ValueError"),
}

_SOURCES = sorted(Path(cylscale.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", _SOURCES, ids=[p.stem for p in _SOURCES])
def test_every_raise_is_a_cylscale_error(path):
    """Each ``raise Name(...)`` resolves, in its module's namespace, to a
    CylscaleError subclass, so no API call ends in a bare builtin error."""
    name = path.stem
    module = importlib.import_module("cylscale" if name == "__init__" else f"cylscale.{name}")
    for scope, exc, caught in _raise_sites(ast.parse(path.read_text())):
        assert isinstance(exc, ast.Name), (name, scope, ast.dump(exc))
        cls = getattr(module, exc.id, None) or getattr(builtins, exc.id)
        if issubclass(cls, CylscaleError):
            continue
        site = (name, scope, exc.id)
        assert site in _UNTYPED_RAISES, f"{name}.{scope} raises {exc.id}"
        assert exc.id != "ValueError" or "ValueError" in caught, site


#: hostile floats: signed zero, the smallest subnormal and normal, values whose
#: square, cube or power overflows, and the non-finite ones
HOSTILE_FLOATS = [-0.0, 5e-324, 1e-308, 1e154, 1e200, 1e308, INF, -INF, NAN]

#: each scalar entry point with ordinary arguments, some of which the test replaces
SCALAR_API = {
    "derive": (derive, (2.8, 2.8, 0.9)),
    "weighted_kappa": (weighted_kappa, (2.8, 2.8, 0.5)),
    "contraction": (lambda *a: IterationParams(*a).contraction, (0.5, 0.5, 1.0, 0.5, 0.1)),
    "iterate_bound": (lambda m, gamma, C, R: iterate_bound(
        derive_iteration_params(m, gamma, C), R, 400), (0.55, 0.5, 1.0, 2.0)),
    "liouville_verdict": (lambda m, gamma: liouville_verdict(m, gamma, True), (0.55, 0.5)),
    "lambda_for_rk": (lambda_for_rk, (0.5, 1.5)),
    "closed_form_m_power_law": (closed_form_m_power_law, (1.0, 0.5, 1.1, 2.8, 2.8, 0.9, 1.0)),
    "rescale": (lambda c, a, g, lam, alpha: rescale(
        PowerLawProfile(c, a, g), ScalingSpec("euler", lam, alpha)), (1.0, 0.5, 1.1, 0.5, 1.2)),
    "rescale_constant": (lambda c, lam, alpha: rescale(
        ConstantProfile((c, 0.0, 0.0)), ScalingSpec("euler", lam, alpha)).c3, (1.0, 0.5, 1.2)),
    "rescale_shear": (lambda amp, k, lam, alpha: rescale(
        SteadyShearProfile(amp, k), ScalingSpec("euler", lam, alpha)), (1.0, 1.0, 0.5, 1.2)),
    "m_quantity": (lambda c, a, g, R, s, l, m0: m_quantity(
        PowerLawProfile(c, a, g), R, s, l, m0), (1.0, 0.5, 1.1, 1.0, 2.8, 2.8, 0.9)),
    **{f"cylinder_power_integral_{kind}_alpha_{a}": (
        lambda c, r, p, weight, kind=kind, a=a: cylinder_power_integral(
            PowerLawProfile(c, a, 1.1), kind, p, r, weight), (1.0, 2.0, 2.0, 2.0))
       for kind in ("speed", "pressure") for a in (0.0, 0.5)},
}


def _floats(result):
    """Every float in a result: numbers, tuples, lists, dicts and dataclasses."""
    if isinstance(result, float):
        yield result
    elif isinstance(result, (tuple, list)):
        for item in result:
            yield from _floats(item)
    elif isinstance(result, dict):
        yield from _floats(list(result.values()))
    elif dataclasses.is_dataclass(result):
        yield from _floats([getattr(result, f.name) for f in dataclasses.fields(result)])


@pytest.mark.parametrize("name", sorted(SCALAR_API))
@settings(max_examples=80, deadline=None, database=None, derandomize=True)
@given(st.data())
def test_scalar_api_returns_finite_floats_or_raises_a_typed_error(name, data):
    call, args = SCALAR_API[name]
    args = list(args)
    for i in data.draw(st.sets(st.integers(0, len(args) - 1), min_size=1, max_size=2)):
        args[i] = data.draw(st.sampled_from(HOSTILE_FLOATS) | st.floats(-4.0, 4.0))
    try:
        result = call(*args)
    except CylscaleError:
        return
    bad = [v for v in _floats(result) if not math.isfinite(v)]
    assert not bad, (args, bad)
