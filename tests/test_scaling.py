"""Tests for the viscous and inviscid scaling groups."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cylscale import (
    ConstantProfile,
    CylinderSpec,
    DomainError,
    GeometryError,
    PowerLawProfile,
    QuadratureConfig,
    RescaledProfile,
    ScalingSpec,
    SelfSimilarProfile,
    SteadyShearProfile,
    azimuthal_unit,
    construct_profile_exponents,
    derive,
    invariance_report,
    lambda_for_rk,
    rescale,
    rescale_grid,
    sample,
)

PARAMS = derive(2.8, 2.8, 0.9)


class TestScalingSpec:
    def test_validation(self):
        with pytest.raises(DomainError):
            ScalingSpec("heat", 0.5)
        with pytest.raises(DomainError):
            ScalingSpec("navier-stokes", -1.0)
        with pytest.raises(DomainError):
            ScalingSpec("euler", 0.5)

    def test_ns_is_alpha_one(self):
        assert ScalingSpec("navier-stokes", 0.5).exponent == 1.0


class TestRescaleClosedForms:
    @given(st.floats(0.1, 3.0))
    @settings(max_examples=30, deadline=None)
    def test_power_law_pullback_pointwise(self, lam):
        """rescale returns the exact pullback lam^alpha v(lam y, lam^(alpha+1) t)."""
        prof = PowerLawProfile(c=1.2, alpha_p=0.4, gamma_p=1.1)
        alpha = 1.3
        scaled = rescale(prof, ScalingSpec("euler", lam, alpha=alpha))
        assert isinstance(scaled, PowerLawProfile)
        x = np.array([0.3, -0.2, 0.5])
        t = -0.4
        want = lam**alpha * prof.velocity(lam * x, lam ** (alpha + 1) * t)
        assert np.allclose(scaled.velocity(x, t), want, rtol=1e-12)
        want_p = lam ** (2 * alpha) * prof.pressure(lam * x, lam ** (alpha + 1) * t)
        assert np.allclose(scaled.pressure(x, t), want_p, rtol=1e-12)

    def test_constant_and_shear(self):
        spec = ScalingSpec("navier-stokes", 0.5)
        c = rescale(ConstantProfile((2.0, 0.0, 0.0)), spec)
        assert c.c3[0] == pytest.approx(1.0)
        sh = rescale(SteadyShearProfile(1.0, 3.0), spec)
        assert sh.amplitude == pytest.approx(0.5)
        assert sh.wavenumber == pytest.approx(1.5)
        x = np.array([0.2, 0.6, -0.1])
        want = 0.5 * SteadyShearProfile(1.0, 3.0).velocity(0.5 * x, -0.1)
        assert np.allclose(sh.velocity(x, -0.4), want)

    def test_selfsimilar_fixed_point(self):
        U = lambda y: np.exp(-np.einsum("...i,...i->...", y, y))[..., None] * azimuthal_unit(y)
        prof = SelfSimilarProfile(alpha=1.5, U=U)
        out = rescale(prof, ScalingSpec("euler", 0.3, alpha=1.5))
        assert out is prof

    def test_generic_wrapper(self):
        U = lambda y: np.exp(-np.einsum("...i,...i->...", y, y))[..., None] * azimuthal_unit(y)
        prof = SelfSimilarProfile(alpha=1.5, U=U)
        out = rescale(prof, ScalingSpec("euler", 0.3, alpha=1.2))
        x = np.array([0.4, 0.1, -0.2])
        want = 0.3**1.2 * prof.velocity(0.3 * x, 0.3**2.2 * -0.5)
        assert np.allclose(out.velocity(x, -0.5), want)

    def test_generic_wrapper_pressure(self):
        P = lambda y: np.exp(-np.einsum("...i,...i->...", y, y))
        prof = SelfSimilarProfile(alpha=1.5, U=np.zeros_like, P=P)
        out = rescale(prof, ScalingSpec("euler", 0.3, alpha=1.2))
        assert isinstance(out, RescaledProfile)
        x = np.array([[0.4, 0.1, -0.2], [-1.0, 0.5, 0.3]])
        want = 0.3**2.4 * prof.pressure(0.3 * x, 0.3**2.2 * -0.5)
        assert out.pressure(x, -0.5).tobytes() == want.tobytes()


class TestLambdaForRk:
    @given(st.floats(0.001, 0.999), st.floats(1.0, 3.0))
    @settings(max_examples=50, deadline=None)
    def test_round_trip(self, rk, alpha):
        lam = lambda_for_rk(rk, alpha)
        assert lam ** ((alpha + 1) / 2) == pytest.approx(rk, rel=1e-12)
        assert 0 < lam < 1

    def test_guards(self):
        with pytest.raises(DomainError):
            lambda_for_rk(1.5, 2.0)
        with pytest.raises(DomainError):
            lambda_for_rk(0.5, 0.8)

    @pytest.mark.parametrize("alpha", [1e16, 1e20, 1e300])
    def test_zoom_factor_rounding_to_one_is_a_domain_error(self, alpha):
        # r_k**(2/(alpha+1)) rounds to 1.0, which raised a bare ArithmeticError
        with pytest.raises(DomainError) as err:
            lambda_for_rk(0.5, alpha)
        assert f"r_k=0.5, alpha={alpha!r}" in str(err.value)


class TestViscousInvariance:
    @pytest.mark.parametrize("lam", [0.25, 0.5, 0.9])
    def test_closed_form_equalities(self, lam):
        for prof in (ConstantProfile((1.0, 0.0, 0.0)),
                     PowerLawProfile(c=1.0, alpha_p=0.5, gamma_p=1.0857142857142856)):
            rows = invariance_report(prof, ScalingSpec("navier-stokes", lam),
                                     PARAMS, [0.5, 1.0])
            assert rows
            for row in rows:
                assert row.slack <= 1e-9, row

    def test_constant_reference_value(self):
        """A(v^lam, 1) = lam^2 |c|^2 (4 pi / 3) for the constant field."""
        rows = invariance_report(ConstantProfile((1.0, 0.0, 0.0)),
                                 ScalingSpec("navier-stokes", 0.5), PARAMS, [1.0])
        a_row = rows[0]
        assert a_row.relation.startswith("A(")
        assert a_row.lhs == pytest.approx(0.25 * 4 * np.pi / 3, rel=1e-12)

    @pytest.mark.parametrize("lam", [0.25, 0.5])
    def test_grid_equalities(self, lam):
        prof = PowerLawProfile(c=1.0, alpha_p=0.5, gamma_p=1.0857142857142856)
        field = sample(prof, CylinderSpec(1.0), 32, 8)
        # radii chosen so that both time windows contain grid samples
        rows = invariance_report(field, ScalingSpec("navier-stokes", lam),
                                 PARAMS, [0.5 / lam, 1.0 / lam], tolerance=1e-3)
        for row in rows:
            assert row.passed, row

    def test_grid_rescale_node_correspondence(self):
        prof = PowerLawProfile(c=1.0, alpha_p=0.5, gamma_p=1.1)
        field = sample(prof, CylinderSpec(1.0), 8, 4)
        scaled = rescale_grid(field, ScalingSpec("navier-stokes", 0.5))
        assert scaled.cylinder.radius == pytest.approx(2.0)
        # node x in the scaled grid carries lam * v(lam x, .)
        assert np.allclose(scaled.velocity, 0.5 * field.velocity)
        assert np.allclose(scaled.space_axis, field.space_axis / 0.5)


class TestInviscidChain:
    def setup_method(self):
        con = construct_profile_exponents(Fraction(9, 10), Fraction(1, 2))
        self.params = derive(float(con.s), float(con.l), 0.9)
        self.prof = PowerLawProfile(c=1.0, alpha_p=0.5, gamma_p=float(con.gamma))

    @pytest.mark.parametrize("rk", [0.1, 0.01])
    def test_transfer_inequalities(self, rk):
        alpha = float(self.params.alpha)
        lam = lambda_for_rk(rk, alpha)
        rows = invariance_report(self.prof, ScalingSpec("euler", lam, alpha=alpha),
                                 self.params, [0.5, 1.0])
        assert len(rows) == 7  # 3 inequalities x 2 radii + mixed-norm row
        for row in rows:
            assert row.slack >= -1e-9, row

    def test_lambda_above_one_rejected(self):
        from cylscale import GeometryError

        with pytest.raises(GeometryError):
            invariance_report(self.prof,
                              ScalingSpec("euler", 1.5, alpha=1.2),
                              self.params, [1.0])

    def test_alpha_below_one_rejected(self):
        with pytest.raises(GeometryError, match="alpha < 1"):
            invariance_report(self.prof, ScalingSpec("euler", 0.5, alpha=0.8),
                              self.params, [1.0])

    def test_alpha_below_one_rejected_without_radii(self):
        # the check sat inside the radius loop, so an empty ladder returned one
        # passing M_att row
        with pytest.raises(GeometryError, match="alpha < 1"):
            invariance_report(self.prof, ScalingSpec("euler", 0.5, alpha=0.8),
                              self.params, [])
