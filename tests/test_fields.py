"""Tests for profiles, grids and field I/O."""

import csv
import dataclasses
import hashlib
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cylscale import (
    ConstantProfile,
    CylinderSpec,
    CylscaleError,
    DiscreteSelfSimilarProfile,
    DomainError,
    FileFormatError,
    GridField,
    NonFiniteResultError,
    NonFiniteSampleError,
    PowerLawProfile,
    ResolutionError,
    SampledProfile,
    ScalingSpec,
    SelfSimilarProfile,
    SingularPointError,
    SteadyShearProfile,
    azimuthal_unit,
    derive,
    energy_quantities,
    invariance_report,
    quantity_report,
    read_grid_csv,
    sample,
    steady_to_discrete,
    write_grid_csv,
)
from cylscale import fields
from cylscale.fields import _lattice, _norm3
from cylscale.quadrature import ball_grid

RNG = np.random.default_rng(42)


class TestAzimuthal:
    def test_unit_and_orthogonal(self):
        x = RNG.normal(size=(50, 3))
        e = azimuthal_unit(x)
        assert np.allclose(np.linalg.norm(e, axis=-1), 1.0)
        # tangent to circles about the x3-axis: orthogonal to position
        assert np.allclose(np.einsum("ij,ij->i", e, x), 0.0, atol=1e-12)

    def test_axis_raises(self):
        with pytest.raises(SingularPointError):
            azimuthal_unit(np.array([0.0, 0.0, 1.0]))


class TestPowerLawProfile:
    def test_speed_law(self):
        p = PowerLawProfile(c=2.0, alpha_p=0.5, gamma_p=1.2)
        x = np.array([0.3, 0.4, 0.0])
        t = -0.25
        expected = 2.0 * (0.5 ** (-0.5) * 0.25 ** (-0.25)) ** 1.2
        assert p.speed(x, t) == pytest.approx(expected, rel=1e-12)

    def test_velocity_is_divergence_free_numerically(self):
        p = PowerLawProfile(c=1.0, alpha_p=0.5, gamma_p=1.2)
        x = np.array([0.4, 0.3, 0.2])
        h = 1e-6
        div = 0.0
        for j in range(3):
            e = np.zeros(3)
            e[j] = h
            div += (p.velocity(x + e, -0.5)[j] - p.velocity(x - e, -0.5)[j]) / (2 * h)
        assert abs(div) < 1e-6

    def test_grad_norm_sq_matches_finite_differences(self):
        p = PowerLawProfile(c=1.0, alpha_p=0.5, gamma_p=1.2)
        x = np.array([[0.4, 0.3, 0.2], [-0.2, 0.5, -0.1]])
        t = -0.3
        h = 1e-5
        fd = np.zeros(2)
        for j in range(3):
            e = np.zeros(3)
            e[j] = h
            dv = (p.velocity(x + e, t) - p.velocity(x - e, t)) / (2 * h)
            fd += np.einsum("ij,ij->i", dv, dv)
        assert np.allclose(p.grad_norm_sq(x, t), fd, rtol=1e-6)

    def test_pressure_closure(self):
        p = PowerLawProfile(c=1.5, alpha_p=0.3, gamma_p=1.1, pressure_coeff=0.7)
        x = np.array([0.2, 0.1, 0.4])
        assert p.pressure(x, -0.1) == pytest.approx(0.7 * p.speed(x, -0.1) ** 2)

    def test_singular_locus_guards(self):
        p = PowerLawProfile()
        with pytest.raises(SingularPointError):
            p.speed(np.zeros(3), -1.0)
        with pytest.raises(SingularPointError):
            p.speed(np.array([0.1, 0.2, 0.3]), 0.5)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            PowerLawProfile(alpha_p=1.5)
        with pytest.raises(ValueError):
            PowerLawProfile(gamma_p=0.9)

    @pytest.mark.parametrize("kwargs", [
        {"c": -1.0}, {"c": float("nan")}, {"c": float("inf")}, {"alpha_p": float("nan")},
        {"gamma_p": float("nan")}, {"gamma_p": float("inf")},
    ], ids=["c-negative", "c-nan", "c-inf", "alpha-nan", "gamma-nan", "gamma-inf"])
    def test_refuses_non_finite_or_negative_parameters(self, kwargs):
        # c=-1 used to give a negative C and a complex M_kappa, gamma_p=nan NaN rows
        with pytest.raises(DomainError, match=next(iter(kwargs))):
            PowerLawProfile(**kwargs)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_refuses_non_finite_pressure_coeff(self, value):
        with pytest.raises(DomainError, match="pressure_coeff"):
            PowerLawProfile(pressure_coeff=value)

    def test_zero_coefficient_gives_zero_quantities(self):
        from cylscale import QuadratureConfig, derive, energy_quantities

        graded = QuadratureConfig(n_space=8, radial_rule="graded", time_rule="graded")
        for cfg in (QuadratureConfig(), graded):
            row = energy_quantities(PowerLawProfile(c=0.0), 1.0, derive(3, 3, 0.9), cfg)
            assert all(v == 0.0 for k, v in vars(row).items() if k != "r")


def _parent_speed(p, x, t):
    """PowerLawProfile.speed as a norm over every point, spelled out."""
    return p.c * np.linalg.norm(x, axis=-1) ** p.radial_power * (-t) ** p.time_power


def _parent_grad_norm_sq(p, x, t):
    g = _parent_speed(p, x, t)
    rho_sq = np.einsum("...i,...i->...", x, x)
    sigma_sq = x[..., 0] ** 2 + x[..., 1] ** 2
    return g**2 * (p.radial_power**2 / rho_sq + 1.0 / sigma_sq)


class TestNormBits:
    """_norm3 and the power-law evaluators stand in for np.linalg.norm; every
    bit must agree with it."""

    @pytest.mark.parametrize("r", [0.05, 0.125, 0.5, 1.0, 2.0, 7.3])
    @pytest.mark.parametrize("n", [4, 9, 16, 32])
    def test_norm3_on_ball_grids(self, r, n):
        pts = ball_grid(r, n)[0]
        assert np.array_equal(_norm3(pts), np.linalg.norm(pts, axis=-1))

    def test_norm3_on_random_and_extreme_values(self):
        rng = np.random.default_rng(5)
        for shape in [(1000, 3), (7, 9, 3), (4, 5, 6, 3)]:
            x = 10.0 ** rng.uniform(-3, 3, size=shape) * rng.choice([-1.0, 1.0], size=shape)
            assert np.array_equal(_norm3(x), np.linalg.norm(x, axis=-1))
            strided = np.swapaxes(np.swapaxes(x, 0, -1).copy(), 0, -1)
            assert np.array_equal(_norm3(strided), np.linalg.norm(strided, axis=-1))
        tiny, huge = 5e-324, np.finfo(float).max
        x = np.array([[-0.0, 0.0, -0.0], [tiny, -tiny, 3 * tiny], [2.2e-308, 1e-310, -1e-320],
                      [1e154, 1e154, 1e154], [1.4e154, -1.4e154, 0.5], [huge, 0.0, 0.0],
                      [huge / 2, huge / 2, 0.0], [-1e200, 1e-200, 0.0]])
        with np.errstate(over="ignore"):
            assert np.array_equal(_norm3(x), np.linalg.norm(x, axis=-1))

    @pytest.mark.parametrize("profile", [
        PowerLawProfile(),
        PowerLawProfile(c=1.1, alpha_p=0.45, gamma_p=1.25, pressure_coeff=0.6),
        PowerLawProfile(alpha_p=0.0, gamma_p=1.2),
        PowerLawProfile(c=0.8, alpha_p=1.0, gamma_p=1.3),
    ], ids=["default", "alpha045", "alpha0", "alpha1"])
    def test_power_law_evaluators_match_norm_formulas(self, profile):
        for r, n in ((0.125, 16), (1.0, 32), (2.0, 10)):
            pts = ball_grid(r, n)[0]
            for t in (-0.3, -1.0, -2.5):
                speed = _parent_speed(profile, pts, t)
                assert profile.speed(pts, t).tobytes() == speed.tobytes()
                assert (profile.grad_norm_sq(pts, t).tobytes()
                        == _parent_grad_norm_sq(profile, pts, t).tobytes())
                assert (profile.velocity(pts, t).tobytes()
                        == (speed[..., None] * azimuthal_unit(pts)).tobytes())
                assert (profile.pressure(pts, t).tobytes()
                        == (profile.pressure_coeff * speed**2).tobytes())

    def test_base_speed_is_the_velocity_norm(self):
        p = SteadyShearProfile(0.7, 2.0)
        pts = ball_grid(1.0, 12)[0]
        assert np.array_equal(super(SteadyShearProfile, p).speed(pts, -1.0),
                              np.linalg.norm(p.velocity(pts, -1.0), axis=-1))

    @pytest.mark.parametrize("amplitude", [1e-150, -3e-20, 0.7, 2.5, -1e150])
    def test_shear_speed_is_the_closed_form(self, amplitude):
        # sqrt(a**2) is |a| bit for bit while a**2 neither overflows nor underflows
        for k in (0.5, 2.0, 7.0):
            p = SteadyShearProfile(amplitude, k)
            for r, n in ((0.125, 8), (1.0, 16), (3.0, 10)):
                pts = ball_grid(r, n)[0]
                want = np.abs(amplitude * np.sin(k * pts[..., 1]))
                assert p.speed(pts, -1.0).tobytes() == want.tobytes()


class TestSelfSimilar:
    @staticmethod
    def make(alpha=1.5):
        U = lambda y: np.exp(-np.einsum("...i,...i->...", y, y))[..., None] * azimuthal_unit(y)
        return SelfSimilarProfile(alpha=alpha, U=U)

    @given(st.floats(0.05, 0.95), st.floats(1.1, 3.0))
    @settings(max_examples=30, deadline=None)
    def test_scaling_identity(self, lam, alpha):
        """u(x,t) = lam^alpha u(lam x, lam^(alpha+1) t) for every lam."""
        p = self.make(alpha)
        x = np.array([0.3, -0.2, 0.5])
        t = -0.7
        lhs = p.velocity(x, t)
        rhs = lam**alpha * p.velocity(lam * x, lam ** (alpha + 1) * t)
        assert np.allclose(lhs, rhs, rtol=1e-10)

    def test_discrete_scaling_identity_at_its_lambda(self):
        base = self.make(1.5)
        dss = steady_to_discrete(base, S0=0.8)
        lam = dss.scaling_lambda
        x = np.array([0.3, -0.2, 0.5])
        t = -0.6
        lhs = dss.velocity(x, t)
        rhs = lam**dss.alpha * dss.velocity(lam * x, lam ** (dss.alpha + 1) * t)
        assert np.allclose(lhs, rhs, rtol=1e-10)

    def test_periodic_profile_scaling(self):
        S0 = 0.5
        U = lambda y, tau: (np.cos(2 * np.pi * tau / S0) + 2.0) * np.exp(
            -np.einsum("...i,...i->...", y, y)
        )[..., None] * azimuthal_unit(y)
        dss = DiscreteSelfSimilarProfile(alpha=1.3, S0=S0, U=U)
        lam = dss.scaling_lambda
        x = np.array([0.2, 0.4, -0.3])
        t = -0.7
        lhs = dss.velocity(x, t)
        rhs = lam**dss.alpha * dss.velocity(lam * x, lam ** (dss.alpha + 1) * t)
        assert np.allclose(lhs, rhs, rtol=1e-10)


def _tau_swirl(y, tau):
    return (2.0 + np.sin(tau)) * _swirl(y)


def _tau_bowl(y, tau):
    return np.cos(tau) * np.sum(y * y, axis=-1)


class TestSimilarityFormulas:
    """velocity and pressure of both similarity profiles, bit for bit against
    the written formulas u = (-t)**(-a/(a+1)) U(y, ...) and
    p = (-t)**(-2a/(a+1)) P(y, ...) at y = x (-t)**(-1/(a+1))."""

    x = RNG.normal(size=(5, 4, 3))

    @staticmethod
    def _y(alpha, x, t):
        return x * (-t) ** (-1.0 / (alpha + 1))

    @pytest.mark.parametrize("t", [-0.3, -1.0, -2.5])
    def test_self_similar(self, t):
        a = 1.4
        p = SelfSimilarProfile(alpha=a, U=_swirl, P=lambda y: np.sum(y * y, axis=-1))
        y = self._y(a, self.x, t)
        want_v = (-t) ** (-a / (a + 1)) * _swirl(y)
        want_p = (-t) ** (-2 * a / (a + 1)) * np.sum(y * y, axis=-1)
        assert p.velocity(self.x, t).tobytes() == want_v.tobytes()
        assert p.pressure(self.x, t).tobytes() == want_p.tobytes()
        no_p = SelfSimilarProfile(alpha=a, U=_swirl)
        assert no_p.pressure(self.x, t).tobytes() == np.zeros((5, 4)).tobytes()

    @pytest.mark.parametrize("t", [-0.3, -1.0, -2.5])
    def test_discrete_self_similar(self, t):
        a = 1.3
        p = DiscreteSelfSimilarProfile(alpha=a, S0=0.7, U=_tau_swirl, P=_tau_bowl)
        y, tau = self._y(a, self.x, t), -np.log(-t)
        want_v = (-t) ** (-a / (a + 1)) * _tau_swirl(y, tau)
        want_p = (-t) ** (-2 * a / (a + 1)) * _tau_bowl(y, tau)
        assert p.velocity(self.x, t).tobytes() == want_v.tobytes()
        assert p.pressure(self.x, t).tobytes() == want_p.tobytes()
        no_p = DiscreteSelfSimilarProfile(alpha=a, S0=0.7, U=_tau_swirl)
        assert no_p.pressure(self.x, t).tobytes() == np.zeros((5, 4)).tobytes()

    def test_field_orders_and_classes(self):
        ss = SelfSimilarProfile(1.2, _swirl, None)
        dss = DiscreteSelfSimilarProfile(1.2, 0.5, _tau_swirl, None)
        assert [f.name for f in dataclasses.fields(ss)] == ["alpha", "U", "P"]
        assert [f.name for f in dataclasses.fields(dss)] == ["alpha", "S0", "U", "P"]
        assert not isinstance(dss, SelfSimilarProfile)
        assert ss.time_power == dss.time_power == -1.2 / 2.2

    @pytest.mark.parametrize("t", [-1e3, -1e-3])
    def test_time_factor_beyond_float_range_is_a_typed_error(self, t):
        # alpha near -1 makes the time powers about +-1e4; (-t)**power once
        # raised a bare OverflowError from velocity, pressure and the point y
        for p in (SelfSimilarProfile(alpha=-0.9999, U=_swirl, P=lambda y: y[..., 0]),
                  DiscreteSelfSimilarProfile(alpha=-0.9999, U=_tau_swirl, P=_tau_bowl)):
            for method in (p.velocity, p.pressure):
                with pytest.raises(NonFiniteResultError, match=f"alpha=-0.9999, t={t}"):
                    method(self.x, t)

    def test_time_factor_overflow_through_energy_quantities(self):
        p = SelfSimilarProfile(alpha=-0.9999, U=_swirl)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteResultError, match="alpha=-0.9999"):
                energy_quantities(p, 1.0, derive(2.8, 2.8, 0.9))

    @pytest.mark.parametrize("t", [0.0, 0.5])
    def test_refuse_non_negative_time(self, t):
        for p in (SelfSimilarProfile(alpha=1.5, U=_swirl),
                  DiscreteSelfSimilarProfile(alpha=1.5, U=_tau_swirl, P=_tau_bowl)):
            for method in (p.velocity, p.pressure):
                with pytest.raises(SingularPointError):
                    method(self.x, t)


class TestLattice:
    @pytest.mark.parametrize("sizes", [(1, 1, 1), (1, 2, 3), (4, 1, 5), (5, 7, 3),
                                       (16, 16, 16)])
    def test_equals_the_stacked_meshgrid(self, sizes):
        rng = np.random.default_rng(sum(sizes))
        axes = [rng.normal(size=n) * 10.0 ** rng.integers(-300, 301, n) for n in sizes]
        axes[0][0], axes[-1][-1] = -0.0, np.nan
        want = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
        got = _lattice(*axes)
        assert got.shape == want.shape and got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()


class TestGrid:
    def test_sample_shapes_and_offsets(self):
        cyl = CylinderSpec(radius=1.0)
        f = sample(ConstantProfile((1.0, 2.0, 0.0)), cyl, 8, 4)
        assert f.velocity.shape == (4, 8, 8, 8, 3)
        assert f.pressure.shape == (4, 8, 8, 8)
        assert np.all(f.times < 0)
        assert 0.0 not in f.space_axis

    def test_constant_field_divergence_free(self):
        f = sample(ConstantProfile((1.0, 2.0, 3.0)), CylinderSpec(1.0), 8, 2)
        assert f.div_residual == 0.0

    def test_shear_divergence_small(self):
        f = sample(SteadyShearProfile(1.0, 2.0), CylinderSpec(1.0), 32, 2)
        assert f.div_residual < 1e-10  # u1 depends only on x2

    def test_power_law_samples_finite(self):
        p = PowerLawProfile(c=1.0, alpha_p=0.5, gamma_p=1.1)
        f = sample(p, CylinderSpec(1.0), 16, 4)
        assert np.all(np.isfinite(f.velocity))

    def test_sampled_profile_interpolates_nodes(self):
        p = SteadyShearProfile(1.0, 3.0)
        f = sample(p, CylinderSpec(1.0), 16, 4)
        sp = SampledProfile(f)
        x = np.stack(np.meshgrid(f.space_axis[:3], f.space_axis[:3],
                                 f.space_axis[:3], indexing="ij"), axis=-1)
        got = sp.velocity(x, float(f.times[1]))
        want = p.velocity(x, float(f.times[1]))
        assert np.allclose(got, want, atol=1e-12)

    def test_sampled_pressure_interpolates_nodes(self):
        f = sample(PowerLawProfile(pressure_coeff=0.7), CylinderSpec(1.0), 6, 4)
        sp = SampledProfile(f)
        axis = f.space_axis
        x = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1)
        for j in (0, 3):
            assert np.allclose(sp.pressure(x, float(f.times[j])), f.pressure[j],
                               rtol=1e-12, atol=0.0)
        mid = 0.5 * (f.times[1] + f.times[2])
        assert np.allclose(sp.pressure(x, float(mid)),
                           0.5 * (f.pressure[1] + f.pressure[2]), rtol=1e-12, atol=0.0)

    def test_sample_refuses_non_finite_profile(self):
        # the pressure, speed**2, overflows; GridField's scan reports it
        with np.errstate(over="ignore"), pytest.raises(NonFiniteSampleError):
            sample(PowerLawProfile(c=1e300), CylinderSpec(1.0), 4, 4)

    def test_grid_field_resolution_and_finiteness(self):
        f = sample(SteadyShearProfile(1.0, 2.0), CylinderSpec(1.0), 4, 2)
        for n, nt in ((1, 2), (4, 1)):
            shape = (nt, n, n, n)
            with pytest.raises(ResolutionError, match="at least 2 cells"):
                GridField(f.cylinder, n, nt, np.zeros(shape + (3,)), np.zeros(shape))
        for bad in (np.nan, np.inf):
            vel, prs = f.velocity.copy(), f.pressure.copy()
            vel[1, 2, 3, 0, 1] = bad
            with pytest.raises(NonFiniteSampleError):
                GridField(f.cylinder, 4, 2, vel, f.pressure.copy())
            prs[0, 0, 0, 0] = -bad
            with pytest.raises(NonFiniteSampleError):
                GridField(f.cylinder, 4, 2, f.velocity.copy(), prs)

    def test_csv_round_trip(self, tmp_path):
        p = SteadyShearProfile(0.7, 2.0)
        f = sample(p, CylinderSpec(0.5, mu=2.0), 4, 3)
        csv_path = tmp_path / "field.csv"
        meta_path = tmp_path / "field.json"
        write_grid_csv(f, csv_path, meta_path)
        g = read_grid_csv(csv_path, meta_path)
        assert g.cylinder == f.cylinder
        assert np.array_equal(g.velocity, f.velocity)
        assert np.array_equal(g.pressure, f.pressure)

    def test_csv_matches_per_row_repr_writer(self, tmp_path):
        f = sample(PowerLawProfile(c=0.9, alpha_p=0.6, gamma_p=1.15),
                   CylinderSpec(1.0, lam=0.7, mu=1.3), 4, 3)
        write_grid_csv(f, tmp_path / "field.csv")
        ref = tmp_path / "ref.csv"
        with open(ref, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["x1", "x2", "x3", "t", "u1", "u2", "u3", "p"])
            for j, t in enumerate(f.times):
                for i1, x1 in enumerate(f.space_axis):
                    for i2, x2 in enumerate(f.space_axis):
                        for i3, x3 in enumerate(f.space_axis):
                            w.writerow([repr(float(v)) for v in (x1, x2, x3, t)]
                                       + [repr(float(v)) for v in f.velocity[j, i1, i2, i3]]
                                       + [repr(float(f.pressure[j, i1, i2, i3]))])
        assert (tmp_path / "field.csv").read_bytes() == ref.read_bytes()

    def test_csv_format_edges(self, tmp_path, monkeypatch):
        # subnormal, signed zero, exponent forms and long mantissas, with lam,
        # mu != 1 and Nt != N
        edges = [5e-324, -0.0, 1e16, 1e-05, 123456789.123, -5e-324, -1e16, -1e-05,
                 -123456789.123, 0.1, -2.5, 0.0]
        values = np.resize(edges, (2, 3, 3, 3, 4))
        f = GridField(CylinderSpec(0.5, lam=0.7, mu=1.3), 3, 2,
                      np.ascontiguousarray(values[..., :3]),
                      np.ascontiguousarray(values[..., 3]),
                      radial_power=-0.25, time_power=-0.375)
        # the per-row repr reference of the test above, run on this field
        monkeypatch.setitem(globals(), "sample", lambda *args: f)
        self.test_csv_matches_per_row_repr_writer(tmp_path)
        write_grid_csv(f, tmp_path / "field.csv", tmp_path / "field.json")
        g = read_grid_csv(tmp_path / "field.csv", tmp_path / "field.json")
        assert np.array_equal(g.velocity, f.velocity)
        assert np.array_equal(g.pressure, f.pressure)
        # bit patterns too, which array_equal does not see for -0.0
        assert g.velocity.tobytes() == f.velocity.tobytes()
        assert g.pressure.tobytes() == f.pressure.tobytes()
        for name in ("cylinder", "n_space", "n_time", "radial_power", "time_power",
                     "div_residual"):
            assert getattr(g, name) == getattr(f, name)

    def test_csv_all_distinct_values(self, tmp_path, monkeypatch):
        # every sample its own bit pattern: no repr is shared between cells
        values = np.random.default_rng(7).standard_normal((3, 4, 4, 4, 4))
        f = GridField(CylinderSpec(1.0), 4, 3, np.ascontiguousarray(values[..., :3]),
                      np.ascontiguousarray(values[..., 3]))
        assert len(np.unique(values)) == values.size
        monkeypatch.setitem(globals(), "sample", lambda *args: f)
        self.test_csv_matches_per_row_repr_writer(tmp_path)

    def test_csv_rows_cross_block_boundaries(self, tmp_path, monkeypatch):
        # 64 rows per slice in blocks of 5: twelve full blocks and a partial one
        monkeypatch.setattr(fields, "_CSV_BLOCK", 5)
        self.test_csv_matches_per_row_repr_writer(tmp_path)

    def test_grid_field_immutable(self):
        f = sample(SteadyShearProfile(1.0, 2.0), CylinderSpec(1.0), 4, 2)
        with pytest.raises(ValueError):
            f.velocity[0, 0, 0, 0, 0] = 1.0
        with pytest.raises(ValueError):
            f.pressure[0, 0, 0, 0] = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            f.velocity = np.zeros_like(f.velocity)

    def test_times_computed_once_and_read_only(self):
        f = sample(SteadyShearProfile(1.0, 2.0), CylinderSpec(0.5, mu=1.7), 4, 5)
        assert f.times is f.times
        assert not f.times.flags.writeable
        with pytest.raises(ValueError):
            f.times[0] = 0.0
        T = f.cylinder.time_depth
        assert f.times.tobytes() == (-T + (T / 5) * (np.arange(5) + 0.5)).tobytes()

    def test_grid_field_equality_is_identity(self):
        f = sample(ConstantProfile((1.0, 0.0, 0.0)), CylinderSpec(1.0), 4, 2)
        g = sample(ConstantProfile((1.0, 0.0, 0.0)), CylinderSpec(1.0), 4, 2)
        assert f == f
        assert f != g
        assert len({f, g}) == 2

    def test_bad_cylinder(self):
        with pytest.raises(ValueError):
            CylinderSpec(radius=-1.0)

    def test_typed_construction_errors(self):
        for bad in ({"radius": float("nan")}, {"radius": 1.0, "lam": 0.0},
                    {"radius": 1.0, "mu": float("inf")}):
            with pytest.raises(DomainError):
                CylinderSpec(**bad)
        f = sample(SteadyShearProfile(1.0, 2.0), CylinderSpec(1.0), 4, 2)
        with pytest.raises(ResolutionError, match="declared resolutions"):
            GridField(f.cylinder, 4, 3, f.velocity, f.pressure)


def _per_slice_sample(profile, cyl, n, nt):
    """Reference: velocity and pressure evaluated slice by slice."""
    a, T = cyl.space_radius, cyl.time_depth
    axis = -a + 2.0 * a / n * (np.arange(n) + 0.5)
    pts = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1)
    times = -T + (T / nt) * (np.arange(nt) + 0.5)
    vel = np.empty((nt,) + pts.shape)
    prs = np.empty((nt,) + pts.shape[:-1])
    for j, t in enumerate(times):
        vel[j] = profile.velocity(pts, t)
        prs[j] = profile.pressure(pts, t)
    return vel, prs


def _swirl(y):
    return azimuthal_unit(y + 0.1) * np.exp(-np.sum(y * y, axis=-1))[..., None]


class TestSampleBytes:
    """sample takes every slice from one profile call; each sample must be
    bit for bit the per-slice velocity or pressure."""

    @pytest.mark.parametrize("profile, cyl, n, nt", [
        (PowerLawProfile(alpha_p=0.0, gamma_p=1.2), CylinderSpec(1.0), 6, 4),
        (PowerLawProfile(c=1.1, alpha_p=0.45, gamma_p=1.25, pressure_coeff=0.6),
         CylinderSpec(0.8, lam=1.3, mu=1.7), 8, 5),
        (PowerLawProfile(alpha_p=1.0, gamma_p=1.3), CylinderSpec(1.0, mu=0.6), 6, 3),
        (PowerLawProfile(pressure_coeff=0.0), CylinderSpec(2.0), 4, 7),
        (ConstantProfile((0.3, -1.2, 2.0)), CylinderSpec(1.0), 5, 3),
        (SteadyShearProfile(0.7, 2.0), CylinderSpec(0.5, mu=2.0), 6, 5),
        (SelfSimilarProfile(alpha=1.5, U=_swirl, P=lambda y: np.sum(y * y, axis=-1)),
         CylinderSpec(1.0, mu=1.4), 6, 5),
    ], ids=["pl-alpha0", "pl-alpha045-mu", "pl-alpha1", "pl-no-pressure", "constant",
            "shear", "self-similar"])
    def test_sample_matches_per_slice_evaluation(self, profile, cyl, n, nt):
        f = sample(profile, cyl, n, nt)
        vel, prs = _per_slice_sample(profile, cyl, n, nt)
        assert f.velocity.tobytes() == vel.tobytes()
        assert f.pressure.tobytes() == prs.tobytes()

    @pytest.mark.parametrize("shape", [(3,), (7, 3), (4, 5, 3)])
    def test_power_law_velocity_is_the_broadcast_product(self, shape):
        # velocity and slices multiply the speed into the unit field column by
        # column, which must give the bits of speed[..., None] * unit
        p = PowerLawProfile(c=1.3, alpha_p=0.4, gamma_p=1.7)
        x = np.random.default_rng(len(shape)).normal(size=shape)
        times = [-0.3, -1.0, -2.5]
        vel, _ = p.slices(x, times)
        for j, t in enumerate(times):
            want = (p.speed(x, -1.0) * (-t) ** p.time_power)[..., None] * azimuthal_unit(x)
            assert vel[j].tobytes() == want.tobytes()
            want = p.speed(x, t)[..., None] * azimuthal_unit(x)
            assert p.velocity(x, t).tobytes() == want.tobytes()

    def test_power_law_slices_guard_time_and_origin(self):
        p = PowerLawProfile()
        x = RNG.normal(size=(4, 3))
        with pytest.raises(SingularPointError):
            p.slices(x, np.array([-1.0, 0.0]))
        with pytest.raises(SingularPointError):
            p.slices(np.zeros((1, 3)), np.array([-1.0]))

    #: SHA-256 of a sampled power-law field's CSV and sidecar and of the reprs
    #: of its quantity-report and viscous invariance rows
    GRID_SHA256 = {
        "field.csv": "77754184c385b63820e5e8453f6303dabc75e8fad0b14c17fb178b252eafb1ad",
        "field.json": "b24bd828d54a5f8c12d20f443180eee431a73d165dfef2698f9c3cdd90f1f601",
        "report": "9ac07ccae933cb98128a1f3c6843540b83a20270d2749d6c245bfd56a85e605d",
        "invariance": "dbf2ed3cd030f9f49a639c7f9dbb8827a942dce5cf7ba669facfb80e25568c45",
    }

    def test_grid_bytes_pinned(self, tmp_path):
        f = sample(PowerLawProfile(), CylinderSpec(1.0, mu=1.3), 6, 3)
        write_grid_csv(f, tmp_path / "field.csv", tmp_path / "field.json")
        params = derive(2.8, 2.8, 0.9)
        report = quantity_report(f, [0.5, 0.75, 1.0], params)
        rows = invariance_report(f, ScalingSpec("navier-stokes", 0.5), params,
                                 [1.0, 1.5, 2.0])
        got = {
            "field.csv": (tmp_path / "field.csv").read_bytes(),
            "field.json": (tmp_path / "field.json").read_bytes(),
            "report": repr(report.rows).encode(),
            "invariance": repr(rows).encode(),
        }
        assert {k: hashlib.sha256(v).hexdigest() for k, v in got.items()} == self.GRID_SHA256


class TestGridCsvErrors:
    @pytest.fixture
    def files(self, tmp_path):
        f = sample(SteadyShearProfile(0.7, 2.0), CylinderSpec(0.5), 2, 2)
        csv_path, meta_path = tmp_path / "field.csv", tmp_path / "field.json"
        write_grid_csv(f, csv_path, meta_path)
        lines = csv_path.read_bytes().decode().split("\r\n")
        return csv_path, meta_path, lines

    def test_row_count_mismatch(self, files):
        csv_path, meta_path, lines = files
        csv_path.write_bytes("\r\n".join(lines[:-2] + [""]).encode())
        with pytest.raises(ResolutionError, match="15 rows"):
            read_grid_csv(csv_path, meta_path)

    @pytest.mark.parametrize("cell", ["abc", "0.5#x"])
    def test_non_numeric_cell_names_file(self, files, cell):
        csv_path, meta_path, lines = files
        lines[2] = lines[2].rsplit(",", 1)[0] + "," + cell
        csv_path.write_bytes("\r\n".join(lines).encode())
        with pytest.raises(FileFormatError, match="field.csv") as exc:
            read_grid_csv(csv_path, meta_path)
        assert isinstance(exc.value, CylscaleError)

    def test_short_row_names_file(self, files):
        csv_path, meta_path, lines = files
        lines[2] = ",".join(lines[2].split(",")[:5])
        csv_path.write_bytes("\r\n".join(lines).encode())
        with pytest.raises(FileFormatError, match="field.csv"):
            read_grid_csv(csv_path, meta_path)

    @pytest.mark.parametrize("text, match", [
        ('{"n_space": 2', "Expecting"),
        ('{"n_time": 2, "cylinder": {"radius": 0.5}}', "missing key 'n_space'"),
        ('{"n_space": 2, "n_time": 2, "cylinder": {"radius": -0.5}}', "positive"),
        ('{"n_space": 2, "n_time": 2, "cylinder": {"radius": NaN}}', "finite"),
        ('{"n_space": 2, "n_time": 2, "cylinder": {"rad": 0.5}}', "'rad'"),
        ('{"n_space": 2.0, "n_time": 2, "cylinder": {"radius": 0.5}}', "float"),
    ], ids=["bad-json", "missing-key", "bad-radius", "nan-radius", "cylinder-key",
            "float-count"])
    def test_bad_sidecar_names_sidecar(self, files, text, match):
        csv_path, meta_path, _ = files
        meta_path.write_text(text)
        with pytest.raises(FileFormatError, match=match) as exc:
            read_grid_csv(csv_path, meta_path)
        assert "field.json" in str(exc.value)

    def test_sidecar_radius_whose_depth_overflows_names_sidecar(self, files):
        # CylinderSpec took radius 1e200, whose depth radius**2 overflows
        csv_path, meta_path, _ = files
        meta_path.write_text('{"n_space": 2, "n_time": 2, "cylinder": {"radius": 1e200}}')
        with pytest.raises(FileFormatError, match=r"mu\*R\*\*2") as exc:
            read_grid_csv(csv_path, meta_path)
        assert "field.json" in str(exc.value)

    @pytest.mark.parametrize("key", ["radial_power", "time_power"])
    @pytest.mark.parametrize("value", ['"abc"', "true", "NaN"], ids=["str", "bool", "nan"])
    def test_bad_sidecar_power_names_sidecar(self, files, key, value):
        csv_path, meta_path, _ = files
        meta_path.write_text(meta_path.read_text().replace(f'"{key}": 0.0', f'"{key}": {value}'))
        with pytest.raises(FileFormatError, match="finite reals") as exc:
            read_grid_csv(csv_path, meta_path)
        assert "field.json" in str(exc.value)

    def test_missing_sidecar_powers_default_to_zero(self, files):
        csv_path, meta_path, _ = files
        f = PowerLawProfile(c=0.9, alpha_p=0.6, gamma_p=1.15)
        write_grid_csv(sample(f, CylinderSpec(0.5), 2, 2), csv_path, meta_path)
        meta = json.loads(meta_path.read_text())
        assert meta["radial_power"] < 0 and meta["time_power"] < 0
        del meta["radial_power"], meta["time_power"]
        meta_path.write_text(json.dumps(meta))
        g = read_grid_csv(csv_path, meta_path)
        assert (g.radial_power, g.time_power) == (0.0, 0.0)

    def test_header_only_file(self, files):
        csv_path, meta_path, lines = files
        csv_path.write_bytes((lines[0] + "\r\n").encode())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ResolutionError, match="0 rows"):
                read_grid_csv(csv_path, meta_path)
