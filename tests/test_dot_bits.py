"""Bit pins for the row dot products.

``fields._dot3`` stands in for ``np.einsum("...i,...i->...")``, and the
power-law |grad v|^2, the finite-difference |grad v|^2 and the kernels built
on them must give the bits they gave when they were written with einsum and
one velocity call per shift.  The reference formulas below are those
einsum-era forms, spelled out; the repr pins were recorded from them.
"""

import math

import numpy as np
import pytest

from cylscale import (
    DiscreteSelfSimilarProfile,
    PowerLawProfile,
    Profile,
    QuadratureConfig,
    SelfSimilarProfile,
    SteadyShearProfile,
    azimuthal_unit,
    derive,
    dss_slab_bounds,
    energy_quantities,
    local_energy_residual,
    steady_to_discrete,
)
from cylscale.asymptotics import _FixedTau
from cylscale.fields import _dot3
from cylscale.quadrature import _unit_ball_grid, ball_grid
from cylscale.quantities import ExponentialWeighted, GaussianBump, _gradsq_fd


def _einsum(a, b):
    return np.einsum("...i,...i->...", a, b)


def _hostile(rng, shape):
    """Values over 10^-300..10^300 with both zeros, infinities, NaN and
    subnormals mixed in."""
    x = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 301, shape)
    for value, share in ((-0.0, 0.05), (0.0, 0.05), (np.inf, 0.01), (-np.inf, 0.01),
                         (np.nan, 0.01)):
        x[rng.random(shape) < share] = value
    tiny = rng.random(shape) < 0.05
    x[tiny] = 5e-324 * rng.integers(-2000, 2001, int(tiny.sum()))
    return x


def _same_bits(a, b):
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestDot3:
    @pytest.mark.parametrize("n", list(range(71)) + [4097])
    def test_matches_einsum_on_rows(self, n):
        rng = np.random.default_rng(n)
        a, b = _hostile(rng, (n, 3)), _hostile(rng, (n, 3))
        with np.errstate(all="ignore"):
            for x, y in ((a, b), (a, a), (a[::-1], b[::-1]), (a[::2], b[::2]),
                         (a[::-3], b[::-3])):
                assert _same_bits(_dot3(x, y), _einsum(x, y))

    def test_matches_einsum_on_a_grid_shape(self):
        rng = np.random.default_rng(12)
        a, b = _hostile(rng, (8, 12, 12, 12, 3)), _hostile(rng, (8, 12, 12, 12, 3))
        with np.errstate(all="ignore"):
            assert _same_bits(_dot3(a, b), _einsum(a, b))
            assert _same_bits(_dot3(a, a), _einsum(a, a))
            assert _same_bits(_dot3(a[:, ::-1, :, ::2], b[:, ::-1, :, ::2]),
                              _einsum(a[:, ::-1, :, ::2], b[:, ::-1, :, ::2]))

    def test_signed_zeros(self):
        # einsum starts its sum at +0, so products that are all -0 sum to +0
        a = np.array([[-0.0, 0.0, -0.0], [-0.0, -0.0, -0.0], [0.0, -0.0, 0.0],
                      [1.0, -0.0, 0.0], [-1.0, 1.0, 0.0]])
        b = np.array([[1.0, -1.0, 1.0], [1.0, 1.0, 1.0], [-1.0, 1.0, -1.0],
                      [0.0, 1.0, -1.0], [1.0, 1.0, -0.0]])
        assert _same_bits(_dot3(a, b), _einsum(a, b))
        assert not np.signbit(_dot3(a, b)).any()

    @pytest.mark.parametrize("n", list(range(1, 49)) + [64, 96, 127, 128])
    def test_unit_ball_mask(self, n):
        h = 2.0 / n
        axis = -1.0 + h * (np.arange(n) + 0.5)
        xx, yy, zz = np.meshgrid(axis, axis, axis, indexing="ij")
        pts = np.stack([xx.ravel(), yy.ravel(), zz.ravel()], axis=-1)
        want = pts[np.einsum("ij,ij->i", pts, pts) < 1.0]
        assert _same_bits(_unit_ball_grid(n), want)


def _einsum_grad_norm_sq(p, x, t):
    """PowerLawProfile.grad_norm_sq with |x|^2 from einsum."""
    sigma_sq = x[..., 0] ** 2 + x[..., 1] ** 2
    rho = np.sqrt(sigma_sq + x[..., 2] ** 2)
    g = p.c * rho**p.radial_power * (-t) ** p.time_power
    rho_sq = _einsum(x, x)
    return g**2 * (p.radial_power**2 / rho_sq + 1.0 / sigma_sq)


_POWER_LAWS = [
    PowerLawProfile(),
    PowerLawProfile(c=1.1, alpha_p=0.45, gamma_p=1.25, pressure_coeff=0.6),
    PowerLawProfile(alpha_p=0.0, gamma_p=1.2),
    PowerLawProfile(c=0.8, alpha_p=1.0, gamma_p=1.3),
    PowerLawProfile(c=1.0, alpha_p=0.5, gamma_p=1.0857142857142856),
    PowerLawProfile(c=0.9, alpha_p=0.5, gamma_p=2.0),  # radial power -1
    PowerLawProfile(c=1.5, alpha_p=0.25, gamma_p=2.0),  # radial power -1/2
]


class TestPowerLawGradBits:
    @pytest.mark.parametrize("profile", _POWER_LAWS)
    @pytest.mark.parametrize("r", [0.0625, 0.5, 1.0, 3.7])
    @pytest.mark.parametrize("n", [8, 12, 32])
    def test_ball_grids(self, profile, r, n):
        pts = ball_grid(r, n)[0]
        for t in (-0.3, -1.0, -2.5):
            assert _same_bits(profile.grad_norm_sq(pts, t),
                              _einsum_grad_norm_sq(profile, pts, t))

    @pytest.mark.parametrize("profile", _POWER_LAWS)
    def test_random_points(self, profile):
        rng = np.random.default_rng(2024)
        pts = rng.uniform(-2.0, 2.0, size=(100_000, 3))
        pts[:1000] *= 10.0 ** rng.uniform(-8, 8, size=(1000, 1))
        for t in (-0.7, -1.0):
            assert _same_bits(profile.grad_norm_sq(pts, t),
                              _einsum_grad_norm_sq(profile, pts, t))
        grid = pts[:4096].reshape(16, 16, 16, 3)
        assert _same_bits(profile.grad_norm_sq(grid, -1.0),
                          _einsum_grad_norm_sq(profile, grid, -1.0))


def _six_call_gradsq(profile, pts, t, h):
    """Central-difference |grad v|^2 with one velocity call per shift."""
    g = np.zeros(pts.shape[:-1])
    for j in range(3):
        step = np.zeros(3)
        step[j] = h
        dv = (profile.velocity(pts + step, t) - profile.velocity(pts - step, t)) / (2 * h)
        g += _einsum(dv, dv)
    return g


def _similarity_U(y):
    return np.exp(-_einsum(y, y))[..., None] * azimuthal_unit(y)


class _SignOfZero(Profile):
    """A velocity that reads the sign of a zero coordinate."""

    def velocity(self, x, t):
        x = np.asarray(x, dtype=float)
        return np.copysign(1.0, x) * (1.0 + x * x[..., ::-1])


class _Counting(SteadyShearProfile):
    calls = 0

    def velocity(self, x, t):
        type(self).calls += 1
        return super().velocity(x, t)


_PERIODIC = DiscreteSelfSimilarProfile(
    alpha=1.5, S0=0.4, U=lambda y, tau: (1.0 + 0.5 * math.sin(tau)) * _similarity_U(y),
    P=lambda y, tau: -math.cos(tau) * np.exp(-_einsum(y, y)))


class TestGradsqFdBits:
    @pytest.mark.parametrize("profile", [
        SteadyShearProfile(amplitude=0.7, wavenumber=2.0),
        SelfSimilarProfile(alpha=1.4, U=_similarity_U),
        PowerLawProfile(c=1.1, alpha_p=0.45, gamma_p=1.25),
        _FixedTau(_PERIODIC, 0.3, 0.05),
        _SignOfZero(),
    ], ids=["shear", "selfsimilar", "powerlaw", "fixed-tau", "sign-of-zero"])
    def test_matches_six_calls(self, profile):
        pts = ball_grid(1.3, 12)[0]
        # off the x3-axis, where the azimuthal fields are undefined
        signed = np.array([[-0.0, 0.3, 0.5], [0.2, -0.0, -0.0], [-0.0, 0.4, -0.0],
                           [0.0, -0.4, -0.0], [0.6, 0.1, -0.2]])
        for x, t, h in ((pts, -1.0, 0.25 * 2.6 / 12), (pts, -0.4, 1e-4), (signed, -1.0, 0.05)):
            assert _same_bits(_gradsq_fd(profile, x, t, h), _six_call_gradsq(profile, x, t, h))

    def test_one_velocity_call(self):
        _Counting.calls = 0
        _gradsq_fd(_Counting(), ball_grid(1.0, 8)[0], -1.0, 0.1)
        assert _Counting.calls == 1

    def test_blocks_of_points(self):
        pts = np.random.default_rng(3).uniform(-1.0, 1.0, size=(2, 20_000, 3))
        _Counting.calls = 0
        got = _gradsq_fd(_Counting(), pts, -1.0, 0.01)
        assert _Counting.calls == 2  # 40,000 points in blocks of 2^15
        assert _same_bits(got, _six_call_gradsq(SteadyShearProfile(), pts, -1.0, 0.01))

    def test_two_U_calls_per_slab_point(self):
        calls = []

        def U(y, tau):
            calls.append(tau)
            return _similarity_U(y)

        dss_slab_bounds(DiscreteSelfSimilarProfile(alpha=1.4, S0=1.0, U=U), [4.0, 8.0],
                        n_tau=3, cfg=QuadratureConfig(n_space=8))
        assert len(calls) == 2 * 2 * 3


class TestReprPins:
    """Values recorded from the einsum-era code, compared by repr."""

    cfg = QuadratureConfig(n_space=16)
    bump = GaussianBump(center=(0.0, 0.0, 0.0), t_center=-0.5, sigma=0.35, sigma_t=0.05)
    off = GaussianBump(center=(2.0, 2.0, 2.0), t_center=-0.5, sigma=0.2, sigma_t=0.05)
    sim = SelfSimilarProfile(alpha=1.4, U=_similarity_U)

    @pytest.mark.parametrize("variant, want", [
        ("euler", "(0.028799928415364107, 0.02879992929219044, -8.768263337621818e-10)"),
        ("ns", "(0.009051458855433334, 0.0015484831271889224, 0.007502975728244411)"),
        ("ss", "(0.050002773063847185, 0.015015017500077776, 0.03498775556376941)"),
        ("ssw", "(np.float64(0.05000277306384719), 0.015015017500077776, "
                "np.float64(0.034987755563769415))"),
        ("sim-ns", "(1.705876892208554, -0.7371825499461147, 2.4430594421546687)"),
    ])
    def test_local_energy_residual(self, variant, want):
        rate = (3.0 - 2.0 * 1.4) / (1.0 + 1.4)
        args = {
            "euler": (SteadyShearProfile(amplitude=1.0, wavenumber=2.0), self.bump,
                      "euler-limit"),
            "ns": (PowerLawProfile(c=1.0, alpha_p=0.5, gamma_p=1.0857142857142856), self.off,
                   "standard-ns"),
            "ss": (self.sim, self.bump, "selfsimilar"),
            "ssw": (self.sim, ExponentialWeighted(self.bump, rate), "selfsimilar-weighted"),
            "sim-ns": (self.sim, self.bump, "standard-ns"),
        }[variant]
        profile, testfn, name = args
        assert repr(local_energy_residual(profile, testfn, -0.4, name, self.cfg)) == want

    def test_slab_masses_and_slopes(self):
        rows = dss_slab_bounds(steady_to_discrete(self.sim, 1.0), [4.0, 8.0, 16.0], m=0.55,
                               n_tau=4, cfg=QuadratureConfig(n_space=8))
        got = [(r.quantity, repr(r.masses), repr(r.fitted_slope)) for r in rows]
        assert got == [
            ("sup_mass", "(0.15864019286444034, 1.9328688866708977e-08, "
             "8.319355546561784e-39)", "-61.92127708353424"),
            ("slab_gradsq", "(1.8958058808602727, 1.8520259111992326e-06, "
             "7.503667813202121e-33)", "-53.819421209251544"),
            ("slab_pressure", "(0.0, 0.0, 0.0)", "-inf"),
            ("slab_cubed", "(0.007898227462441995, 1.1875956890847071e-13, "
             "1.1856446716511434e-59)", "-94.38191526008673"),
        ]

    def test_periodic_slab_masses_and_slopes(self):
        rows = dss_slab_bounds(_PERIODIC, [4.0, 8.0], m=0.55, n_tau=3,
                               cfg=QuadratureConfig(n_space=8))
        got = [(r.quantity, repr(r.masses), repr(r.fitted_slope)) for r in rows]
        assert got == [
            ("sup_mass", "(0.21479228344903886, 2.617024817477413e-08)", "-22.968511223063114"),
            ("slab_gradsq", "(0.9176262270681719, 8.964354243669012e-07)",
             "-19.965275534712756"),
            ("slab_pressure", "(0.2735412498346052, 3.0000555964171474e-06)",
             "-16.476409644593375"),
            ("slab_cubed", "(0.004220118183748428, 6.345466987725948e-14)",
             "-35.95276610416538"),
        ]

    def test_cartesian_E(self):
        row = energy_quantities(PowerLawProfile(), 1.0, derive(3, 3, 0.9))
        assert (repr(row.E), repr(row.E_m)) == ("352.10910743891503", "352.10910743891503")
        row = energy_quantities(self.sim, 1.0, derive(3, 3, 0.9),
                                QuadratureConfig(n_space=12, n_time=8))
        assert (repr(row.E), repr(row.E_m)) == ("48.426631362494014", "48.426631362494014")
