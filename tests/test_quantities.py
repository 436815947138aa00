"""Tests for the scaled-energy quantities against independent closed forms."""

import copy
import dataclasses
import math
import pickle
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cylscale import (
    ConstantProfile,
    CylinderSpec,
    CylscaleError,
    DivergentIntegralError,
    DomainError,
    ExponentialWeighted,
    GaussianBump,
    PowerLawProfile,
    Profile,
    QuadratureConfig,
    RadiusError,
    ResolutionError,
    ScalingSpec,
    SelfSimilarProfile,
    SteadyShearProfile,
    SupportError,
    azimuthal_unit,
    closed_form_m_power_law,
    cylinder_gradsq_integral,
    cylinder_power_integral,
    derive,
    energy_quantities,
    local_energy_residual,
    m_quantity,
    quantity_report,
    rescale_grid,
    sample,
    sup_weighted_mass,
)

from cylscale.quadrature import graded_nodes

FOUR_PI_3 = 4.0 * np.pi / 3.0


class TestConstantClosedForms:
    """Every quantity of a constant field has a hand-computed value."""

    prof = ConstantProfile((2.0, 0.0, 0.0))

    @given(st.floats(0.1, 4.0))
    @settings(max_examples=25, deadline=None)
    def test_sup_mass(self, r):
        # r^-1 * int_{B(r)} |c|^2 = r^-1 * 4 * (4 pi/3) r^3
        assert sup_weighted_mass(self.prof, r, 1.0) == pytest.approx(
            4.0 * FOUR_PI_3 * r**2, rel=1e-12)

    @given(st.floats(0.1, 4.0))
    @settings(max_examples=25, deadline=None)
    def test_cubic_term(self, r):
        # r^-2 * |c|^3 * (4 pi/3) r^3 * r^2
        got = cylinder_power_integral(self.prof, "speed", 3.0, r, 2.0)
        assert got == pytest.approx(8.0 * FOUR_PI_3 * r**3, rel=1e-12)

    def test_gradient_and_pressure_vanish(self):
        assert cylinder_gradsq_integral(self.prof, 1.0, 1.0) == 0.0
        assert cylinder_power_integral(self.prof, "pressure", 1.5, 1.0, 2.0) == 0.0

    def test_mixed_norm(self):
        # M = R^-kappa * T * (4 pi/3 R^3 |c|^s)^{l/s} with T = R^2
        s, l = 2.8, 2.8
        M, Matt = m_quantity(self.prof, 1.0, s, l, 0.9)
        want = (FOUR_PI_3 * 2.0**s) ** (l / s)
        assert M == pytest.approx(want, rel=1e-12)
        assert Matt == pytest.approx(want, rel=1e-12)  # R = 1


class TestPowerLawClosedForms:
    prof = PowerLawProfile(c=1.3, alpha_p=0.5, gamma_p=1.1)

    def ball_integral(self, p, r, t):
        a = self.prof.radial_power
        b = self.prof.time_power
        return 4 * np.pi * self.prof.c**p * r ** (3 + a * p) / (3 + a * p) * (-t) ** (b * p)

    def test_cubic_term_exact_route(self):
        r = 0.7
        a, b = self.prof.radial_power, self.prof.time_power
        spatial = 4 * np.pi * self.prof.c**3 * r ** (3 + 3 * a) / (3 + 3 * a)
        time = (r**2) ** (3 * b + 1) / (3 * b + 1)
        want = r**-2.0 * spatial * time
        got = cylinder_power_integral(self.prof, "speed", 3.0, r, 2.0)
        assert got == pytest.approx(want, rel=1e-12)

    def test_gradsq_time_weight_exact(self):
        # the Cartesian sum of |grad v|^2 scales as (-t)**(2 b); the exact
        # time weight must match a fine graded time rule
        fine = QuadratureConfig(n_space=12, n_time=64, graded_levels=40,
                                time_rule="graded")
        exact = cylinder_gradsq_integral(self.prof, 0.7, 1.0, QuadratureConfig(n_space=12))
        want = cylinder_gradsq_integral(self.prof, 0.7, 1.0, fine)
        assert exact == pytest.approx(want, rel=1e-5)

    def test_graded_route_matches_exact(self):
        cfg = QuadratureConfig(n_radial=64, graded_levels=80,
                               radial_rule="graded", time_rule="graded")
        r = 0.7
        exact = cylinder_power_integral(self.prof, "speed", 3.0, r, 2.0)
        graded = cylinder_power_integral(self.prof, "speed", 3.0, r, 2.0, cfg)
        assert graded == pytest.approx(exact, rel=1e-3)

    def test_sup_mass_uses_latest_sample(self):
        """For a profile singular at t = 0 the discrete sup sits at the sample
        closest to the singular time."""
        r, cfg = 0.5, QuadratureConfig(n_time=8)
        t_last = -(r**2) * 0.5 / 8
        want = r**-1.0 * self.ball_integral(2.0, r, t_last)
        assert sup_weighted_mass(self.prof, r, 1.0, cfg) == pytest.approx(want, rel=1e-12)

    def test_pressure_uses_doubled_exponents(self):
        r = 0.6
        a, b = self.prof.radial_power, self.prof.time_power
        pc = self.prof.pressure_coeff
        spatial = 4 * np.pi * (pc * self.prof.c**2) ** 1.5 * r ** (3 + 3 * a) / (3 + 3 * a)
        time = (r**2) ** (3 * b + 1) / (3 * b + 1)
        got = cylinder_power_integral(self.prof, "pressure", 1.5, r, 2.0)
        assert got == pytest.approx(r**-2.0 * spatial * time, rel=1e-12)

    @pytest.mark.parametrize("rule", ["exact", "graded"])
    def test_negative_pressure_coeff_takes_its_magnitude(self, rule):
        # |q| = |pressure_coeff| |v|^2: the signed coefficient used to give a
        # complex D on the exact route and a real part near 0 on the graded one
        cfg = QuadratureConfig(radial_rule=rule, time_rule=rule)
        pos, neg = (cylinder_power_integral(PowerLawProfile(pressure_coeff=pc), "pressure",
                                            1.5, 1.0, 2.0, cfg) for pc in (1.0, -1.0))
        # the graded time rule misses the exact 53.19 by about 2% at n_time=16
        assert type(neg) is float and neg == pos == pytest.approx(53.19, rel=0.03)

    def test_divergent_exponent_raises(self):
        # gamma_p large enough that |v|^3 is not integrable in space
        bad = PowerLawProfile(c=1.0, alpha_p=1.0, gamma_p=1.05)
        with pytest.raises(DivergentIntegralError):
            cylinder_power_integral(bad, "speed", 3.0, 1.0, 2.0)


class TestMixedNormClosedForm:
    def test_certificate_zero_makes_value_radius_independent(self):
        from fractions import Fraction
        from cylscale import construct_profile_exponents

        con = construct_profile_exponents(Fraction(9, 10), Fraction(1, 2))
        s, l = float(con.s), float(con.l)
        vals = [closed_form_m_power_law(1.0, 0.5, float(con.gamma), s, l, 0.9, R)
                for R in (1.0, 0.5, 0.25)]
        for v, e in vals:
            assert abs(e) < 1e-12
            assert v == pytest.approx(vals[0][0], rel=1e-12)

    def test_quadrature_agrees(self):
        from fractions import Fraction
        from cylscale import construct_profile_exponents

        con = construct_profile_exponents(Fraction(9, 10), Fraction(1, 2))
        prof = PowerLawProfile(c=1.0, alpha_p=0.5, gamma_p=float(con.gamma))
        s, l = float(con.s), float(con.l)
        want, _ = closed_form_m_power_law(1.0, 0.5, float(con.gamma), s, l, 0.9, 1.0)
        cfg = QuadratureConfig(n_radial=64, radial_rule="graded", time_rule="graded")
        _, got = m_quantity(prof, 1.0, s, l, 0.9, cfg)
        assert got == pytest.approx(want, rel=1e-2)

    def test_divergence_guard(self):
        with pytest.raises(DivergentIntegralError):
            closed_form_m_power_law(1.0, 1.0, 1.2, 3.0, 3.0, 0.9, 1.0)


class TestGridQuantities:
    def test_grid_matches_closed_form_constant(self):
        prof = ConstantProfile((1.0, 0.0, 0.0))
        f = sample(prof, CylinderSpec(1.0), 48, 8)
        got = sup_weighted_mass(f, 1.0, 1.0)
        # Riemann cell sum over the ball at N=48 is ~N^-2 accurate
        assert got == pytest.approx(FOUR_PI_3, rel=5e-3)

    def test_radius_guard(self):
        f = sample(ConstantProfile(), CylinderSpec(1.0), 8, 2)
        with pytest.raises(RadiusError):
            sup_weighted_mass(f, 2.0, 1.0)
        with pytest.raises(RadiusError):
            sup_weighted_mass(f, -1.0, 1.0)

    def test_radius_below_the_first_time_cell(self):
        # the known limit: no time sample in (-r^2, 0) once r <= sqrt(1/(2*8)) = 0.25
        f = sample(PowerLawProfile(), CylinderSpec(1.0), 12, 8)
        with pytest.raises(ResolutionError, match="no grid time samples"):
            energy_quantities(f, 0.2, derive(2.8, 2.8, 0.9))


class _SmoothProfile(Profile):
    """Smooth and time-dependent, with nonzero pressure, and defined at
    x = 0, so odd grids can sample it."""

    def velocity(self, x, t):
        x = np.asarray(x, dtype=float)
        return np.stack([np.sin(2.0 * x[..., 1]) * (1.0 - t),
                         np.cos(x[..., 2]) + x[..., 0] ** 2,
                         x[..., 0] * x[..., 1] * t], axis=-1)

    def pressure(self, x, t):
        x = np.asarray(x, dtype=float)
        return np.sin(x[..., 0] + 2.0 * x[..., 1]) - t * x[..., 2]


def _mask_ball_sums(field, values, r):
    """Reference: per-time sums over a meshgrid mask of the cells in B(r)."""
    axis = field.space_axis
    xx, yy, zz = np.meshgrid(axis, axis, axis, indexing="ij")
    mask = xx**2 + yy**2 + zz**2 < r**2
    return np.array([float(np.sum(v[mask])) for v in values]) * field.cell_size**3


def _mask_primitives(field, r, s, l, m0):
    """The four grid primitives at radius r, by brute-force masked sums."""
    idx = np.nonzero(field.times > -(r**2))[0]
    dt = field.cylinder.time_depth / field.n_time
    h = field.cell_size
    speed = np.linalg.norm(field.velocity, axis=-1)
    gradsq = np.zeros(field.pressure.shape)
    for j in range(field.n_time):
        for comp in range(3):
            for ax in range(3):
                d = np.gradient(field.velocity[j][..., comp], h, axis=ax)
                gradsq[j] += d * d
    kappa = l * (3.0 / s + 2.0 / l - 1.0)
    S = _mask_ball_sums(field, speed**s, r)
    return {
        "A": r**-1.0 * np.max(_mask_ball_sums(field, speed**2, r)[idx]),
        "C": r**-2.0 * np.sum(_mask_ball_sums(field, speed**3, r)[idx]) * dt,
        "D": r**-2.0 * np.sum(
            _mask_ball_sums(field, np.abs(field.pressure) ** 1.5, r)[idx]) * dt,
        "E": r**-1.0 * np.sum(_mask_ball_sums(field, gradsq, r)[idx]) * dt,
        "M": r**-kappa * np.sum(S[idx] ** (l / s)) * dt,
    }


def _grid_primitives(field, r, s, l, m0):
    return {
        "A": sup_weighted_mass(field, r, 1.0),
        "C": cylinder_power_integral(field, "speed", 3.0, r, 2.0),
        "D": cylinder_power_integral(field, "pressure", 1.5, r, 2.0),
        "E": cylinder_gradsq_integral(field, r, 1.0),
        "M": m_quantity(field, r, s, l, m0)[0],
    }


def _per_slice_tables(field, speed_powers):
    """Reference: each report moment's (Nt, n_shells + 1) prefix-sum table, from
    np.gradient and einsum cells and one bincount per time slice."""
    shell_d2, shell_of_cell = field._ball_cache["shells"]
    v, h = field.velocity, field.cell_size
    gradsq = np.zeros(field.pressure.shape)
    for comp in range(3):
        for ax in (1, 2, 3):
            d = np.gradient(v[..., comp], h, axis=ax)
            gradsq += d * d
    cells = {("gradsq",): gradsq, ("pressure", 1.5): np.abs(field.pressure) ** 1.5}
    for p in speed_powers:
        cells["speed", p] = np.sqrt(np.einsum("...i,...i->...", v, v)) ** p
    tables = {}
    for key, values in cells.items():
        tables[key] = np.zeros((field.n_time, shell_d2.size + 1))
        for j in range(field.n_time):
            tables[key][j, 1:] = np.cumsum(np.bincount(
                shell_of_cell, weights=values[j].ravel(), minlength=shell_d2.size))
    return tables


def _exact_cell_radius(field, lo):
    """A cell-centre distance r > lo with r**2 equal to that cell's d2."""
    a2 = field.space_axis**2
    d2 = np.unique(a2[:, None, None] + a2[None, :, None] + a2[None, None, :])
    return next(math.sqrt(v) for v in d2
                if v > lo**2 and math.sqrt(v) ** 2 == v)


class TestGridBallLookup:
    """The shell prefix-sum lookup against a masked sum over every cell."""

    sl = (2.8, 2.6, 0.9)

    @pytest.mark.parametrize("n, profile", [
        (12, PowerLawProfile(c=1.1, alpha_p=0.45, gamma_p=1.25, pressure_coeff=0.6)),
        (11, _SmoothProfile()),
    ])
    def test_primitives_match_mask_sums(self, n, profile):
        f = sample(profile, CylinderSpec(1.0), n, 8)
        r_edge = _exact_cell_radius(f, 0.5)
        for r in (0.3, 0.55, r_edge, 1.0):
            want = _mask_primitives(f, r, *self.sl)
            got = _grid_primitives(f, r, *self.sl)
            for key in want:
                assert got[key] == pytest.approx(want[key], rel=1e-12), (r, key)
        # the shell at r_edge lies on the sphere: the strict test leaves it out
        above = math.nextafter(r_edge, 2.0)
        assert sup_weighted_mass(f, above, 0.0) > sup_weighted_mass(f, r_edge, 0.0)

    @pytest.mark.parametrize("n, nt, profile", [
        (12, 8, PowerLawProfile(c=1.1, alpha_p=0.45, gamma_p=1.25, pressure_coeff=0.6)),
        (7, 5, _SmoothProfile()),
    ])
    def test_tables_equal_per_slice_bincounts(self, n, nt, profile):
        f = sample(profile, CylinderSpec(1.0, mu=1.3), n, nt)
        quantity_report(f, (0.4, 0.7, 1.0), derive(*self.sl))
        shell_d2, shell_of_cell = f._ball_cache["shells"]
        v, h = f.velocity, f.cell_size
        gradsq = np.zeros(f.pressure.shape)
        for comp in range(3):
            for ax in (1, 2, 3):
                d = np.gradient(v[..., comp], h, axis=ax)
                gradsq += d * d
        cells = {("gradsq",): gradsq}
        for p in (2.0, 3.0, self.sl[0]):
            cells["speed", p] = np.sqrt(np.einsum("...i,...i->...", v, v)) ** p
        cells["pressure", 1.5] = np.abs(f.pressure) ** 1.5
        assert set(f._ball_cache) == {"shells", *cells}
        for key, values in cells.items():
            want = np.zeros((nt, shell_d2.size + 1))
            for j in range(nt):
                want[j, 1:] = np.cumsum(np.bincount(shell_of_cell, weights=values[j].ravel(),
                                                    minlength=shell_d2.size))
            assert f._ball_cache[key].tobytes() == want.tobytes(), key

    @pytest.mark.parametrize("n, nt, profile, sl", [
        # every cell lies on an edge plane, where the differences are one-sided
        (2, 2, PowerLawProfile(c=1.1, alpha_p=0.45, gamma_p=1.25, pressure_coeff=0.6), sl),
        (3, 2, _SmoothProfile(), sl),
        # s = 3.0, as in grid_ladder: ("speed", s) and ("speed", 3.0) are one table
        (12, 8, PowerLawProfile(c=1.1, alpha_p=0.45, gamma_p=1.25, pressure_coeff=0.6),
         (3.0, 2.5, 0.85)),
    ])
    def test_edge_sizes_and_coinciding_speed_keys_equal_per_slice_bincounts(
            self, n, nt, profile, sl):
        # radius 1.5, so that no cell size is 1.0; Nt=2 has no time sample below r=0.86
        f = sample(profile, CylinderSpec(1.5, mu=1.3), n, nt)
        quantity_report(f, (1.0, 1.5), derive(*sl))
        want = _per_slice_tables(f, (2.0, 3.0, sl[0]))
        assert set(f._ball_cache) == {"shells", *want}
        for key, table in want.items():
            assert f._ball_cache[key].tobytes() == table.tobytes(), key

    def test_no_per_cell_array_outlives_a_report(self):
        f = sample(_SmoothProfile(), CylinderSpec(1.0), 8, 4)
        attrs = set(vars(f))
        quantity_report(f, (0.75, 1.0), derive(*self.sl))
        n_shells = f._ball_cache["shells"][0].size
        tables = [v for k, v in f._ball_cache.items() if k != "shells"]
        assert len(tables) == 5
        assert all(t.shape == (f.n_time, n_shells + 1) for t in tables)
        assert set(vars(f)) == attrs

    def test_builds_only_requested_moments(self):
        f = sample(_SmoothProfile(), CylinderSpec(1.0), 8, 4)
        cylinder_power_integral(f, "speed", 3.0, 1.0, 2.0)
        assert set(f._ball_cache) == {"shells", ("speed", 3.0)}

    def test_repeated_and_rescaled_queries_agree(self):
        f = sample(_SmoothProfile(), CylinderSpec(1.0), 12, 8)
        first = _grid_primitives(f, 0.65, *self.sl)
        assert _grid_primitives(f, 0.65, *self.sl) == first
        lam = 0.5
        g = rescale_grid(f, ScalingSpec("navier-stokes", lam))
        for a in (0.6, 0.9, 1.3, 2.0):
            want = _mask_primitives(g, a, *self.sl)
            got = _grid_primitives(g, a, *self.sl)
            orig = _grid_primitives(f, lam * a, *self.sl)
            for key in want:
                assert got[key] == pytest.approx(want[key], rel=1e-12), (a, key)
                assert got[key] == pytest.approx(orig[key], rel=1e-12), (a, key)


class TestReports:
    params = derive(2.8, 2.8, 0.9)

    def test_report_row_consistency(self):
        prof = ConstantProfile((1.0, 0.0, 0.0))
        row = energy_quantities(prof, 1.0, self.params)
        assert row.A == pytest.approx(FOUR_PI_3, rel=1e-12)
        assert row.E == 0.0
        assert row.calE == row.A + row.E + row.D

    def test_report_type1_sup_monotone(self):
        prof = ConstantProfile((1.0, 0.0, 0.0))
        rep = quantity_report(prof, [0.5, 1.0, 2.0], self.params)
        assert rep.type1_sup == max(max(r.A, r.E, r.C) for r in rep.rows)
        assert [r.r for r in rep.rows] == [0.5, 1.0, 2.0]


class TestGradedTimeRule:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_small_n_time_is_the_n16_rule(self, n):
        # n/16 rounds to at most one cell per level for every n <= 4, as for 16
        for T in (0.3, 1.0, 2.5):
            for got, want in zip(graded_nodes(T, n, 28), graded_nodes(T, 16, 28)):
                assert np.array_equal(got, want)


def _row_from_primitives(field, r, params, cfg):
    m, m1 = float(params.m), float(params.m1)
    power = lambda kind, p, w: cylinder_power_integral(field, kind, p, r, w, cfg)
    Mk, Mk0 = m_quantity(field, r, float(params.s), float(params.l),
                         float(params.m0), cfg)
    return {
        "A": sup_weighted_mass(field, r, 1.0, cfg),
        "A_m1": sup_weighted_mass(field, r, m1, cfg),
        "E": cylinder_gradsq_integral(field, r, 1.0, cfg),
        "E_m": cylinder_gradsq_integral(field, r, m, cfg),
        "C": power("speed", 3.0, 2.0), "C_mt": power("speed", 3.0, 2.0 * m),
        "D": power("pressure", 1.5, 2.0), "D_m": power("pressure", 1.5, 2.0 * m),
        "H": power("speed", 2.0, 3.0), "H_n": power("speed", 2.0, m + 2.0),
        "M_kappa": Mk, "M_kappa_m0": Mk0,
    }


_POWER_LAW = PowerLawProfile(c=1.1, alpha_p=0.5, gamma_p=1.0857, pressure_coeff=0.6)


class TestSharedBackend:
    """energy_quantities integrates each quantity once per radius and weights
    it afterwards; the values must be exactly those of the public primitives,
    one call per weight, on every route."""

    params = derive(2.8, 2.6, 0.9)
    routes = [
        (_POWER_LAW, QuadratureConfig()),
        (_POWER_LAW, QuadratureConfig(n_radial=32, graded_levels=12,
                                      radial_rule="graded", time_rule="graded")),
        (SteadyShearProfile(amplitude=1.5, wavenumber=2.0),
         QuadratureConfig(n_space=10, n_time=4)),
        (sample(_SmoothProfile(), CylinderSpec(1.0), 10, 8), QuadratureConfig()),
    ]
    ids = ["exact", "graded", "cartesian", "grid"]

    @pytest.mark.parametrize("field, cfg", routes, ids=ids)
    def test_row_equals_primitives(self, field, cfg):
        for r in (0.5, 1.0):
            row = energy_quantities(field, r, self.params, cfg)
            for name, want in _row_from_primitives(field, r, self.params, cfg).items():
                assert getattr(row, name) == want, (r, name)

    def test_graded_rule_shared_and_read_only(self):
        from cylscale.quadrature import _graded_rule, graded_nodes

        nodes, weights = graded_nodes(0.7, 48, 10)
        assert graded_nodes(0.7, 48, 10)[0] is nodes
        for arr in (nodes, weights):
            with pytest.raises(ValueError):
                arr[0] = 1.0
        fresh_nodes, fresh_weights = _graded_rule.__wrapped__(0.7, 48, 10)
        assert np.array_equal(fresh_nodes, nodes)
        assert np.array_equal(fresh_weights, weights)
        assert fresh_nodes is not nodes


class TestPowerKinds:
    @pytest.mark.parametrize("field", [
        PowerLawProfile(),
        SteadyShearProfile(),
        sample(SteadyShearProfile(), CylinderSpec(2.0), 4, 2),
    ], ids=["separable", "cartesian", "grid"])
    def test_unknown_kind_rejected(self, field):
        with pytest.raises(DomainError, match="kind"):
            cylinder_power_integral(field, "bogus", 1.5, 1.0, 2.0)


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


#: a strategy for each Profile class that declares mirror_even
_MIRROR_EVEN = {
    PowerLawProfile: st.builds(PowerLawProfile, c=st.floats(0.0, 1e3),
                               alpha_p=st.floats(0.0, 1.0),
                               gamma_p=st.floats(1.0, 4.0, exclude_min=True),
                               pressure_coeff=st.floats(-2.0, 2.0)),
}


class TestMirrorClasses:
    """At a power-of-two n_space the Cartesian route evaluates a mirror-even
    |grad v|^2 once per mirror class of the ball grid; every cell must keep the
    bits of the evaluation at every grid point."""

    def test_every_mirror_even_profile_is_drawn(self):
        assert {c for c in _subclasses(Profile) if c.mirror_even} == set(_MIRROR_EVEN)

    @pytest.mark.parametrize("n, counts", [(32, (2157, 17256)), (64, (17172, 137376)),
                                           (96, None), (5, None)])
    def test_class_counts(self, n, counts):
        from cylscale.quadrature import _unit_ball_classes

        got = _unit_ball_classes(n)
        assert (None if got is None else (len(got[0]), len(got[1]))) == counts

    @settings(max_examples=60, deadline=None)
    @given(profile=st.one_of(*_MIRROR_EVEN.values()),
           n=st.sampled_from([2, 4, 8, 16, 32, 1, 3, 5, 6, 7, 12, 20]),
           r=st.floats(1e-3, 1e3), t=st.floats(-1e3, -1e-6) | st.just(0.0))
    def test_cells_equal_the_full_grid_evaluation(self, profile, n, r, t):
        from cylscale.quadrature import ball_grid
        from cylscale.quantities import _ball_cells

        def outcome(evaluate):
            try:
                return evaluate().tobytes()
            except CylscaleError as exc:  # odd n puts points on the x3-axis
                return type(exc), str(exc)

        want = outcome(lambda: profile.grad_norm_sq(ball_grid(r, n)[0], t))
        assert outcome(lambda: _ball_cells(profile, "gradsq", r, t, n)) == want


class TestTestFunctions:
    bump = GaussianBump(center=(0.1, -0.2, 0.3), t_center=-0.5,
                        sigma=0.4, sigma_t=0.08)

    def test_derivatives_match_finite_differences(self):
        """grad S and lap S against differences of S, dT against differences
        of T: the parts the local-energy kernel reads."""
        y = np.array([0.3, 0.1, 0.2])
        tau = -0.45
        h = 1e-6
        S = lambda x: self.bump.space_parts(x)[0]
        _, grad, lap = self.bump.space_parts(y)
        steps = h * np.eye(3)
        for j, e in enumerate(steps):
            assert grad[j] == pytest.approx((S(y + e) - S(y - e)) / (2 * h), rel=1e-6)
        fd_lap = sum((S(y + e) - 2 * S(y) + S(y - e)) / h**2 for e in steps)
        assert lap == pytest.approx(fd_lap, rel=1e-3)
        T = lambda t: self.bump.time_parts(t)[0]
        fd_t = (T(tau + h) - T(tau - h)) / (2 * h)
        assert self.bump.time_parts(tau)[1] == pytest.approx(fd_t, rel=1e-6)

    def test_space_time_parts_reproduce_evaluators(self):
        """time_parts of a scalar tau equals its array entry, and S * T is the
        closed-form Gaussian."""
        y = np.array([[0.3, 0.1, 0.2], [-0.5, 0.4, 0.0], [0.1, -0.2, 0.3]])
        taus = np.array([-0.6, -0.45, -0.3])
        d = y - np.asarray(self.bump.center)
        for f in (self.bump, ExponentialWeighted(self.bump, rate=0.7)):
            T, dT = f.time_parts(taus)
            for k, tau in enumerate(taus):
                assert f.time_parts(tau)[0] == T[k]
                assert f.time_parts(tau)[1] == dT[k]
        q = np.einsum("ij,ij->i", d, d) / (2 * self.bump.sigma**2)
        S = self.bump.space_parts(y)[0]
        for tau in taus:
            qt = (tau - self.bump.t_center) ** 2 / (2 * self.bump.sigma_t**2)
            np.testing.assert_allclose(S * self.bump.time_parts(tau)[0], np.exp(-q - qt),
                                       rtol=1e-14)

    def test_exponential_weighting_chain_rule(self):
        """The weighted test function keeps the base's spatial factor, and its
        dT matches differences of its T."""
        w = ExponentialWeighted(self.bump, rate=0.7)
        y = np.array([0.0, 0.0, 0.1])
        tau = -0.5
        h = 1e-6
        for got, want in zip(w.space_parts(y), self.bump.space_parts(y)):
            assert np.array_equal(got, want)
        T = lambda t: w.time_parts(t)[0]
        fd_t = (T(tau + h) - T(tau - h)) / (2 * h)
        assert w.time_parts(tau)[1] == pytest.approx(fd_t, rel=1e-6)


def _reference_local_energy(profile, testfn, tau0, variant, cfg):
    """Reference: the balance integrated node by node, with the profile called
    afresh at each time node and phi, grad phi, lap phi and dphi/dtau formed
    there as S T, grad S T, lap S T and S dT from the test function's factors."""
    from cylscale.quadrature import gauss_legendre
    from cylscale.quantities import _gradsq_fd, _testfn_grid

    tlo, thi = testfn.time_window
    n = cfg.n_space
    pts, wts = _testfn_grid(testfn, n)
    tnodes, twts = gauss_legendre(tlo, min(thi, tau0), max(cfg.n_time, n))
    dot = lambda a, b: np.einsum("...i,...i->...", a, b)

    def phi(t):
        S, gradS, lapS = testfn.space_parts(pts)
        T, dT = testfn.time_parts(t)
        return S * T, gradS * T, lapS * T, S * dT

    if variant in ("selfsimilar", "selfsimilar-weighted"):
        alpha = profile.alpha
        rate = (3.0 - 2.0 * alpha) / (1.0 + alpha)
        U = np.asarray(profile.U(pts), dtype=float)
        P = np.zeros(len(pts)) if profile.P is None else profile.P(pts)
        U2 = dot(U, U)
        rhs = 0.0
        for t, wt in zip(tnodes, twts):
            value, grad, _, dt = phi(t)
            drift = dot(pts, grad) / (1.0 + alpha)
            adv = dot(U, grad)
            if variant == "selfsimilar":
                integrand = U2 * (drift + dt + rate * value) + adv * (U2 + 2.0 * P)
                weight = 1.0
            else:
                integrand = U2 * (drift + dt) + adv * (U2 + 2.0 * P)
                weight = np.exp(-rate * t)
            rhs += wt * weight * float(np.sum(wts * integrand))
        lhs_weight = 1.0 if variant == "selfsimilar" else np.exp(-rate * tau0)
        lhs = lhs_weight * float(np.sum(wts * U2 * phi(tau0)[0]))
        return lhs, rhs, lhs - rhs
    rhs = 0.0
    dissipation = 0.0
    for t, wt in zip(tnodes, twts):
        v = profile.velocity(pts, t)
        p = profile.pressure(pts, t)
        v2 = dot(v, v)
        value, grad, lap, heat = phi(t)
        adv = dot(v, grad)
        if variant == "standard-ns":
            heat = heat + lap
            g = profile.grad_norm_sq(pts, t)
            if g is None:
                g = _gradsq_fd(profile, pts, t, 1e-4)
            dissipation += wt * float(np.sum(wts * value * g))
        rhs += wt * float(np.sum(wts * (v2 * heat + adv * (v2 + 2.0 * p))))
    v0 = profile.velocity(pts, tau0)
    lhs = float(np.sum(wts * dot(v0, v0) * phi(tau0)[0]))
    if variant == "standard-ns":
        lhs = lhs + 2.0 * dissipation
    return lhs, rhs, lhs - rhs


def _similarity_U(y):
    return np.exp(-np.einsum("...i,...i->...", y, y))[..., None] * azimuthal_unit(y)


def _similarity_P(y):
    return 0.3 * np.exp(-0.5 * np.einsum("...i,...i->...", y, y))


class TestLocalEnergy:
    shear = SteadyShearProfile(amplitude=1.0, wavenumber=2.0)
    bump = GaussianBump(center=(0.0, 0.0, 0.0), t_center=-0.5,
                        sigma=0.35, sigma_t=0.05)

    def test_shear_euler_limit_residual_small(self):
        cfg = QuadratureConfig(n_space=64)
        lhs, rhs, res = local_energy_residual(self.shear, self.bump, -0.4,
                                              "euler-limit", cfg)
        assert abs(res) <= 1e-6
        assert lhs > 0  # non-degenerate balance

    def test_support_guards(self):
        late = GaussianBump(t_center=-0.01, sigma_t=0.05)
        prof = PowerLawProfile(c=1.0, alpha_p=0.5, gamma_p=1.1)
        with pytest.raises(SupportError):
            local_energy_residual(prof, late, -0.005, "euler-limit")
        with pytest.raises(SupportError):
            local_energy_residual(prof, self.bump, -0.4, "euler-limit")  # x=0 inside

    @pytest.mark.parametrize("tau0", [0.0, 0.3])
    def test_physical_variants_need_negative_tau0(self, tau0):
        for variant in ("standard-ns", "euler-limit"):
            with pytest.raises(SupportError, match="tau0 must be negative"):
                local_energy_residual(self.shear, self.bump, tau0, variant)

    def test_tau0_before_the_test_window(self):
        # no time node lies before tau0, so the rhs is an empty sum
        cfg = QuadratureConfig(n_space=8)
        for variant in ("standard-ns", "euler-limit"):
            lhs, rhs, res = local_energy_residual(self.shear, self.bump, -2.0, variant, cfg)
            assert rhs == 0.0 and res == lhs and 0.0 <= lhs < 1e-100

    def test_substitution_identity(self):
        """The weighted balance with phi = psi * exp(rate*tau) coincides with
        the zeroth-order-term form with psi, term by term."""
        U = lambda y: np.exp(-np.einsum("...i,...i->...", y, y))[..., None] * azimuthal_unit(y)
        prof = SelfSimilarProfile(alpha=1.4, U=U)
        rate = (3.0 - 2.0 * prof.alpha) / (1.0 + prof.alpha)
        psi = self.bump
        phi = ExponentialWeighted(psi, rate)
        cfg = QuadratureConfig(n_space=24)
        l1, r1, d1 = local_energy_residual(prof, psi, -0.4, "selfsimilar", cfg)
        l2, r2, d2 = local_energy_residual(prof, phi, -0.4, "selfsimilar-weighted", cfg)
        assert l1 == pytest.approx(l2, rel=1e-9)
        assert r1 == pytest.approx(r2, rel=1e-9, abs=1e-12)
        assert d1 == pytest.approx(d2, rel=1e-9, abs=1e-12)

    # off-centre bumps: the flux of an azimuthal field against a bump
    # centred on its axis, or on the diagonal x1 = x2, cancels by symmetry
    _bump = GaussianBump(center=(0.3, -0.2, 0.1), t_center=-0.5,
                         sigma=0.35, sigma_t=0.05)
    _off = GaussianBump(center=(2.0, 1.0, 1.5), t_center=-0.5, sigma=0.2,
                        sigma_t=0.05)
    _sim = SelfSimilarProfile(alpha=1.4, U=_similarity_U, P=_similarity_P)
    _rate = (3.0 - 2.0 * 1.4) / (1.0 + 1.4)

    @pytest.mark.parametrize("profile, testfn, variant", [
        (SteadyShearProfile(amplitude=1.0, wavenumber=2.0), _bump, "euler-limit"),
        (SteadyShearProfile(amplitude=1.0, wavenumber=2.0), _bump, "standard-ns"),
        (PowerLawProfile(c=1.0, alpha_p=0.5, gamma_p=1.1), _off, "standard-ns"),
        (PowerLawProfile(c=0.8, alpha_p=0.3, gamma_p=1.2), _off, "euler-limit"),
        (_sim, _bump, "standard-ns"),
        (_sim, _bump, "euler-limit"),
        (_sim, _bump, "selfsimilar"),
        (_sim, ExponentialWeighted(_bump, _rate), "selfsimilar-weighted"),
    ], ids=["shear-euler", "shear-ns", "powerlaw-ns", "powerlaw-euler",
            "selfsimilar-profile-ns", "selfsimilar-profile-euler",
            "selfsimilar", "selfsimilar-weighted"])
    def test_factorised_kernel_matches_per_node_loop(self, profile, testfn, variant):
        cfg = QuadratureConfig(n_space=12)
        got = local_energy_residual(profile, testfn, -0.4, variant, cfg)
        want = _reference_local_energy(profile, testfn, -0.4, variant, cfg)
        scale = max(abs(want[0]), abs(want[1]))
        assert scale > 0
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-12 * scale

    def test_bad_variant_or_profile_rejected_before_quadrature(self, monkeypatch):
        import cylscale.quantities as quantities

        def no_quadrature(*args, **kwargs):
            raise AssertionError("quadrature built before the inputs were checked")

        monkeypatch.setattr(quantities, "gauss_legendre", no_quadrature)
        with pytest.raises(DomainError, match="variant"):
            local_energy_residual(self.shear, self.bump, -0.4, "eulerlimit")
        with pytest.raises(DomainError, match="SelfSimilarProfile"):
            local_energy_residual(self.shear, self.bump, -0.4, "selfsimilar")


class TestKernelBits:
    """The local-energy kernel builds its lattice and test-function factors in
    place; these pins were recorded from the allocating forms."""

    bump = TestLocalEnergy._bump
    sim = SelfSimilarProfile(alpha=1.3, U=_similarity_U, P=_similarity_P)
    cases = {
        "euler-limit": (SteadyShearProfile(amplitude=0.5, wavenumber=1.5), bump),
        "standard-ns": (PowerLawProfile(c=0.8, alpha_p=0.5, gamma_p=1.1),
                        TestLocalEnergy._off),
        "selfsimilar": (sim, bump),
        "selfsimilar-weighted": (sim, ExponentialWeighted(bump, (3.0 - 2.0 * 1.3) / (1.0 + 1.3))),
    }

    @pytest.mark.parametrize("n, variant, want", [
        (1, "euler-limit", "(0.3476271185108676, 0.3476271290945263, -1.0583658727192358e-08)"),
        (1, "standard-ns", "(1.4686068906990708, -63.48294616948269, 64.95155306018175)"),
        (1, "selfsimilar", "(12.03363463587628, 13.927650369372301, -1.8940157334960208)"),
        (1, "selfsimilar-weighted", "(np.float64(12.03363463587628), 13.927650369372301, "
                                    "np.float64(-1.8940157334960208))"),
        (2, "euler-limit", "(6.256743901534309e-11, 6.256744092023548e-11, "
                           "-1.9048923899103172e-18)"),
        (2, "standard-ns", "(4.155397188056579e-11, 2.3012171253837887e-08, "
                           "-2.297061728195732e-08)"),
        (2, "selfsimilar", "(9.472050961814162e-15, -1.6706631233614357e-13, "
                           "1.7653836329795773e-13)"),
        (2, "selfsimilar-weighted", "(np.float64(9.472050961814164e-15), "
                                    "-1.6706631233614357e-13, "
                                    "np.float64(1.7653836329795773e-13))"),
        (16, "euler-limit", "(0.006007090186435848, 0.006007090369324321, "
                            "-1.8288847259545493e-10)"),
        (16, "standard-ns", "(0.008494341183535741, 0.001267832222549177, "
                            "0.007226508960986564)"),
        (16, "selfsimilar", "(0.041508450616255, -0.01669152827064435, 0.05819997888689935)"),
        (16, "selfsimilar-weighted", "(np.float64(0.041508450616255), -0.01669152827064435, "
                                     "np.float64(0.05819997888689935))"),
    ])
    def test_residual_pins(self, n, variant, want):
        profile, testfn = self.cases[variant]
        got = local_energy_residual(profile, testfn, -0.4, variant, QuadratureConfig(n_space=n))
        assert repr(got) == want

    @pytest.mark.parametrize("shape", [(3,), (5, 3), (2, 2, 3)])
    def test_space_parts_match_the_allocating_formulas(self, shape):
        from cylscale.fields import _dot3

        rng = np.random.default_rng(len(shape))
        y = rng.normal(size=shape)
        for f in (self.bump, GaussianBump(center=(1, 0, -2), sigma=0.7)):
            d = np.asarray(y, dtype=float) - np.asarray(f.center)
            d2 = _dot3(d, d)
            S = np.exp(-d2 / (2 * f.sigma**2))
            want = (S, S[..., None] * (-d / f.sigma**2),
                    S * (d2 / f.sigma**4 - 3.0 / f.sigma**2))
            for g, w in zip(f.space_parts(y), want):
                assert type(g) is type(w) and np.shape(g) == np.shape(w)
                assert np.asarray(g).tobytes() == np.asarray(w).tobytes()

    def test_kernel_writes_no_array_it_was_handed(self):
        from cylscale.quantities import _testfn_grid

        class HeldParts(GaussianBump):
            """Hands out the same factor arrays on every call, as a cache would."""

            def space_parts(self, y):
                if not hasattr(self, "held"):
                    object.__setattr__(self, "held", super().space_parts(y))
                return self.held

        returned = []

        def kept(f):
            def g(y):
                out = f(y)
                returned.append((out, out.copy()))
                return out
            return g

        b = self.bump
        held = HeldParts(center=b.center, t_center=b.t_center, sigma=b.sigma,
                         sigma_t=b.sigma_t)
        sim = SelfSimilarProfile(alpha=1.3, U=kept(_similarity_U), P=kept(_similarity_P))
        shear = SteadyShearProfile(amplitude=0.5, wavenumber=1.5)
        cfg = QuadratureConfig(n_space=6)
        for profile, variant, rate in [(shear, "standard-ns", None), (sim, "standard-ns", None),
                                       (sim, "selfsimilar", None),
                                       (sim, "selfsimilar-weighted", 0.2)]:
            fn, plain = (held, b) if rate is None else (ExponentialWeighted(held, rate),
                                                        ExponentialWeighted(b, rate))
            want = repr(local_energy_residual(profile, plain, -0.4, variant, cfg))
            for _ in range(2):
                assert repr(local_energy_residual(profile, fn, -0.4, variant, cfg)) == want
        fresh = b.space_parts(_testfn_grid(b, 6)[0])
        assert all(h.tobytes() == f.tobytes() for h, f in zip(held.held, fresh))
        assert returned and all(a.tobytes() == c.tobytes() for a, c in returned)


class TestSpaceRuleMemo:
    """A test function keeps its weighted spatial rule per n_space, so only the
    first call at each n builds the lattice and the factors."""

    cases = TestKernelBits.cases

    @staticmethod
    def _fresh(testfn):
        """An equal test function whose memo is still empty."""
        if isinstance(testfn, ExponentialWeighted):
            return ExponentialWeighted(dataclasses.replace(testfn.base), testfn.rate)
        return dataclasses.replace(testfn)

    def test_warm_call_builds_no_lattice_and_no_factors(self, monkeypatch):
        import cylscale.quantities as quantities

        bump = self._fresh(TestLocalEnergy._bump)
        calls = []
        space_parts = GaussianBump.space_parts
        monkeypatch.setattr(GaussianBump, "space_parts",
                            lambda self, y: calls.append(1) or space_parts(self, y))
        profile = SteadyShearProfile(amplitude=0.5, wavenumber=1.5)
        cfg = QuadratureConfig(n_space=6)
        cold = local_energy_residual(profile, bump, -0.4, "euler-limit", cfg)
        rule = bump._space_rule(6)
        assert len(calls) == 1

        def no_lattice(*args, **kwargs):
            raise AssertionError("lattice rebuilt on a warm call")

        monkeypatch.setattr(quantities, "_testfn_grid", no_lattice)
        assert local_energy_residual(profile, bump, -0.4, "euler-limit", cfg) == cold
        assert len(calls) == 1
        again = bump._space_rule(6)
        assert all(a is b for a, b in zip(again, rule))
        assert not any(a.flags.writeable for a in rule)
        assert [a.shape for a in rule] == [(216, 3), (216,), (216, 3), (216,)]

    def test_weighted_and_plain_bump_share_one_entry(self):
        bump = self._fresh(TestLocalEnergy._bump)
        weighted = ExponentialWeighted(bump, 0.7)
        rule = weighted._space_rule(4)
        assert bump._space_rule(4) is rule
        assert list(bump._rules) == [4]

    def test_replaced_bump_gets_a_fresh_entry(self):
        bump = self._fresh(TestLocalEnergy._bump)
        rule = bump._space_rule(4)
        wider = dataclasses.replace(bump, sigma=0.6)
        assert wider._rules == {}
        assert wider._space_rule(4)[1].tobytes() != rule[1].tobytes()
        assert bump._space_rule(4) is rule

    def test_memo_leaves_equality_hash_and_repr(self):
        warm, cold = GaussianBump(), GaussianBump()
        warm._space_rule(3)
        assert warm == cold and hash(warm) == hash(cold)
        assert repr(warm) == repr(cold) == (
            "GaussianBump(center=(0.0, 0.0, 0.0), t_center=-0.5, sigma=0.5, sigma_t=0.1)")
        assert ExponentialWeighted(warm, 0.5) == ExponentialWeighted(cold, 0.5)

    def test_pickles_and_copies_leave_the_memo_behind(self):
        # a warm bump once pickled its n 16 entry, 262,578 bytes against 164 cold
        warm, cold = GaussianBump(), GaussianBump()
        profile = SteadyShearProfile(amplitude=0.5, wavenumber=1.5)
        cfg = QuadratureConfig(n_space=16)
        want = repr(local_energy_residual(profile, warm, -0.4, "standard-ns", cfg))
        assert list(warm._rules) == [16]
        assert len(pickle.dumps(warm)) == len(pickle.dumps(cold))
        for fn in (warm, ExponentialWeighted(warm, 0.7)):
            for other in (pickle.loads(pickle.dumps(fn)), copy.deepcopy(fn)):
                assert other == fn
                bump = getattr(other, "base", other)
                assert bump._rules == {} and bump._rules is not warm._rules
        twin = pickle.loads(pickle.dumps(warm))
        assert repr(local_energy_residual(profile, twin, -0.4, "standard-ns", cfg)) == want
        assert list(warm._rules) == [16]

    @pytest.mark.parametrize("variant", list(TestKernelBits.cases))
    def test_warm_call_repeats_the_cold_bits(self, variant):
        profile, testfn = self.cases[variant]
        fn = self._fresh(testfn)
        cfg = QuadratureConfig(n_space=8)
        cold = repr(local_energy_residual(profile, fn, -0.4, variant, cfg))
        assert repr(local_energy_residual(profile, fn, -0.4, variant, cfg)) == cold
        assert repr(local_energy_residual(profile, self._fresh(testfn), -0.4, variant,
                                          cfg)) == cold

    @pytest.mark.parametrize("variant", ["euler-limit", "standard-ns"])
    def test_test_function_without_a_memo_gets_the_memo_bits(self, variant):
        """A test function with only the four documented members ended in an
        AttributeError on the bump's private memo."""
        profile, bump = self.cases[variant]
        plain = types.SimpleNamespace(space_parts=bump.space_parts, time_parts=bump.time_parts,
                                      space_box=bump.space_box, time_window=bump.time_window)
        cfg = QuadratureConfig(n_space=8)
        assert (local_energy_residual(profile, plain, -0.4, variant, cfg)
                == local_energy_residual(profile, bump, -0.4, variant, cfg))

    @pytest.mark.parametrize("tau0", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("variant", list(TestKernelBits.cases))
    def test_non_finite_tau0_rejected_before_quadrature(self, monkeypatch, variant, tau0):
        import cylscale.quantities as quantities

        def no_quadrature(*args, **kwargs):
            raise AssertionError("quadrature built before tau0 was checked")

        monkeypatch.setattr(quantities, "_testfn_grid", no_quadrature)
        monkeypatch.setattr(quantities, "gauss_legendre", no_quadrature)
        profile, testfn = self.cases[variant]
        with pytest.raises(DomainError, match="tau0"):
            local_energy_residual(profile, self._fresh(testfn), tau0, variant,
                                  QuadratureConfig(n_space=4))
