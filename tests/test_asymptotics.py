"""Tests for the iteration engine, envelopes and verdicts."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cylscale import (
    DiscreteSelfSimilarProfile,
    DomainError,
    IterationParams,
    QuadratureConfig,
    SelfSimilarProfile,
    azimuthal_unit,
    derive_iteration_params,
    dss_slab_bounds,
    gamma_ceiling,
    growth_envelope,
    iterate_bound,
    liouville_verdict,
    steady_to_discrete,
)
from cylscale.quadrature import ball_grid


class TestDeriveParams:
    def test_reference_point(self):
        p = derive_iteration_params(0.55, 0.5)
        assert p.theta == pytest.approx(2 / 2.1, rel=1e-12)
        assert p.beta == pytest.approx(0.1041667, abs=1e-7)
        assert p.gamma_max == pytest.approx(0.7039076, abs=1e-4)

    def test_gamma_ceiling_limit(self):
        """As m1 -> 0 the ceiling tends to 1/(2 ln 2)."""
        assert gamma_ceiling(1e-6) == pytest.approx(1 / (2 * math.log(2)), abs=1e-4)

    def test_gamma_ceiling_at_zero(self):
        assert gamma_ceiling(0.0) == 1.0 / (2.0 * math.log(2.0))

    def test_gamma_max_follows_the_ceiling_of_m1(self):
        # stored defaults once reported gamma_max = inf here
        p = IterationParams(0.5, 0.5, gamma=5.0, m1=0.1)
        assert p.gamma_max == gamma_ceiling(0.1)

    @pytest.mark.parametrize("m, gamma", [(0.55, 0.5), (0.55, 0.71), (0.51, 0.1)])
    def test_derived_ceiling_is_the_stored_one(self, m, gamma):
        p = derive_iteration_params(m, gamma)
        assert p.gamma_max == gamma_ceiling(2.0 * m - 1.0)

    @pytest.mark.parametrize("theta", [1.0, 0.0, -0.5, 1.5])
    def test_theta_outside_unit_interval(self, theta):
        with pytest.raises(DomainError, match="theta"):
            IterationParams(theta=theta, beta=0.5)

    def test_window_guard(self):
        with pytest.raises(DomainError):
            derive_iteration_params(0.62, 0.5)
        with pytest.raises(DomainError):
            derive_iteration_params(0.5, 0.5)
        with pytest.raises(DomainError):
            derive_iteration_params(0.55, -0.1)

    @pytest.mark.parametrize("C_force", [-1.0, -1e-300, float("nan")])
    def test_negative_forcing_constant_refused(self, C_force):
        # C_force = -1 used to give negative bounds and "converges-to-zero"
        with pytest.raises(DomainError, match="C_force"):
            derive_iteration_params(0.55, 0.5, C_force=C_force)
        assert derive_iteration_params(0.55, 0.5, C_force=0.0).C_force == 0.0

    def test_case_tags(self):
        assert IterationParams(theta=0.5, beta=1.0).case_tag == "2^beta*theta=1"
        assert IterationParams(theta=0.6, beta=1.0).case_tag == "2^beta*theta>1"
        assert IterationParams(theta=0.4, beta=1.0).case_tag == "2^beta*theta<1"


class TestIterateBound:
    def test_third_case_closed_form(self):
        p = IterationParams(theta=0.5, beta=1.0, C_force=1.0)
        trace = iterate_bound(p, 1.0, 30)
        assert trace.case_tag == "2^beta*theta=1"
        assert trace.forcing_terms[30] == pytest.approx(30 * 0.5**29, abs=1e-12)

    def test_zero_iterations_edge(self):
        p = IterationParams(theta=0.5, beta=1.0, C_force=2.0)
        trace = iterate_bound(p, 4.0, 0)
        assert len(trace.bounds) == 1
        assert trace.bounds[0] == pytest.approx(2.0 + 2.0 / 4.0)

    def test_negative_k_max(self):
        with pytest.raises(DomainError, match="k_max"):
            iterate_bound(IterationParams(0.5, 0.5), 2.0, -1)

    @pytest.mark.parametrize("R", [1.0, 7.5])
    @pytest.mark.parametrize("theta, beta", [(0.5, 1.0), (0.6, 1.0), (0.4, 1.0)],
                             ids=["L=0", "L<0", "L>0"])
    def test_trace_keeps_forcing_terms_bits(self, theta, beta, R):
        """The loop computes the k-free factors once; every term keeps the bits
        of a forcing_term call of its own."""
        from cylscale.asymptotics import forcing_term

        p = IterationParams(theta, beta)
        trace = iterate_bound(p, R, 400)
        assert trace.forcing_terms == [forcing_term(p, R, k) for k in range(401)]

    @given(
        st.floats(0.2, 0.95),
        st.floats(-1.0, 2.0),
        st.floats(0.1, 10.0),
        st.floats(1.0, 16.0),
        st.floats(0.0, 0.7),
        st.floats(0.001, 0.199),
    )
    @settings(max_examples=100, deadline=None)
    # 2^beta*theta - 1 = -6.9e-6: the old closed form was 1.1e-11 off here
    @example(theta=0.5, beta=0.99999, C=1.0, R=1.0, gamma=0.0, m1=0.001)
    def test_branches_match_direct_summation(self, theta, beta, C, R, gamma, m1):
        """All three closed forms agree with brute-force geometric sums."""
        p = IterationParams(theta=theta, beta=beta, C_force=C, gamma=gamma, m1=m1)
        trace = iterate_bound(p, R, 40)
        x = 1.0 / (2.0**beta * theta)
        for k in range(1, 41):
            direct = C * theta ** (k - 1) * R**-beta * sum(x**i for i in range(k))
            scale = max(direct, 1.0)
            assert abs(trace.forcing_terms[k] - direct) <= 1e-12 * scale

    @given(
        st.floats(0.52, 0.599),
        st.floats(0.01, 0.9),
        st.floats(1.0, 64.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_contracting_traces_vanish(self, m, frac, R):
        p = derive_iteration_params(m, frac * gamma_ceiling(2 * m - 1))
        assert p.contraction < 1
        # every term decays at least like max(contraction, theta, 2^-beta)^k
        rate = max(p.contraction, p.theta, 2.0**-p.beta)
        k_max = min(200_000, int(math.log(1e-9) / math.log(rate)) + 50)
        trace = iterate_bound(p, R, k_max)
        assert trace.verdict == "converges-to-zero"
        # eventually strictly decreasing and below any tolerance
        tail = trace.bounds[-10:]
        assert all(b2 < b1 for b1, b2 in zip(tail, tail[1:]))
        assert trace.bounds[-1] < 1e-6


class TestGrowthEnvelope:
    def test_borderline_growth_flagged(self):
        """|U| = rho^{m1/2} grows just too fast: mass ~ b^3 beats b^{m1}."""
        m1 = 0.1
        env = growth_envelope(lambda rho: rho ** (m1 / 2), exponent=m1,
                              ladder=[2.0**j for j in range(8)], radial=True)
        assert env.slope > 0.05
        assert not env.bounded

    def test_compact_support_slope(self):
        u = lambda rho: np.where(rho < 1.0, 1.0, 0.0)
        e = 0.3
        env = growth_envelope(u, exponent=e, ladder=[2.0**j for j in range(1, 8)],
                              radial=True)
        assert env.slope == pytest.approx(-e, abs=1e-6)
        assert env.bounded

    def test_calibrated_profile_slope_zero(self):
        """|U(rho)|^2 = (3 + m1)/(4 pi) * rho^{m1 - 3} makes the normalized
        mass exactly constant, so the fitted slope vanishes."""
        m1 = 0.1
        u = lambda rho: np.sqrt((3 + m1) / (4 * np.pi)) * rho ** ((m1 - 3) / 2)
        env = growth_envelope(u, exponent=m1, ladder=[2.0**j for j in range(8)],
                              radial=True)
        assert abs(env.slope) <= 0.05
        assert env.bounded

    def test_cartesian_route_and_running_sup(self):
        u = lambda pts: np.exp(-np.einsum("...i,...i->...", pts, pts))
        env = growth_envelope(u, exponent=0.0, ladder=[1.0, 2.0, 4.0],
                              cfg=QuadratureConfig(n_space=24))
        assert env.running_sup == tuple(np.maximum.accumulate(env.masses))

    def test_ladder_guard(self):
        with pytest.raises(DomainError):
            growth_envelope(lambda r: r, 0.0, [1.0, 1.0], radial=True)

    def test_vector_field_uses_its_norm(self):
        def u(pts):
            w = np.exp(-np.einsum("...i,...i->...", pts, pts))[..., None]
            return w * (pts + np.array([1.0, 0.0, 0.0]))

        cfg = QuadratureConfig(n_space=16)
        vec = growth_envelope(u, 0.2, [1.0, 2.0, 4.0], cfg=cfg)
        norm = growth_envelope(lambda pts: np.linalg.norm(u(pts), axis=-1), 0.2,
                               [1.0, 2.0, 4.0], cfg=cfg)
        assert vec.masses == pytest.approx(norm.masses, rel=1e-12)
        assert vec.masses[0] > 0


class TestLiouville:
    def test_reference_verdicts(self):
        assert liouville_verdict(0.45).verdict == "Trivial"
        assert liouville_verdict(0.55, 0.5, evidence=True).verdict == "Trivial"
        assert liouville_verdict(0.55, 0.71).verdict == "Inconclusive"
        boundary = gamma_ceiling(0.1)
        assert liouville_verdict(0.55, boundary).verdict == "Inconclusive"

    def test_out_of_scope(self):
        assert liouville_verdict(0.62, 0.1, True).verdict == "OutOfScope"
        assert liouville_verdict(0.5, 0.1, True).verdict == "OutOfScope"
        assert liouville_verdict(0.55, None).verdict == "OutOfScope"

    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_gamma_monotonicity(self, g1, g2):
        """Decreasing gamma never turns Trivial into Inconclusive."""
        lo, hi = min(g1, g2), max(g1, g2)
        v_hi = liouville_verdict(0.55, hi, evidence=True).verdict
        v_lo = liouville_verdict(0.55, lo, evidence=True).verdict
        if v_hi == "Trivial":
            assert v_lo == "Trivial"

    def test_envelope_evidence_accepted(self):
        env = growth_envelope(lambda rho: np.where(rho < 1.0, 1.0, 0.0),
                              exponent=0.1, ladder=[2.0**j for j in range(1, 6)],
                              radial=True)
        v = liouville_verdict(0.55, 0.5, evidence=[env])
        assert v.verdict == "Trivial"
        assert v.checklist["evidence_bounded"] is True
        record = dataclasses.asdict(v)
        assert record["verdict"] == "Trivial"

    def test_generator_evidence_accepted(self):
        env = growth_envelope(lambda rho: np.where(rho < 1.0, 1.0, 0.0),
                              exponent=0.1, ladder=[2.0**j for j in range(1, 6)],
                              radial=True)
        v = liouville_verdict(0.55, 0.5, evidence=(e for e in [env, True]))
        assert v.verdict == "Trivial"
        assert v.checklist["evidence_bounded"] is True

    @pytest.mark.parametrize("evidence", [3.0, object()])
    def test_non_iterable_evidence_inconclusive(self, evidence):
        v = liouville_verdict(0.55, 0.5, evidence=evidence)
        assert v.verdict == "Inconclusive"
        assert v.checklist["evidence_bounded"] is False
        assert v.checklist["profile_kind"] == "selfsimilar"

    def test_empty_evidence_inconclusive(self):
        assert liouville_verdict(0.55, 0.5, evidence=iter(())).verdict == "Inconclusive"

    @pytest.mark.parametrize("evidence", ["yes", b"yes", ["ok"]])
    def test_string_evidence_rejected(self, evidence):
        with pytest.raises(DomainError, match="evidence"):
            liouville_verdict(0.55, 0.5, evidence=evidence)

    def test_unbounded_evidence_inconclusive(self):
        env = growth_envelope(lambda rho: rho, exponent=0.0,
                              ladder=[2.0**j for j in range(6)], radial=True)
        assert liouville_verdict(0.55, 0.5, evidence=[env]).verdict == "Inconclusive"


def _gaussian_ss(alpha=1.5):
    U = lambda y: np.exp(-np.einsum("...i,...i->...", y, y))[..., None] * azimuthal_unit(y)
    return SelfSimilarProfile(alpha=alpha, U=U)


class TestDssSlabBounds:
    def test_localized_profile_passes_all_targets(self):
        dss = steady_to_discrete(_gaussian_ss(), S0=0.4)
        ladder = [4.0, 8.0, 16.0, 32.0]
        rows = dss_slab_bounds(dss, ladder, m=0.55,
                               cfg=QuadratureConfig(n_space=24))
        assert len(rows) == 4
        for row in rows:
            assert row.passed, row
            assert row.fitted_slope <= row.target_exponent + 0.05

    def test_zero_profile(self):
        dss = steady_to_discrete(
            SelfSimilarProfile(alpha=1.5, U=lambda y: np.zeros_like(np.asarray(y))),
            S0=0.4,
        )
        rows = dss_slab_bounds(dss, [4.0, 8.0], m=0.55,
                               cfg=QuadratureConfig(n_space=8))
        for row in rows:
            assert all(m == 0.0 for m in row.masses)
            assert row.passed

    @pytest.mark.parametrize("periodic", [False, True])
    def test_masses_match_brute_force(self, periodic):
        """Cell sums over B(2R), |grad U|^2 by central differences of step
        0.25 * 2R/n (an eighth of a cell), slab integrals by the tau midpoint
        rule; a steady Gaussian, and a periodic one with a pressure."""
        U0 = _gaussian_ss().U
        if periodic:
            dss = DiscreteSelfSimilarProfile(
                alpha=1.5, S0=0.4, U=lambda y, tau: (1.0 + 0.5 * math.sin(tau)) * U0(y),
                P=lambda y, tau: -math.cos(tau) * np.exp(-np.einsum("...i,...i->...", y, y)))
        else:
            dss = steady_to_discrete(_gaussian_ss(), S0=0.4)
        ladder, n, n_tau = [4.0, 8.0], 8, 3
        taus = 0.4 * (np.arange(n_tau) + 0.5) / n_tau
        expected = {"sup_mass": [], "slab_gradsq": [], "slab_pressure": [],
                    "slab_cubed": []}
        for R in ladder:
            pts, w = ball_grid(2 * R, n)
            h = 0.25 * 2 * R / n
            sq, grad, prs, cube = [], [], [], []
            for tau in taus:
                u2 = np.sum(dss.U(pts, tau) ** 2, axis=-1)
                du = [(dss.U(pts + e, tau) - dss.U(pts - e, tau)) / (2 * h)
                      for e in h * np.eye(3)]
                p = dss.P(pts, tau) if periodic else np.zeros(len(pts))
                sq.append(np.sum(u2) * w)
                cube.append(np.sum(u2**1.5) * w)
                grad.append(sum(np.sum(d**2) for d in du) * w)
                prs.append(np.sum(np.abs(p) ** 1.5) * w)
            expected["sup_mass"].append(max(sq))
            for name, vals in (("slab_gradsq", grad), ("slab_pressure", prs),
                               ("slab_cubed", cube)):
                expected[name].append(0.4 / n_tau * sum(vals))
        rows = dss_slab_bounds(dss, ladder, m=0.55, n_tau=n_tau,
                               cfg=QuadratureConfig(n_space=n))
        for row in rows:
            assert row.masses == pytest.approx(expected[row.quantity], rel=1e-12,
                                               abs=0.0), row.quantity
        assert all(m > 0 for row in rows for m in row.masses) == periodic

    def test_radius_precondition(self):
        dss = steady_to_discrete(_gaussian_ss(), S0=2.0)
        # exp(2 * 2 / 2.5) = e^1.6 ~ 4.95 > 4
        with pytest.raises(DomainError):
            dss_slab_bounds(dss, [4.0, 8.0], m=0.55)
