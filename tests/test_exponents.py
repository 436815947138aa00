"""Unit and property tests for the exponent algebra."""

import dataclasses
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cylscale import (
    DegenerateInputError,
    DomainError,
    InfeasibleDeltaError,
    construct_profile_exponents,
    delta_interval,
    derive,
    interpolation_splits,
    pq_of_lambda,
    strong_admissibility,
    weighted_kappa,
)


def rationals(lo, hi, den=200):
    """Strategy for Fractions in (lo, hi) with bounded denominator."""
    lo_n = int(lo * den) + 1
    hi_n = int(hi * den) - 1
    return st.integers(lo_n, hi_n).map(lambda n: Fraction(n, den))


class TestDerive:
    def test_reference_triple(self):
        p = derive(Fraction(28, 10), Fraction(28, 10), Fraction(9, 10))
        assert p.kappa == Fraction(11, 5)
        assert p.q_interp == Fraction(8, 5)
        assert p.alpha == Fraction(301, 279)
        assert abs(float(p.alpha) - 1.0788530) < 1e-7
        assert p.m == 2 - p.alpha
        assert p.m1 == 2 * p.m - 1
        assert p.strong_admissible
        assert abs(float(p.m0_lower_bound) - 0.4727273) < 1e-7

    def test_float_mode_matches_rational(self):
        pf = derive(2.8, 2.8, 0.9)
        pr = derive(Fraction(28, 10), Fraction(28, 10), Fraction(9, 10))
        for name in ("kappa", "q_interp", "alpha", "m", "m1", "gamma_profile"):
            assert getattr(pf, name) == pytest.approx(float(getattr(pr, name)), abs=1e-12)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            derive(0.5, 2.0, 0.9)
        with pytest.raises(DomainError):
            derive(2.0, 2.0, 0.0)
        with pytest.raises(DomainError):
            derive(2.0, 2.0, 1.5)

    @given(rationals(1.0, 40.0, den=97), rationals(1.0, 40.0, den=97),
           rationals(0.001, 1.0, den=97))
    @settings(max_examples=200, deadline=None)
    def test_alpha_denominator_positive_in_domain(self, s, l, m0):
        """The zoom-exponent denominator l(3/s+1) + (m0-1) kappa is provably
        positive for l >= 1 and m0 in (0, 1] (kappa = l(3/s+1) - 2l + 2 <
        l(3/s+1)), so the degenerate-input guard is purely defensive."""
        denom = l * (3 / s + 1) + (m0 - 1) * l * (3 / s + 2 / l - 1)
        assert denom > 0
        derive(s, l, m0)  # never raises DegenerateInputError

    def test_denominator_rounding_to_zero_in_float_mode(self):
        # 2 + (1e-300 - 1) * 2 is 0.0 in binary64, though positive in exact arithmetic
        with pytest.raises(DegenerateInputError, match="alpha undefined"):
            derive(3.0, 1.0, 1e-300)
        assert derive(3, 1, Fraction(1, 10**300)).alpha > 0

    @given(rationals(1.5, 5.0), rationals(1.1, 5.0), rationals(0.05, 0.95))
    @settings(max_examples=100, deadline=None)
    def test_exactness_and_identities(self, s, l, m0):
        try:
            p = derive(s, l, m0)
        except (DomainError, DegenerateInputError):
            return
        # rational in, rational out
        assert isinstance(p.kappa, Fraction) or isinstance(p.kappa, int)
        assert p.kappa == l * (3 / s + 2 / l - 1)
        assert p.m + p.alpha == 2
        assert p.m1 == 2 * p.m - 1
        # alpha formula: solves l(3/s+1)(alpha-1) = (m0-1) kappa (alpha+1) ... check directly
        base = l * (3 / s + 1)
        assert p.alpha * (base + (m0 - 1) * p.kappa) == base - (m0 - 1) * p.kappa

    @given(rationals(1.5, 5.0), rationals(1.1, 5.0))
    @settings(max_examples=100, deadline=None)
    def test_m0_one_gives_alpha_one(self, s, l):
        """With no attenuation the zoom exponent collapses to the viscous case."""
        try:
            p = derive(s, l, Fraction(1))
        except (DomainError, DegenerateInputError):
            return
        assert p.alpha == 1
        assert p.m == 1
        assert p.m1 == 1

    def test_numpy_integers_stay_exact(self):
        p = derive(np.int64(3), np.int64(4), Fraction(9, 10))
        assert p == derive(3, 4, Fraction(9, 10))
        assert isinstance(p.kappa, Fraction) and p.kappa == 2
        assert isinstance(p.alpha, Fraction) and isinstance(p.s, Fraction)


class TestStrongAdmissibility:
    def test_reference_pairs(self):
        assert strong_admissibility(Fraction(28, 10), Fraction(28, 10))
        assert not strong_admissibility(2, 2)  # mid = 3/2 >= 1
        assert not strong_admissibility(6, 6)  # mid = 5/6 but lower = 13/12 > mid

    def test_boundary_is_strict(self):
        # 3/s + 2/l - 1 = 1 exactly at s = 3, l = 2
        assert not strong_admissibility(3, 2)


class TestPQFamily:
    def test_endpoints(self):
        p0, q0 = pq_of_lambda(Fraction(0))
        assert (p0, q0) == (Fraction(10, 3), Fraction(10, 3))
        p1, q1 = pq_of_lambda(Fraction(1))
        assert (p1, q1) == (6, 2)

    @given(rationals(0.001, 0.999))
    @settings(max_examples=100, deadline=None)
    def test_invariant_combination(self, lam):
        p, q = pq_of_lambda(lam)
        assert 3 / p + 2 / q - 1 == Fraction(1, 2)

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            pq_of_lambda(1.5)


class TestConstruction:
    def test_interior_reference(self):
        con = construct_profile_exponents(Fraction(9, 10), Fraction(1, 2))
        lo, hi = con.delta_interval
        assert abs(float(lo) - 1.5584416) < 1e-6
        assert abs(float(hi) - 1.8181818) < 1e-6
        assert con.delta == (lo + hi) / 2
        assert con.exponent_certificate == 0
        assert con.integrable
        assert con.branch == "interior"

    def test_interior_certificate_exact_for_any_admissible_delta(self):
        rng = random.Random(7)
        for _ in range(50):
            m0 = Fraction(rng.randrange(5, 99), 100)
            a = Fraction(rng.randrange(5, 95), 100)
            lo, hi = delta_interval(m0, a)
            if not lo < hi:
                continue
            t = Fraction(rng.randrange(1, 99), 100)
            delta = lo + t * (hi - lo)
            con = construct_profile_exponents(m0, a, delta)
            assert con.exponent_certificate == 0
            assert con.integrable

    def test_interior_certificate_float_mode(self):
        rng = random.Random(11)
        for _ in range(50):
            m0 = rng.uniform(0.05, 0.95)
            a = rng.uniform(0.05, 0.95)
            lo, hi = delta_interval(m0, a)
            if not lo < hi:
                continue
            delta = lo + rng.uniform(0.01, 0.99) * (hi - lo)
            con = construct_profile_exponents(m0, a, delta)
            assert abs(con.exponent_certificate) <= 1e-10

    def test_delta_outside_interval(self):
        lo, hi = delta_interval(Fraction(9, 10), Fraction(1, 2))
        with pytest.raises(DomainError):
            construct_profile_exponents(Fraction(9, 10), Fraction(1, 2), hi + 1)

    def test_alpha0_branch(self):
        con = construct_profile_exponents(Fraction(97, 100), Fraction(0))
        assert con.branch == "alpha0"
        assert con.edge_check  # l * gamma < 2
        assert con.integrable
        with pytest.raises(DomainError):
            construct_profile_exponents(Fraction(9, 10), Fraction(0))

    @pytest.mark.parametrize("m0, a", [(Fraction(24, 25), 0), (Fraction(9, 10), 1)],
                             ids=["alpha0", "alpha1"])
    def test_edge_branch_refuses_delta(self, m0, a):
        with pytest.raises(DomainError, match=r"delta=17/10"):
            construct_profile_exponents(m0, Fraction(a), Fraction(17, 10))

    def test_alpha1_branch(self):
        con = construct_profile_exponents(Fraction(9, 10), Fraction(1))
        assert con.branch == "alpha1"
        assert con.edge_check  # s * gamma < 3
        assert con.integrable
        with pytest.raises(DomainError):
            construct_profile_exponents(Fraction(1, 2), Fraction(1))

    @pytest.mark.parametrize("a, deltas", [
        (0, {"delta2": Fraction(2)}), (1, {"delta1": Fraction(3, 2)}),
        (0, {"delta2": 1}), (0, {"delta1": -1}), (1, {"delta1": 1.0}),
    ], ids=["l-negative", "s-negative", "l-infinite", "s-infinite", "s-infinite-float"])
    def test_edge_branch_refuses_s_or_l_below_one(self, a, deltas):
        # an infinite s or l (1/s or 1/l = 0) used to raise ZeroDivisionError
        with pytest.raises(DomainError, match="s >= 1 and l >= 1"):
            construct_profile_exponents(Fraction(97, 100), a, **deltas)


def _sl_construction(m0, a, s, l):
    """Every construction field from (s, l) themselves, as the construction
    computed them before it carried 1/s and 1/l."""
    mid = 3 / s + 2 / l - 1
    k = l * (3 / s + 2 / l - 1)
    gamma = mid * (1 - m0) + 1
    return {
        "s": s, "l": l, "gamma": gamma, "kappa": k,
        "exponent_certificate":
            -k * m0 + (2 - (1 - a) * gamma * l) + (3 - a * s * gamma) * l / s,
        "integrable": (1 / l > gamma * (1 - a) / 2) and (1 / s > gamma * a / 3),
        "strong_admissible": strong_admissibility(s, l),
        "edge_check": (l * gamma < 2 if a == 0 else s * gamma < 3 if a == 1 else None),
    }


def _sl_interior(m0, a, delta):
    """The interior branch's (s, l) as 1/(1/s) and 1/(1/l)."""
    inv_l = delta * (2 - m0) * (1 - a) / 2
    inv_s = delta * (2 - m0) * a / 3
    return _sl_construction(m0, a, 1 / inv_s, 1 / inv_l)


def _criterion_1_triples():
    """The 100 (m0, alpha, delta) draws of acceptance criterion 1."""
    rng = random.Random(20250825)
    triples = []
    while len(triples) < 100:
        m0 = Fraction(rng.randrange(5, 99), 100)
        a = Fraction(rng.randrange(5, 95), 100)
        lo, hi = delta_interval(m0, a)
        if lo < hi:
            t = Fraction(rng.randrange(1, 99), 100)
            triples.append((m0, a, lo + t * (hi - lo)))
    return triples


class TestConstructionMatchesSLForm:
    """The construction works on 1/s and 1/l; its outputs must be the ones
    the (s, l) formulation gives."""

    def test_rational_draws_equal_as_fractions(self):
        for m0, a, delta in _criterion_1_triples():
            con = construct_profile_exponents(m0, a, delta)
            for name, want in _sl_interior(m0, a, delta).items():
                got = getattr(con, name)
                assert got == want and type(got) is type(want), (m0, a, delta, name)

    @pytest.mark.parametrize("m0, a, d1, d2, s, l", [
        (Fraction(97, 100), 0, Fraction(1, 100), Fraction(1, 100),
         lambda d1: 10 / (3 * (1 + d1)), lambda d2: 20 / (11 * (1 - d2))),
        (Fraction(24, 25), 0, Fraction(1, 50), Fraction(3, 100),
         lambda d1: 10 / (3 * (1 + d1)), lambda d2: 20 / (11 * (1 - d2))),
        (Fraction(9, 10), 1, Fraction(1, 100), Fraction(1, 100),
         lambda d1: 15 / (7 * (1 - d1)), lambda d2: 10 / (3 * (1 + d2))),
        (Fraction(99, 100), 1, Fraction(1, 50), Fraction(3, 100),
         lambda d1: 15 / (7 * (1 - d1)), lambda d2: 10 / (3 * (1 + d2))),
    ], ids=["alpha0", "alpha0-deltas", "alpha1", "alpha1-deltas"])
    def test_edge_branches_equal_as_fractions(self, m0, a, d1, d2, s, l):
        for m0_in in (m0, float(m0)):  # a float m0 keeps s and l rational
            con = construct_profile_exponents(m0_in, Fraction(a), delta1=d1, delta2=d2)
            want = _sl_construction(m0_in, Fraction(a), s(d1), l(d2))
            for name, value in want.items():
                got = getattr(con, name)
                assert got == value and type(got) is type(value), (m0_in, name)

    def test_float_draws_within_a_few_ulps(self):
        # 3*inv_s is not 3/(1/inv_s) in binary64: gamma moves by at most 2 ulps,
        # kappa by at most 5 and the certificate stays ~1e-14 over 6000 draws
        for m0, a, delta in _criterion_1_triples():
            m0, a, delta = float(m0), float(a), float(delta)
            con = construct_profile_exponents(m0, a, delta)
            want = _sl_interior(m0, a, delta)
            for name in ("s", "l", "integrable", "strong_admissible", "edge_check"):
                assert getattr(con, name) == want[name], (m0, a, delta, name)
            for name, ulps in (("gamma", 2), ("kappa", 5)):
                assert abs(getattr(con, name) - want[name]) <= ulps * math.ulp(want[name])
            assert abs(con.exponent_certificate) <= 1e-13

    def test_criterion_1_triples_with_delta_none(self):
        for m0, a, _ in _criterion_1_triples():
            lo, hi = _interval(m0, a)
            _assert_fields(construct_profile_exponents(m0, a),
                           _reference(m0, a, (lo + hi) / 2, "interior", (lo, hi)))

    def test_seeded_interior_draws_equal_as_fractions(self):
        rng = random.Random(1414)
        for i in range(10_000):  # delta given on even draws, None on odd ones
            m0 = Fraction(rng.randrange(1, 1000), 1000)
            den = rng.randrange(2, 1000)
            a = Fraction(rng.randrange(1, den), den)
            lo, hi = _interval(m0, a)
            t = Fraction(rng.randrange(1, 1000), 1000)
            delta = lo + t * (hi - lo) if i % 2 == 0 else None
            want = _reference(m0, a, (lo + hi) / 2 if delta is None else delta,
                              "interior", (lo, hi))
            _assert_fields(construct_profile_exponents(m0, a, delta), want)

    def test_seeded_edge_draws_equal_as_fractions(self):
        # both values of every flag, and 1/s or 1/l outside (0, 1] on both sides
        rng = random.Random(1415)
        seen = set()
        for i in range(4000):
            a = Fraction(i % 2)
            m0 = Fraction(rng.randrange(951 if a == 0 else 801, 1000), 1000)
            d1, d2 = (Fraction(rng.randrange(-130, 260), rng.choice((100, 77, 9)))
                      for _ in range(2))
            inv_s, inv_l = ((3 * (1 + d1) / 10, 11 * (1 - d2) / 20) if a == 0
                            else (7 * (1 - d1) / 15, 3 * (1 + d2) / 10))
            if not (0 < inv_s <= 1 and 0 < inv_l <= 1):
                seen.add(("error", inv_s > 0 and inv_l > 0))
                with pytest.raises(DomainError) as err:
                    construct_profile_exponents(m0, a, delta1=d1, delta2=d2)
                assert str(err.value) == ("require s >= 1 and l >= 1, "
                                          f"got 1/s={inv_s}, 1/l={inv_l}")
                continue
            want = _reference(m0, a, None, f"alpha{a}", None, 1 / inv_s, 1 / inv_l)
            _assert_fields(construct_profile_exponents(m0, a, delta1=d1, delta2=d2), want)
            seen.update((a, name, want[name])
                        for name in ("integrable", "strong_admissible", "edge_check"))
        assert seen == {("error", False), ("error", True)} | {
            (a, name, flag) for a in (0, 1) for flag in (False, True)
            for name in ("integrable", "strong_admissible", "edge_check")}

    @pytest.mark.parametrize("d1, d2, flag", [
        (Fraction(43, 54), Fraction(1, 22), "integrable"),  # l gamma = 2
        (Fraction(-1, 6), Fraction(1, 11), "strong_admissible"),  # mid = 3/4 = lower
    ], ids=["l-gamma-2", "mid-on-lower"])
    def test_flags_false_on_their_boundary(self, d1, d2, flag):
        m0, a = Fraction(97, 100), Fraction(0)
        s, l = 10 / (3 * (1 + d1)), 20 / (11 * (1 - d2))
        want = _reference(m0, a, None, "alpha0", None, s, l)
        assert want[flag] is False
        _assert_fields(construct_profile_exponents(m0, a, delta1=d1, delta2=d2), want)

    @pytest.mark.parametrize("args, fractions", [
        ((Fraction(1, 10), Fraction(1, 2), np.int64(1)),
         (Fraction(1, 10), Fraction(1, 2), Fraction(1))),
        ((Fraction(97, 100), np.int32(0), None, np.int64(1), np.int16(0)),
         (Fraction(97, 100), Fraction(0), None, Fraction(1), Fraction(0))),
        ((Fraction(9, 10), np.uint8(1), None, np.int8(1) - np.int8(1), np.int64(2)),
         (Fraction(9, 10), Fraction(1), None, Fraction(0), Fraction(2))),
    ], ids=["interior", "alpha0", "alpha1"])
    def test_numpy_integers_equal_fractions(self, args, fractions):
        con = construct_profile_exponents(*args)
        want = construct_profile_exponents(*fractions)
        _assert_fields(con, {f.name: getattr(want, f.name)
                             for f in dataclasses.fields(want)})
        m0, a, delta, *deltas = fractions
        if delta is None:  # the edge branches against the (s, l) form
            d1, d2 = deltas
            s, l = ((10 / (3 * (1 + d1)), 20 / (11 * (1 - d2))) if a == 0
                    else (15 / (7 * (1 - d1)), 10 / (3 * (1 + d2))))
            _assert_fields(con, _reference(m0, a, None, f"alpha{a}", None, s, l))
        else:
            _assert_fields(con, _reference(m0, a, delta, "interior", _interval(m0, a)))

    @pytest.mark.parametrize("args, kwargs, cls, message", [
        ((0.9, 1e-17), {}, InfeasibleDeltaError,
         "empty delta interval (1.8181818181818181, 1.8181818181818181) "
         "for m0=0.9, alpha=1e-17"),
        ((Fraction(9, 10), Fraction(1, 2), 2), {}, DomainError,
         "delta=2 outside admissible interval (120/77, 20/11)"),
        ((Fraction(9, 10), Fraction(1, 2), Fraction(20, 11)), {}, DomainError,
         "delta=20/11 outside admissible interval (120/77, 20/11)"),
        ((Fraction(9, 10), Fraction(1, 2), Fraction(120, 77)), {}, DomainError,
         "delta=120/77 outside admissible interval (120/77, 20/11)"),
        ((Fraction(24, 25), 0, Fraction(17, 10)), {}, DomainError,
         "delta=17/10 applies only to 0 < alpha_profile < 1; the alpha=0 branch "
         "uses its closed form with delta1, delta2"),
        ((Fraction(97, 100), 0), {"delta2": 2}, DomainError,
         "require s >= 1 and l >= 1, got 1/s=303/1000, 1/l=-11/20"),
        ((Fraction(9, 10), 1), {"delta1": np.int64(1)}, DomainError,
         "require s >= 1 and l >= 1, got 1/s=0, 1/l=303/1000"),
        ((Fraction(9, 10), Fraction(3, 2)), {}, DomainError,
         "interior branch needs 0 < m0 < 1 and 0 < alpha_profile < 1, "
         "got m0=9/10, alpha_profile=3/2"),
        ((Fraction(9, 10), np.int64(-1)), {}, DomainError,
         "interior branch needs 0 < m0 < 1 and 0 < alpha_profile < 1, "
         "got m0=9/10, alpha_profile=-1"),
        ((Fraction(9, 10), 0), {}, DomainError,
         "alpha=0 branch needs 19/20 < m0 < 1, got m0=9/10"),
        ((Fraction(4, 5), 1), {}, DomainError,
         "alpha=1 branch needs 4/5 < m0 < 1, got m0=4/5"),
        ((1, Fraction(1, 2)), {}, DomainError, "require 0 < m0 < 1, got m0=1"),
    ], ids=["empty-interval", "delta-above", "delta-on-hi", "delta-on-lo",
            "delta-on-edge-branch", "inv-l-negative", "inv-s-zero", "alpha-above-1",
            "alpha-below-0", "alpha0-m0", "alpha1-m0", "m0"])
    def test_error_messages(self, args, kwargs, cls, message):
        with pytest.raises(cls) as err:
            construct_profile_exponents(*args, **kwargs)
        assert type(err.value) is cls and str(err.value) == message


def _interval(m0, a):
    """The interior delta interval, written out apart from delta_interval."""
    return max(6 / (3 + a), 4 / (3 - a)) / (2 - m0), 2 / (2 - m0)


def _reference(m0, a, delta, branch, interval, s=None, l=None):
    """Every ProfileConstruction field; (s, l) from delta on the interior."""
    if s is None:
        inv_l = delta * (2 - m0) * (1 - a) / 2
        inv_s = delta * (2 - m0) * a / 3
        s, l = 1 / inv_s, 1 / inv_l
    return dict(_sl_construction(m0, a, s, l), m0=m0, alpha_profile=a, delta=delta,
                delta_interval=interval, branch=branch)


def _assert_fields(con, want):
    """Equal field by field, with the same types, tuples element-wise."""
    assert {f.name for f in dataclasses.fields(con)} == set(want)
    for name, value in want.items():
        got = getattr(con, name)
        assert got == value and type(got) is type(value), (name, got, value)
        if isinstance(value, tuple):
            assert [type(v) for v in got] == [type(v) for v in value], name


def sample_strong_pair(rng):
    """One (s, l) pair inside the strict strong-admissibility window."""
    while True:
        l = Fraction(rng.randrange(160, 500), 100)
        lower = Fraction(1, 2) + max(Fraction(1, 2 * l.numerator) * l.denominator,
                                     Fraction(1, 2) - 1 / l)
        if lower >= 1:
            continue
        mid = lower + Fraction(rng.randrange(1, 99), 100) * (1 - lower)
        inv_s = (mid + 1 - 2 / l) / 3
        if inv_s <= 0 or inv_s > 1:
            continue
        s = 1 / inv_s
        if strong_admissibility(s, l):
            return s, l


class TestInterpolationSplits:
    def test_strong_split_identities(self):
        rng = random.Random(3)
        for _ in range(50):
            s, l = sample_strong_pair(rng)
            splits = {sp.case_tag: sp for sp in interpolation_splits(s, l)}
            sp = splits["AppII"]
            assert sp.applicable
            for lhs, rhs in sp.identities.values():
                assert lhs == rhs

    def test_low_l_split(self):
        splits = {sp.case_tag: sp for sp in interpolation_splits(Fraction(4), Fraction(2))}
        sp = splits["AppIII-l-below-3"]
        assert sp.applicable
        assert sp.lambda_i + sp.mu_i == 1
        assert 4 * sp.lambda_i + 2 * sp.mu_i == 3

    def test_mid_s_split(self):
        splits = {sp.case_tag: sp for sp in interpolation_splits(Fraction(2), Fraction(4))}
        sp = splits["AppIII-l-above-3-s-mid"]
        assert sp.applicable
        assert sp.lambda_i + sp.gamma_i == 1
        assert 2 * sp.lambda_i + 6 * sp.gamma_i == 3
        assert "three-gamma-below-1" in sp.flags

    def test_direct_cases_are_markers(self):
        splits = {sp.case_tag: sp for sp in interpolation_splits(3, 3)}
        assert splits["AppIII-l3"].applicable
        assert splits["AppIII-l3"].identities is None
        splits = {sp.case_tag: sp for sp in interpolation_splits(4, 5)}
        assert splits["AppIII-l-above-3-s-above-3"].applicable


class TestWeightedKappa:
    @given(st.integers(1, 99))
    @settings(max_examples=60, deadline=None)
    def test_m0_star_interior_on_strong_window(self, n_num):
        n = Fraction(n_num, 100)
        rng = random.Random(n_num)
        s, l = sample_strong_pair(rng)
        wk = weighted_kappa(s, l, n)
        assert wk.kappa_n == n * wk.kappa + wk.q_interp * (1 - n)
        assert wk.m0_star_interior

    def test_endpoints(self):
        wk0 = weighted_kappa(Fraction(28, 10), Fraction(28, 10), Fraction(0))
        assert wk0.kappa_n == wk0.q_interp
        wk1 = weighted_kappa(Fraction(28, 10), Fraction(28, 10), Fraction(1))
        assert wk1.kappa_n == wk1.kappa

    def test_numpy_integers_stay_exact(self):
        wk = weighted_kappa(np.int64(3), np.int32(4), np.int64(1))
        assert wk == weighted_kappa(3, 4, 1)
        assert isinstance(wk.kappa_n, Fraction) and wk.kappa_n == wk.kappa == 2
