"""Acceptance suite: one test per release criterion, tolerances pinned.

Each test states its criterion and tolerance inline; failures here gate a
release.  Property scope (sample counts, ladders, resolutions) matches the
stated budgets.
"""

import hashlib
import json
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from cylscale import (
    ConstantProfile,
    CylinderSpec,
    IterationParams,
    PowerLawProfile,
    QuadratureConfig,
    ScalingSpec,
    SelfSimilarProfile,
    SteadyShearProfile,
    azimuthal_unit,
    closed_form_m_power_law,
    construct_profile_exponents,
    delta_interval,
    derive,
    derive_iteration_params,
    gamma_ceiling,
    interpolation_splits,
    invariance_report,
    iterate_bound,
    lambda_for_rk,
    liouville_verdict,
    local_energy_residual,
    m_quantity,
    pq_of_lambda,
    sample,
    strong_admissibility,
)
from cylscale.cli import main as cli_main
from cylscale.quantities import ExponentialWeighted, GaussianBump


def _interior_triples_rational(count, seed):
    rng = random.Random(seed)
    triples = []
    while len(triples) < count:
        m0 = Fraction(rng.randrange(5, 99), 100)
        a = Fraction(rng.randrange(5, 95), 100)
        lo, hi = delta_interval(m0, a)
        if not lo < hi:
            continue
        t = Fraction(rng.randrange(1, 99), 100)
        triples.append((m0, a, lo + t * (hi - lo)))
    return triples


def _strong_pairs_float(count, seed):
    rng = random.Random(seed)
    pairs = []
    while len(pairs) < count:
        l = rng.uniform(1.6, 5.0)
        lower = 0.5 + max(1.0 / (2 * l), 0.5 - 1.0 / l)
        if lower >= 1:
            continue
        mid = lower + rng.uniform(0.02, 0.98) * (1 - lower)
        inv_s = (mid + 1 - 2.0 / l) / 3.0
        if inv_s <= 0 or inv_s > 1:
            continue
        s = 1.0 / inv_s
        if strong_admissibility(s, l):
            pairs.append((s, l))
    return pairs


def test_criterion_1_exponent_zero_certificate():
    """Profile construction certificate: exactly 0 (rational), <= 1e-10 (float),
    for >= 100 admissible (m0, alpha, delta) triples, under 1 second."""
    triples = _interior_triples_rational(100, seed=20250825)
    t0 = time.perf_counter()
    for m0, a, delta in triples:
        con = construct_profile_exponents(m0, a, delta)
        assert con.exponent_certificate == 0
        conf = construct_profile_exponents(float(m0), float(a), float(delta))
        assert abs(conf.exponent_certificate) <= 1e-10
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"construction of 100 triples took {elapsed:.2f} s"


def test_criterion_2_interpolation_identities():
    """Splitting identities hold to 1e-12 over 1000 admissible samples,
    under 1 second."""
    pairs = _strong_pairs_float(1000, seed=7)
    rng = random.Random(99)
    t0 = time.perf_counter()
    for s, l in pairs:
        splits = {sp.case_tag: sp for sp in interpolation_splits(s, l)}
        sp = splits["AppII"]
        assert sp.applicable
        for lhs, rhs in sp.identities.values():
            assert abs(lhs - rhs) <= 1e-12
        # pair identities of the two interpolating direct-method cases
        s_lo = rng.uniform(3.05, 8.0)
        lo = {x.case_tag: x for x in interpolation_splits(s_lo, rng.uniform(1.0, 2.99))}
        spl = lo["AppIII-l-below-3"]
        assert abs(spl.lambda_i + spl.mu_i - 1) <= 1e-12
        assert abs(s_lo * spl.lambda_i + 2 * spl.mu_i - 3) <= 1e-12
        s_mid = rng.uniform(1.55, 2.95)
        hi = {x.case_tag: x for x in interpolation_splits(s_mid, rng.uniform(3.05, 8.0))}
        sph = hi["AppIII-l-above-3-s-mid"]
        assert abs(sph.lambda_i + sph.gamma_i - 1) <= 1e-12
        assert abs(s_mid * sph.lambda_i + 6 * sph.gamma_i - 3) <= 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"1000 split samples took {elapsed:.2f} s"


def test_criterion_3_pq_family():
    """3/p + 2/q - 1 = 1/2 to 1e-12 for lambda in {0, 0.01, ..., 1}."""
    for k in range(101):
        p, q = pq_of_lambda(k / 100.0)
        assert abs(3.0 / p + 2.0 / q - 1.0 - 0.5) <= 1e-12


def test_criterion_4_m0_lower_bound_cap():
    """The forced lower bound on m0 never exceeds 4/5 (+1e-12) on 1000
    admissible samples."""
    for s, l in _strong_pairs_float(1000, seed=13):
        p = derive(s, l, 0.9)
        assert p.m0_lower_bound is not None
        assert p.m0_lower_bound <= 0.8 + 1e-12


GAMMA_APP1 = float(construct_profile_exponents(Fraction(9, 10), Fraction(1, 2)).gamma)


@pytest.mark.parametrize("lam", [0.25, 0.5, 0.9])
def test_criterion_5_viscous_invariance(lam):
    """A/E/C/D/M equalities under the viscous rescaling: relative error
    <= 1e-9 in closed form and <= 1e-3 on an N=64 grid."""
    params = derive(2.8, 2.8, 0.9)
    for prof in (ConstantProfile((1.0, 0.0, 0.0)),
                 PowerLawProfile(c=1.0, alpha_p=0.5, gamma_p=GAMMA_APP1)):
        rows = invariance_report(prof, ScalingSpec("navier-stokes", lam),
                                 params, [0.5, 1.0], tolerance=1e-9)
        assert rows and all(r.passed for r in rows), [r for r in rows if not r.passed]
    field = sample(PowerLawProfile(c=1.0, alpha_p=0.5, gamma_p=GAMMA_APP1),
                   CylinderSpec(1.0), 64, 8)
    rows = invariance_report(field, ScalingSpec("navier-stokes", lam),
                             params, [0.5 / lam, 1.0 / lam], tolerance=1e-3)
    assert rows and all(r.passed for r in rows), [r for r in rows if not r.passed]


@pytest.mark.parametrize("rk", [0.1, 0.01])
def test_criterion_6_inviscid_transfer_chain(rk):
    """Weighted-quantity transfer inequalities and the mixed-norm zoom lower
    bound hold with slack >= -1e-9 for the constructed singular profile."""
    con = construct_profile_exponents(Fraction(9, 10), Fraction(1, 2))
    params = derive(float(con.s), float(con.l), 0.9)
    prof = PowerLawProfile(c=1.0, alpha_p=0.5, gamma_p=float(con.gamma))
    alpha = float(params.alpha)
    lam = lambda_for_rk(rk, alpha)
    rows = invariance_report(prof, ScalingSpec("euler", lam, alpha=alpha),
                             params, [0.5, 1.0], tolerance=1e-9)
    assert len(rows) == 7
    for row in rows:
        assert row.slack >= -1e-9, row


def test_criterion_7_quadrature_vs_closed_form():
    """Graded-mesh (N=64) attenuated mixed norm within 1% of the closed form
    and radius-independent across R in {1, 1/2, 1/4} within 1%, under 30 s."""
    con = construct_profile_exponents(Fraction(9, 10), Fraction(1, 2))
    s, l, m0 = float(con.s), float(con.l), 0.9
    prof = PowerLawProfile(c=1.0, alpha_p=0.5, gamma_p=float(con.gamma))
    cfg = QuadratureConfig(n_radial=64, radial_rule="graded", time_rule="graded")
    t0 = time.perf_counter()
    want, r_exp = closed_form_m_power_law(1.0, 0.5, float(con.gamma), s, l, m0, 1.0)
    assert abs(r_exp) <= 1e-12
    vals = []
    for R in (1.0, 0.5, 0.25):
        _, got = m_quantity(prof, R, s, l, m0, cfg)
        vals.append(got)
        assert abs(got - want) / want <= 1e-2
    for v in vals[1:]:
        assert abs(v - vals[0]) / vals[0] <= 1e-2
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"quadrature comparison took {elapsed:.2f} s"


def test_criterion_8_iteration_engine():
    """At (m, gamma) = (0.55, 0.5) the trace verdict is converges-to-zero and
    the forcing term is <= 1e-6 by k <= 400 (the profile term's contraction
    0.9860^k needs k ~ 978 to cross 1e-6, so the k <= 400 budget applies to
    the forcing term); the third-case closed form reproduces A(30) = 30*0.5^29
    to 1e-12."""
    params = derive_iteration_params(0.55, 0.5)
    trace = iterate_bound(params, 2.0, 400)
    assert trace.verdict == "converges-to-zero"
    assert trace.forcing_terms[400] <= 1e-6
    assert min(trace.forcing_terms) <= 1e-6
    # the full bound does contract, just more slowly
    assert params.contraction < 1
    long = iterate_bound(params, 2.0, 1000)
    assert long.bounds[1000] <= 1e-6

    third = iterate_bound(IterationParams(theta=0.5, beta=1.0, C_force=1.0), 1.0, 30)
    assert abs(third.forcing_terms[30] - 30 * 0.5**29) <= 1e-12


def test_criterion_9_liouville_verdicts():
    """Reference verdicts, including strictness at the gamma ceiling."""
    assert liouville_verdict(0.45).verdict == "Trivial"
    assert liouville_verdict(0.55, 0.5, evidence=True).verdict == "Trivial"
    assert liouville_verdict(0.55, 0.71).verdict == "Inconclusive"
    boundary = gamma_ceiling(0.1)
    assert boundary == pytest.approx(0.7039076, abs=1e-4)
    assert liouville_verdict(0.55, boundary).verdict == "Inconclusive"


def test_criterion_10_local_energy_identity():
    """Inviscid local energy balance of the steady shear solution closes to
    1e-6 at N=64; the exponential-weight substitution identity holds to 1e-9."""
    shear = SteadyShearProfile(amplitude=1.0, wavenumber=2.0)
    bump = GaussianBump(center=(0.0, 0.0, 0.0), t_center=-0.5,
                        sigma=0.35, sigma_t=0.05)
    cfg = QuadratureConfig(n_space=64)
    _, _, residual = local_energy_residual(shear, bump, -0.4, "euler-limit", cfg)
    assert abs(residual) <= 1e-6

    U = lambda y: np.exp(-np.einsum("...i,...i->...", y, y))[..., None] * azimuthal_unit(y)
    prof = SelfSimilarProfile(alpha=1.4, U=U)
    rate = (3.0 - 2.0 * prof.alpha) / (1.0 + prof.alpha)
    psi = bump
    phi = ExponentialWeighted(psi, rate)
    small = QuadratureConfig(n_space=24)
    l1, r1, d1 = local_energy_residual(prof, psi, -0.4, "selfsimilar", small)
    l2, r2, d2 = local_energy_residual(prof, phi, -0.4, "selfsimilar-weighted", small)
    scale = max(abs(l1), abs(r1), 1e-300)
    assert abs(l1 - l2) / scale <= 1e-9
    assert abs(r1 - r2) / scale <= 1e-9
    assert abs(d1 - d2) / scale <= 1e-9


def test_criterion_11_suite_determinism(tmp_path):
    """Two identical suite runs produce byte-identical artifacts."""
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli_main(["suite", "--out", str(out1)]) == 0
    assert cli_main(["suite", "--out", str(out2)]) == 0
    names = sorted(p.name for p in out1.iterdir())
    assert names == sorted(p.name for p in out2.iterdir())
    assert names
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


#: SHA-256 of each default ``cylscale suite`` artifact.  A change that moves
#: the output on purpose regenerates these with
#:   cylscale suite --out DIR && sha256sum DIR/*
#: and says so in CHANGES.md.
SUITE_SHA256 = {
    "construct.csv":
        "7cb65826abbf1b897cb2826a2f7fd5a9db5f88c990dbf61dabb1307d2fc057f3",
    "construct.json":
        "50ded69d98d367be2e82c7da366a2bb41995979e95708717d40324b84a8b6e91",
    "exponents.csv":
        "06c3e7a141154200a373ed2c3ebd8f91ceee6388291b780294650f855c10654e",
    "exponents.json":
        "15b328d994745dd1e07a8ed60fea9172818a05eaefd0c788ffa638a66f812555",
    "iterate.csv":
        "8f65646e39e720218912386c225f7b6b881e52742f6fdc12072b6993005b9045",
    "iterate.json":
        "51ece8f0b7d0c0690ba005c62c5a34895a90bc9497b4160f12cd1ea50a5743a0",
    "liouville.csv":
        "ed3b84da8001f94437c7a0564a2286c61f51c36e6dca3db9efa60246bf05834a",
    "liouville.json":
        "a1f3ceba2314cd647469e25ea0746dda8c39898dd8081d533164f81ff118eb5e",
    "quantities.csv":
        "c15e721e3a73ffab06562499f8152e0b5919997f6804866f81d18b0697449174",
    "quantities.json":
        "6d8c9cfbbfaa902e51545dc835ffa96a166b9018e049a708c3308ae145e60dd0",
    "scale_check.csv":
        "c9f331062af60b2b3c001fe1cd843a3530c391cdeb27e159bff9f6e06917d31f",
    "scale_check.json":
        "1bfe1b3e979b9290a59427ab25f52208fee522fc4bc8f97cd371c58a3893b88e",
}


def test_criterion_11_suite_bytes_pinned(tmp_path):
    """The default suite writes exactly the pinned artifacts."""
    assert cli_main(["suite", "--out", str(tmp_path)]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(SUITE_SHA256)
    for name, digest in SUITE_SHA256.items():
        got = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        assert got == digest, (
            f"{name} changed (sha256 {got}); if the change is intended, "
            f"regenerate SUITE_SHA256 with `cylscale suite --out DIR && "
            f"sha256sum DIR/*` and record it in CHANGES.md")
