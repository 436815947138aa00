"""Exponent algebra for scaled energy quantities on parabolic cylinders.

Everything here is pure arithmetic on the Lebesgue pair (s, l) and the growth
attenuation exponent m0.  When every input is rational (an int, a numpy
integer or a `fractions.Fraction`), every derived exponent and identity
certificate is exact; with any float among them the identities hold to
`IDENTITY_TOL`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from typing import Optional, Union

from .errors import DegenerateInputError, DomainError, InfeasibleDeltaError, NonFiniteResultError

Number = Union[int, float, Fraction]

#: tolerance for identity certificates evaluated in binary64
IDENTITY_TOL = 1e-12

_HALF = Fraction(1, 2)


def _exact(*values):
    """The one exact-mode rule: ``values`` as Fractions when all are rational
    (None skipped), else unchanged.  Constants are written as Fractions; with a
    float they give the same float as the binary64 constant would."""
    if all(v is None or isinstance(v, Fraction) or isinstance(v, Rational)
           for v in values):
        return tuple(v if v is None or isinstance(v, Fraction)
                     else Fraction(int(v.numerator), int(v.denominator))
                     for v in values)
    return values


def _pair(s: Number, l: Number, *rest):
    """``_exact(s, l, *rest)`` once s >= 1 and l >= 1 are checked finite."""
    if not (1 <= s < math.inf and 1 <= l < math.inf):
        raise DomainError(f"require finite s >= 1 and l >= 1, got s={s}, l={l}")
    return _exact(s, l, *rest)


@dataclass(frozen=True)
class ExponentParams:
    """The (s, l, m0) triple together with every derived exponent.

    ``kappa`` is the weight of the mixed-norm quantity, ``q_interp`` the
    interpolation exponent 2l(3/s + 2/l - 3/2), ``alpha`` the inviscid zoom
    exponent, ``m = 2 - alpha`` the Morrey weight and ``m1 = 2m - 1``.
    ``gamma_profile`` is the power attached to the candidate singular profile.
    """

    s: Number
    l: Number
    m0: Number
    kappa: Number
    q_interp: Number
    alpha: Number
    m: Number
    m1: Number
    gamma_profile: Number
    #: strict strong admissibility window for (s, l)
    strong_admissible: bool
    #: weak admissibility, l > kappa
    weak_admissible: bool
    #: l > kappa > 0
    positive_window: bool
    #: alpha > 1 and m1 < m < 1 (the blowup-scenario ordering)
    scenario_ordered: bool
    #: lower bound forced on m0 by m >= 1/2; None when kappa <= 0
    m0_lower_bound: Optional[Number] = None


def kappa(s: Number, l: Number) -> Number:
    """The mixed-norm weight kappa = l (3/s + 2/l - 1)."""
    return l * (3 / s + 2 / l - 1)


def q_interp(s: Number, l: Number) -> Number:
    """The interpolation exponent q = 2l (3/s + 2/l - 1 - 1/2)."""
    return 2 * l * (3 / s + 2 / l - 1 - Fraction(1, 2))


def strong_admissibility(s: Number, l: Number) -> bool:
    """Strict window 1 > 3/s + 2/l - 1 > 1/2 + max(1/(2l), 1/2 - 1/l)."""
    s, l = _pair(s, l)
    mid = 3 / s + 2 / l - 1
    lower = _HALF + max(1 / (2 * l), _HALF - 1 / l)
    return lower < mid < 1


def derive(s: Number, l: Number, m0: Number) -> ExponentParams:
    """Derive every exponent attached to the triple (s, l, m0).

    Raises
    ------
    DomainError
        if s < 1, l < 1 or m0 outside (0, 1].
    DegenerateInputError
        if the denominator of the zoom exponent alpha vanishes.
    """
    s, l, m0 = _pair(s, l, m0)
    if not 0 < m0 <= 1:
        raise DomainError(f"require 0 < m0 <= 1, got m0={m0}")

    mid = 3 / s + 2 / l - 1  # the quantity the admissibility window bounds
    k = kappa(s, l)

    base = l * (3 / s + 1)
    denom = base + (m0 - 1) * k
    if denom == 0:
        raise DegenerateInputError(
            f"alpha undefined: l*(3/s + 1) + (m0 - 1)*kappa = 0 for s={s}, l={l}, m0={m0}"
        )
    alpha = (base - (m0 - 1) * k) / denom
    m = 2 - alpha
    m1 = 2 * m - 1
    gamma_profile = mid * (1 - m0) + 1

    strong = strong_admissibility(s, l)
    weak = l > k
    window = l > k > 0
    ordered = alpha > 1 and m1 < m < 1

    m0_bound = None
    if k > 0:
        m0_bound = 2 * (6 / s + 5 / l - 3) / (5 * mid)
    q = q_interp(s, l)
    if isinstance(alpha, float) and not all(map(math.isfinite, (k, q, alpha, m1, gamma_profile))):
        raise NonFiniteResultError(f"exponents of s={s}, l={l}, m0={m0} leave the float range")

    return ExponentParams(
        s=s,
        l=l,
        m0=m0,
        kappa=k,
        q_interp=q,
        alpha=alpha,
        m=m,
        m1=m1,
        gamma_profile=gamma_profile,
        strong_admissible=strong,
        weak_admissible=weak,
        positive_window=window,
        scenario_ordered=ordered,
        m0_lower_bound=m0_bound,
    )


def pq_of_lambda(lambda_p: Number):
    """The one-parameter exponent family with 3/p + 2/q - 1 = 1/2 identically.

    1/p = lambda/6 + 3(1-lambda)/10 and 1/q = lambda/2 + 3(1-lambda)/10
    for lambda in [0, 1].
    """
    if not 0 <= lambda_p <= 1:
        raise DomainError(f"require 0 <= lambda <= 1, got {lambda_p}")
    (lam,) = _exact(lambda_p)
    inv_p = lam / 6 + 3 * (1 - lam) / 10
    inv_q = lam / 2 + 3 * (1 - lam) / 10
    return 1 / inv_p, 1 / inv_q


@dataclass(frozen=True)
class ProfileConstruction:
    """Output of the singular-profile exponent construction.

    ``exponent_certificate`` is the closed-form radius exponent of the
    attenuated mixed norm of the power-law profile; in the interior branch it
    cancels to zero (exactly so in rational mode).
    """

    m0: Number
    alpha_profile: Number
    delta: Optional[Number]
    delta_interval: Optional[tuple]
    s: Number
    l: Number
    gamma: Number
    kappa: Number
    exponent_certificate: Number
    #: 1/l > gamma*(1-alpha)/2 and 1/s > gamma*alpha/3 (integrability)
    integrable: bool
    strong_admissible: bool
    branch: str
    #: edge-branch closure checks: l*gamma < 2 (alpha=0) or s*gamma < 3 (alpha=1)
    edge_check: Optional[bool] = None


def delta_interval(m0: Number, alpha_profile: Number):
    """Admissible open interval for delta in the interior construction."""
    if not (0 < m0 < 1 and 0 < alpha_profile < 1):
        raise DomainError("interior branch needs 0 < m0 < 1 and 0 < alpha_profile < 1, "
                          f"got m0={m0}, alpha_profile={alpha_profile}")
    m0, a = _exact(m0, alpha_profile)
    width = 2 - m0
    return max(6 / (3 + a), 4 / (3 - a)) / width, 2 / width


def construct_profile_exponents(
    m0: Number,
    alpha_profile: Number,
    delta: Optional[Number] = None,
    delta1: Number = Fraction(1, 100),
    delta2: Number = Fraction(1, 100),
) -> ProfileConstruction:
    """Build (s, l, gamma) making the attenuated mixed norm of the power-law
    profile radius-independent.

    For 0 < alpha_profile < 1 the construction picks (or validates) delta with
    max(6/(3+alpha), 4/(3-alpha)) < delta*(2-m0) < 2 and sets
    1/l = delta*(2-m0)*(1-alpha)/2, 1/s = delta*(2-m0)*alpha/3.  The edge
    branches alpha_profile in {0, 1} instead use fixed closed forms with small
    perturbations delta1, delta2.
    """
    if not 0 < m0 < 1:
        raise DomainError(f"require 0 < m0 < 1, got m0={m0}")
    values = _exact(m0, alpha_profile, delta, delta1, delta2)
    m0, a, delta, d1, d2 = values
    branch = "alpha0" if a == 0 else "alpha1" if a == 1 else "interior"
    if delta is not None and branch != "interior":
        raise DomainError(f"delta={delta} applies only to 0 < alpha_profile < 1; the "
                          f"alpha={a} branch uses its closed form with delta1, delta2")
    if branch == "alpha0" and not Fraction(19, 20) < m0 < 1:
        raise DomainError(f"alpha=0 branch needs 19/20 < m0 < 1, got m0={m0}")
    if branch == "alpha1" and not Fraction(4, 5) < m0 < 1:
        raise DomainError(f"alpha=1 branch needs 4/5 < m0 < 1, got m0={m0}")
    if branch == "alpha0":
        # s = 10/(3(1 + d1)), l = 20/(11(1 - d2))
        return _finish_construction(m0, a, None, None, 3 * (1 + d1) / 10,
                                    11 * (1 - d2) / 20, branch)
    if branch == "alpha1":
        # s = 15/(7(1 - d1)), l = 10/(3(1 + d2))
        return _finish_construction(m0, a, None, None, 7 * (1 - d1) / 15,
                                    3 * (1 + d2) / 10, branch)
    if all(v is None or isinstance(v, Fraction) for v in values):  # rational mode
        return _construct_on_pairs(m0, a, delta)

    lo, hi = delta_interval(m0, a)  # which refuses alpha outside (0, 1)
    if not lo < hi:
        raise InfeasibleDeltaError(
            f"empty delta interval ({lo}, {hi}) for m0={m0}, alpha={alpha_profile}"
        )
    if delta is None:
        delta = (lo + hi) / 2
    elif not lo < delta < hi:
        raise DomainError(f"delta={delta} outside admissible interval ({lo}, {hi})")
    scale = delta * (2 - m0)
    return _finish_construction(m0, a, delta, (lo, hi), scale * a / 3, scale * (1 - a) / 2,
                                branch)


def _construct_on_pairs(m0, a, delta):
    """The interior construction for Fraction inputs, on Python-int
    (numerator, denominator) pairs with positive denominators.

    Sums, products, quotients and comparisons are cross-multiplications, and
    each output is reduced once, by ``Fraction(n, d)``; outputs and errors are
    the ones the Fraction formulas of ``_finish_construction`` give.
    """
    mn, md = m0.numerator, m0.denominator
    an, ad = a.numerator, a.denominator
    if not 0 < an < ad:
        delta_interval(m0, a)  # raises its DomainError for alpha outside (0, 1)
    # delta_interval's lo = max(6/(3 + a), 4/(3 - a))/(2 - m0) and
    # hi = 2/(2 - m0), with 2 - m0 = w/md; lo < hi holds for every 0 < a < 1
    w = 2 * md - mn
    if 6 * (3 * ad - an) >= 4 * (3 * ad + an):
        lo_n, lo_d = 6 * ad * md, (3 * ad + an) * w
    else:
        lo_n, lo_d = 4 * ad * md, (3 * ad - an) * w
    hi_n, hi_d = 2 * md, w
    interval = (Fraction(lo_n, lo_d), Fraction(hi_n, hi_d))
    if delta is None:  # the midpoint
        dn, dd = lo_n * hi_d + hi_n * lo_d, 2 * lo_d * hi_d
        delta = Fraction(dn, dd)
    else:
        dn, dd = delta.numerator, delta.denominator
        if not (lo_n * dd < dn * lo_d and dn * hi_d < hi_n * dd):
            raise DomainError(f"delta={delta} outside admissible interval "
                              f"({interval[0]}, {interval[1]})")
    # delta (2 - m0) = dn w/(dd md); 1/s is a/3 and 1/l (1 - a)/2 of it
    sn, sd = dn * w * an, 3 * dd * md * ad
    ln, ld = dn * w * (ad - an), 2 * dd * md * ad
    # so 0 < 1/s < 2/3 and 0 < 1/l < 1, as 0 < delta (2 - m0) < 2 and 0 < a < 1
    ud = sd * ld
    un = 3 * sn * ld + 2 * ln * sd - ud  # mid = 3/s + 2/l - 1 = un/ud; kappa = un/(sd ln)
    gn, gd = un * (md - mn) + ud * md, ud * md  # gamma = mid (1 - m0) + 1
    tn, td = (ad - an) * gn, ad * gd  # time_gamma = (1 - a) gamma
    c2 = 2 * td * ln - tn * ld  # 2 - time_gamma l = c2/(td ln)
    c3 = 3 * td * sn - an * sd * gn  # 3 - a s gamma = c3/(td sn)
    # -kappa m0 + (2 - time_gamma l) + (3 - a s gamma) l/s over td ln sd md
    cert_n = -un * mn * td + c2 * sd * md + c3 * ld * md
    return ProfileConstruction(
        m0=m0,
        alpha_profile=a,
        delta=delta,
        delta_interval=interval,
        s=Fraction(sd, sn),
        l=Fraction(ld, ln),
        gamma=Fraction(gn, gd),
        kappa=Fraction(un, sd * ln),
        exponent_certificate=Fraction(cert_n, td * ln * sd * md),
        integrable=c2 > 0 and c3 > 0,  # 1/l > time_gamma/2 and 1/s > gamma a/3
        # strong_admissibility(s, l): 1/2 + max(1/(2l), 1/2 - 1/l) < mid < 1
        strong_admissible=(ld + max(ln, ld - 2 * ln)) * sd < 2 * un < 2 * ud,
        branch="interior",
    )


def _radius_exponent(k, m0, a, gamma, s, l):
    """Exponent of R in the attenuated mixed norm of the power-law profile of
    speed exponents (a, gamma), k = kappa(s, l); a construction makes it zero."""
    return -k * m0 + (2 - (1 - a) * gamma * l) + (3 - a * s * gamma) * l / s


def _finish_construction(m0, a, delta, interval, inv_s, inv_l, branch):
    # written on 1/s and 1/l, whose rational denominators stay small
    if not (0 < inv_s <= 1 and 0 < inv_l <= 1):
        raise DomainError(f"require s >= 1 and l >= 1, got 1/s={inv_s}, 1/l={inv_l}")
    s, l = 1 / inv_s, 1 / inv_l
    mid = 3 * inv_s + 2 * inv_l - 1
    k = mid / inv_l  # kappa(s, l)
    gamma = mid * (1 - m0) + 1
    time_gamma = (1 - a) * gamma  # the profile's time exponent is -time_gamma/2
    integrable = inv_l > time_gamma / 2 and inv_s > gamma * a / 3
    strong = _HALF + max(inv_l / 2, _HALF - inv_l) < mid < 1  # strong_admissibility(s, l)
    edge_check = None
    if branch == "alpha0":
        edge_check = l * gamma < 2
    elif branch == "alpha1":
        edge_check = s * gamma < 3
    return ProfileConstruction(
        m0=m0,
        alpha_profile=a,
        delta=delta,
        delta_interval=interval,
        s=s,
        l=l,
        gamma=gamma,
        kappa=k,
        exponent_certificate=_radius_exponent(k, m0, a, gamma, s, l),
        integrable=integrable,
        strong_admissible=strong,
        branch=branch,
        edge_check=edge_check,
    )


@dataclass(frozen=True)
class InterpolationSplit:
    """One interpolation splitting of the cubic term, with its identities.

    ``identities`` maps a label to an (lhs, rhs) pair that must agree exactly
    (rational mode) or to IDENTITY_TOL (float mode).  Non-applicable cases are
    returned as markers with ``applicable=False``.
    """

    case_tag: str
    applicable: bool
    lambda_i: Optional[Number] = None
    mu_i: Optional[Number] = None
    gamma_i: Optional[Number] = None
    q_dual: Optional[tuple] = None
    identities: Optional[dict] = None
    flags: Optional[dict] = None


def interpolation_splits(s: Number, l: Number) -> list:
    """All interpolation splittings attached to the pair (s, l).

    Emits one entry per case tag; the ones whose preconditions fail are
    markers, not errors.
    """
    s, l = _pair(s, l)
    splits = []

    # three-factor Hoelder/Gagliardo-Nirenberg split, valid on the strong window
    q = q_interp(s, l)
    if strong_admissibility(s, l):
        lam = (l / q) * (1 / s)
        gam = (l / q) * (2 / s + 1 / l - 1)
        mu = (l / q) * (3 / s + 3 / l - 2)
        qp = q / (q - 1)
        splits.append(
            InterpolationSplit(
                case_tag="AppII",
                applicable=True,
                lambda_i=lam,
                mu_i=mu,
                gamma_i=gam,
                q_dual=(q, qp),
                identities={
                    "sum": (lam + mu + gam, 1),
                    "moment": (s * lam + 2 * mu + 6 * gam, 3),
                    "dual-weight": (3 * gam * qp, 1),
                },
            )
        )
    else:
        splits.append(InterpolationSplit(case_tag="AppII", applicable=False))

    # direct case l = 3, s >= 3: no interpolation exponents needed
    splits.append(
        InterpolationSplit(case_tag="AppIII-l3", applicable=(l == 3 and s >= 3))
    )

    # 1 <= l < 3 requires s > 3: two-factor split between |v|^s and |v|^2
    if l < 3 and s > 3:
        lam = 1 / (s - 2)
        mu = (s - 3) / (s - 2)
        splits.append(
            InterpolationSplit(
                case_tag="AppIII-l-below-3",
                applicable=True,
                lambda_i=lam,
                mu_i=mu,
                q_dual=(l / (lam * s), None),
                identities={
                    "sum": (lam + mu, 1),
                    "moment": (s * lam + 2 * mu, 3),
                },
            )
        )
    else:
        splits.append(InterpolationSplit(case_tag="AppIII-l-below-3", applicable=False))

    # l > 3 with s >= 3: direct again
    splits.append(
        InterpolationSplit(
            case_tag="AppIII-l-above-3-s-above-3", applicable=(l > 3 and s >= 3)
        )
    )

    # l > 3 with 3/2 < s < 3: split between |v|^s and |v|^6
    if l > 3 and Fraction(3, 2) < s < 3:
        lam = 3 / (6 - s)
        gam = (3 - s) / (6 - s)
        q_here = l / (lam * s)
        qp = q_here / (q_here - 1)
        splits.append(
            InterpolationSplit(
                case_tag="AppIII-l-above-3-s-mid",
                applicable=True,
                lambda_i=lam,
                gamma_i=gam,
                q_dual=(q_here, qp),
                identities={
                    "sum": (lam + gam, 1),
                    "moment": (s * lam + 6 * gam, 3),
                },
                flags={
                    "three-gamma-below-1": 3 * gam < 1,
                    "dual-weight-le-1": 3 * gam * qp <= 1,
                },
            )
        )
    else:
        splits.append(
            InterpolationSplit(case_tag="AppIII-l-above-3-s-mid", applicable=False)
        )
    return splits


@dataclass(frozen=True)
class WeightedKappa:
    """kappa_n = n*kappa + q*(1-n) and the attenuation it corresponds to."""

    n: Number
    kappa: Number
    q_interp: Number
    kappa_n: Number
    #: m0* with kappa * m0* = kappa_n; None when kappa <= 0
    m0_star: Optional[Number]
    #: m0* strictly inside (0, 1)
    m0_star_interior: Optional[bool]


def weighted_kappa(s: Number, l: Number, n: Number) -> WeightedKappa:
    """Interpolated weight between the mixed-norm exponents kappa and q."""
    if not -math.inf < n < math.inf:
        raise DomainError(f"n must be finite, got {n}")
    s, l, n = _pair(s, l, n)
    k = kappa(s, l)
    q = q_interp(s, l)
    kappa_n = n * k + q * (1 - n)
    m0_star = None
    interior = None
    if k > 0:
        m0_star = kappa_n / k
        interior = 0 < m0_star < 1
    if isinstance(kappa_n, float) and not all(
            math.isfinite(v) for v in (kappa_n, m0_star) if v is not None):
        raise NonFiniteResultError(f"kappa_n of s={s}, l={l}, n={n} leaves the float range")
    return WeightedKappa(
        n=n, kappa=k, q_interp=q, kappa_n=kappa_n,
        m0_star=m0_star, m0_star_interior=interior,
    )
