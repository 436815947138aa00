"""Iteration-lemma engine, Liouville verdicts and growth-envelope diagnostics.

The iteration lemma bounds F(R) by a contracting profile term plus a forcing
term A(k, theta, R) in one closed form; the Liouville verdicts
combine the exponent window with growth evidence collected on radius
ladders.  Existential constants in sup-bounds are handled by log-log slope
fitting with a fixed slack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DomainError, NonFiniteResultError, _finite
from .fields import DiscreteSelfSimilarProfile, Profile, _norm3
from .quadrature import DEFAULT_CONFIG, FOUR_PI, QuadratureConfig, ball_grid, graded_nodes
from .quantities import _ball_integral, _check_radius, _gradsq_fd

SLOPE_SLACK = 0.05
DEFAULT_LADDER = tuple(float(2**j) for j in range(11))


# ---------------------------------------------------------------------------
# the iteration lemma


@dataclass(frozen=True)
class IterationParams:
    """Contraction/forcing data of the one-step bound
    F(R) <= theta * F(2R) + C / R**beta under growth F(2^k R) <= C (2^k R)**(gamma*m1)."""

    theta: float
    beta: float
    C_force: float = 1.0
    gamma: float = 0.0
    m1: float = 0.0

    def __post_init__(self):
        if not 0 < self.theta < 1:
            raise DomainError(f"theta must lie in (0,1), got {self.theta}")
        if not (math.isfinite(self.beta) and 0 <= self.C_force < math.inf
                and 0 <= self.gamma < math.inf):
            raise DomainError(f"need finite beta and finite C_force, gamma >= 0, got {self}")
        gamma_ceiling(self.m1)  # the one check that m1 is finite and exceeds -2
        # case_tag and forcing_term read 2**beta * theta; `or inf` refuses its underflow to 0
        _finite(lambda: 2.0**self.beta * self.theta or math.inf,
                lambda: f"2**beta * theta leaves the float range at beta={self.beta}")

    @property
    def gamma_max(self) -> float:
        return gamma_ceiling(self.m1)

    @property
    def case_tag(self) -> str:
        x = 2.0**self.beta * self.theta
        if abs(x - 1.0) <= 1e-14:
            return "2^beta*theta=1"
        return "2^beta*theta>1" if x > 1 else "2^beta*theta<1"

    @property
    def contraction(self) -> float:
        """The per-step factor theta * 2**(gamma*m1) of the profile term."""
        return _finite(lambda: self.theta * 2.0 ** (self.gamma * self.m1),
                       lambda: f"contraction 2**(gamma*m1) leaves the float range: {self}")


def gamma_ceiling(m1: float) -> float:
    """Largest growth exponent for which the profile term still contracts."""
    if not -2 < m1 < math.inf:
        raise DomainError(f"m1 must be finite and exceed -2, got {m1}")
    if m1 == 0:
        return 1.0 / (2.0 * math.log(2.0))
    return (math.log(2.0 + m1) - math.log(2.0)) / (m1 * math.log(2.0))


def derive_iteration_params(m: float, gamma: float,
                            C_force: float = 1.0) -> IterationParams:
    """Contraction and forcing exponents from the weighted-quantity window.

    Requires 1/2 < m < 3/5, i.e. 0 < m1 < 1/5 for m1 = 2m - 1.
    """
    if not 0.5 < m < 0.6:
        raise DomainError(f"m must lie in (1/2, 3/5), got {m}")
    if not 0 <= gamma < math.inf:
        raise DomainError(f"gamma must be nonnegative and finite, got {gamma}")
    if not 0 <= C_force < math.inf:
        raise DomainError(f"C_force must be nonnegative and finite, got {C_force}")
    m1 = 2.0 * m - 1.0
    theta = 2.0 / (2.0 + m1)
    beta = 1.25 * (1.0 - 5.0 * m / 3.0)
    return IterationParams(theta=theta, beta=beta, C_force=C_force, gamma=gamma, m1=m1)


def forcing_term(params: IterationParams, R: float, k: int) -> float:
    """A(k, theta, R) = C * theta**(k-1) * R**-beta * sum_{i<k} x**i, x = 1/(2**beta*theta);
    A(0, theta, R) = C * R**-beta.

    The sum is expm1(k L) / expm1(L) with L = ln x, which stays accurate as x
    approaches 1 (and is k at x = 1).
    """
    return _forcing(params, R)(k)


def _forcing(params: IterationParams, R: float):
    """k -> A(k, theta, R); the k-free factors C * R**-beta, L and expm1(L) are computed once."""
    th, be = params.theta, params.beta
    CR, L = params.C_force * R**-be, math.log(1.0 / (2.0**be * th))
    em1 = math.expm1(L)

    def A(k: int) -> float:
        if k <= 0:
            return CR
        if L == 0.0:
            return CR * th ** (k - 1) * k
        if L > 0:
            # theta^(k-1) * x^k = 2^(-beta*k) / theta: x^k alone overflows for large k
            head = 2.0 ** (-be * k) / th * -math.expm1(-k * L)
        else:
            head = th ** (k - 1) * math.expm1(k * L)
        return CR * head / em1
    return A


@dataclass
class IterationTrace:
    ks: list = dc_field(default_factory=list)
    profile_terms: list = dc_field(default_factory=list)
    forcing_terms: list = dc_field(default_factory=list)
    bounds: list = dc_field(default_factory=list)
    case_tag: str = ""
    verdict: str = "inconclusive"


def iterate_bound(params: IterationParams, R: float, k_max: int) -> IterationTrace:
    """k-fold iteration of the one-step bound in closed form.

    Entry k is rho**k * C + A(k, theta, R), rho the contraction; entry k = 0
    is the trivial pre-iteration bound C + C/R**beta.  The verdict is
    "converges-to-zero" exactly when the profile term contracts.
    """
    if not 1 <= R < math.inf:
        raise DomainError(f"need finite R >= 1, got {R}")
    if k_max < 0:
        raise DomainError(f"need k_max >= 0, got {k_max}")
    rho, C, ks = params.contraction, params.C_force, range(k_max + 1)
    try:
        A = _forcing(params, R)
        profile_terms, forcing_terms = [rho**k * C for k in ks], [A(k) for k in ks]
        bounds = [p + a for p, a in zip(profile_terms, forcing_terms)]
    except OverflowError:
        bounds = [math.inf]
    if not all(map(math.isfinite, bounds)):
        raise NonFiniteResultError(f"iteration bounds to k={k_max} at R={R} leave the float "
                                   f"range: {params}")
    return IterationTrace(list(ks), profile_terms, forcing_terms, bounds, params.case_tag,
                          "converges-to-zero" if rho < 1 else "inconclusive")


# ---------------------------------------------------------------------------
# growth envelopes


@dataclass(frozen=True)
class GrowthEnvelope:
    """Normalized masses b**-e * integral over B(b), their sup and trend."""

    exponent: float
    ladder: tuple
    masses: tuple
    running_sup: tuple
    slope: float
    bounded: bool


def _fit_slope(ladder, masses) -> float:
    b = np.asarray(ladder, dtype=float)
    v = np.asarray(masses, dtype=float)
    keep = v > 0
    if keep.sum() < 2:
        return -math.inf
    return float(np.polyfit(np.log(b[keep]), np.log(v[keep]), 1)[0])


def _checked_ladder(ladder, what: str, ball: float = 1.0) -> list:
    """``ladder`` as floats once there are two or more, positive, finite and
    strictly increasing, and each ball * b is a radius _check_radius accepts."""
    ladder = [float(b) for b in ladder]
    if len(ladder) < 2 or not all(0 < b < math.inf for b in ladder):
        raise DomainError(f"need two or more ladder {what}, positive and finite, got {ladder}")
    if any(b2 <= b1 for b1, b2 in zip(ladder, ladder[1:])):
        raise DomainError("ladder must be strictly increasing")
    for b in ladder:
        _check_radius(None, ball * b)
    return ladder


def growth_envelope(u: Callable, exponent: float,
                    ladder: Sequence[float] = DEFAULT_LADDER,
                    radial: bool = False,
                    cfg: QuadratureConfig = DEFAULT_CONFIG) -> GrowthEnvelope:
    """Normalized masses b**-exponent * int_{B(b)} |u|**2 over a ladder.

    ``u`` maps (..., 3) points to vectors or scalar magnitudes, or with
    radial=True maps radii to magnitudes (integrated with the graded radial
    rule).  A fitted log-log slope <= SLOPE_SLACK is the numerical witness
    of sup-boundedness on the ladder.
    """
    ladder = _checked_ladder(ladder, "values")
    masses = []
    for b in ladder:
        weight = _finite(lambda: b**-exponent,
                         lambda: f"ladder radius {b}: {b}**{-exponent} overflows")
        if radial:
            nodes, weights = graded_nodes(b, cfg.n_radial, cfg.graded_levels)
            vals = np.abs(np.asarray(u(nodes), dtype=float))
            raw = FOUR_PI * float(np.sum(weights * nodes**2 * vals**2.0))
        else:
            pts, w = ball_grid(b, cfg.n_space)
            vals = np.asarray(u(pts), dtype=float)
            if vals.ndim == pts.ndim:
                vals = _norm3(vals)
            raw = float(np.sum(np.abs(vals) ** 2.0)) * w
        masses.append(weight * raw)
        if not math.isfinite(masses[-1]):
            raise NonFiniteResultError(f"growth envelope mass {masses[-1]} at ladder radius {b}")
    sup = np.maximum.accumulate(masses)
    slope = _fit_slope(ladder, masses)
    return GrowthEnvelope(
        exponent=exponent, ladder=tuple(ladder), masses=tuple(masses),
        running_sup=tuple(float(s) for s in sup), slope=slope,
        bounded=slope <= SLOPE_SLACK,
    )


# ---------------------------------------------------------------------------
# Liouville verdicts

TRIVIAL = "Trivial"
OUT_OF_SCOPE = "OutOfScope"
INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class LiouvilleVerdict:
    verdict: str
    checklist: dict


def liouville_verdict(m: float, gamma: Optional[float] = None,
                      evidence=None) -> LiouvilleVerdict:
    """Triviality verdict for a (discrete) self-similar profile.

    Trivial when m < 1/2, or when 1/2 < m < 3/5, gamma is below the
    contraction ceiling and the supplied growth evidence is bounded on its
    ladder.  OutOfScope when the window fails; Inconclusive when the window
    holds but either gamma reaches the ceiling (strict) or the evidence is
    missing/unbounded.  The verdict is conditional on finite-ladder
    evidence, which the checklist records.
    """
    m1 = 2.0 * m - 1.0
    if not -math.inf < m1 < math.inf:
        raise DomainError(f"m1 = 2m - 1 must be finite, got {m1} at m={m}")
    if gamma is not None and not 0 <= gamma < math.inf:
        raise DomainError(f"gamma must be nonnegative and finite, got {gamma}")
    checklist = {
        "profile_kind": "selfsimilar",
        "m": m,
        "m1": m1,
        "m1_negative": m1 < 0,
        "window_half_to_three_fifths": 0.5 < m < 0.6,
        "gamma": gamma,
        "gamma_max": None,
        "gamma_below_max": None,
        "evidence_supplied": evidence is not None,
        "evidence_bounded": None,
        "evidence_note": "boundedness judged on the tested ladder only",
    }
    if m1 < 0:
        return LiouvilleVerdict(TRIVIAL, checklist)
    if not 0.5 < m < 0.6:
        return LiouvilleVerdict(OUT_OF_SCOPE, checklist)
    if gamma is None:
        return LiouvilleVerdict(OUT_OF_SCOPE, checklist)
    gmax = gamma_ceiling(m1)
    checklist["gamma_max"] = gmax
    checklist["gamma_below_max"] = gamma < gmax
    if not gamma < gmax:
        return LiouvilleVerdict(INCONCLUSIVE, checklist)
    bounded = _evidence_bounded(evidence)
    checklist["evidence_bounded"] = bounded
    if bounded:
        return LiouvilleVerdict(TRIVIAL, checklist)
    return LiouvilleVerdict(INCONCLUSIVE, checklist)


def _evidence_bounded(evidence) -> bool:
    if evidence is None:
        return False
    if isinstance(evidence, bool):
        return evidence
    if isinstance(evidence, GrowthEnvelope):
        return evidence.bounded
    if isinstance(evidence, (str, bytes)):
        # a one-character string iterates to itself, without end
        raise DomainError(f"evidence must be a bool, a GrowthEnvelope or an "
                          f"iterable of them, got {evidence!r}")
    try:
        items = list(evidence)
    except TypeError:
        return False
    return len(items) > 0 and all(_evidence_bounded(e) for e in items)


# ---------------------------------------------------------------------------
# discrete self-similar time-slab bounds


@dataclass(frozen=True)
class SlabBoundRow:
    quantity: str
    target_exponent: float
    fitted_slope: float
    masses: tuple
    passed: bool


#: each slab row and the moment key of its integrand
_SLAB_MOMENTS = {"sup_mass": ("speed", 2.0), "slab_gradsq": ("gradsq",),
                 "slab_pressure": ("pressure", 1.5), "slab_cubed": ("speed", 3.0)}


@dataclass(frozen=True)
class _FixedTau(Profile):
    """A discrete self-similar profile at one log-time tau, as a steady field
    of the similarity variable y; |grad U|^2 is a central difference of step h."""

    profile: DiscreteSelfSimilarProfile
    tau: float
    h: float

    def velocity(self, y, t):
        return np.asarray(self.profile.U(y, self.tau), dtype=float)

    def pressure(self, y, t):
        if self.profile.P is None:
            return super().pressure(y, t)
        return np.asarray(self.profile.P(y, self.tau), dtype=float)

    def grad_norm_sq(self, y, t):
        return _gradsq_fd(self, y, t, self.h)


def dss_slab_bounds(profile: DiscreteSelfSimilarProfile,
                    ladder: Sequence[float], m: float = 0.55, n_tau: int = 8,
                    cfg: QuadratureConfig = DEFAULT_CONFIG) -> list:
    """Slope checks of the four time-slab growth bounds on an R ladder.

    For each R the masses are sup_tau int_{B(2R)} |U|^2 and the slab
    integrals over (0, S0) of |grad U|^2, |P|^{3/2} and |U|^3; a bound
    <= C * R**e passes iff the fitted log-log slope is <= e + SLOPE_SLACK.
    """
    S0 = profile.S0
    alpha = profile.alpha
    m1 = 2.0 * m - 1.0
    if not n_tau >= 1:
        raise DomainError(f"need n_tau >= 1, got {n_tau}")
    ladder = _checked_ladder(ladder, "radii", 2.0)  # the masses are over B(2R)
    r_min = math.exp(2.0 * S0 / (1.0 + alpha))
    if min(ladder) <= r_min:
        raise DomainError(
            f"every ladder radius must exceed exp(2 S0/(1+alpha)) = {r_min:.6g}"
        )
    taus = S0 * (np.arange(n_tau) + 0.5) / n_tau
    dtau = S0 / n_tau

    masses = []  # per R: the sup over tau, then the three slab integrals
    for R in ladder:
        h = 0.25 * 2.0 * R / cfg.n_space  # an eighth of a B(2R) cell
        per_tau = []
        for tau in taus:
            view, cells = _FixedTau(profile, tau, h), {}  # |U|^2, |U|^3 share one U
            per_tau.append([_ball_integral(view, key, 2.0 * R, -1.0, cfg, cells)
                         for key in _SLAB_MOMENTS.values()])
        sq, *slabs = zip(*per_tau)
        masses.append([max(sq)] + [sum(dtau * v for v in slab) for slab in slabs])

    rows = []
    targets = (m1, m, 2.0 * m, 0.75 * (m + m1))
    for name, target, col in zip(_SLAB_MOMENTS, targets, zip(*masses)):
        slope = _fit_slope(ladder, col)
        rows.append(SlabBoundRow(
            quantity=name, target_exponent=target, fitted_slope=slope,
            masses=col, passed=slope <= target + SLOPE_SLACK,
        ))
    return rows
