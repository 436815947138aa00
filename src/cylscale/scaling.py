"""The viscous and inviscid scaling groups and their machine checks.

The viscous group is v -> lam v(lam y, lam^2 s); the inviscid group
v -> lam^alpha v(lam y, lam^(alpha+1) tau) with alpha > 1 used to zoom into
slow-growth blowup scenarios.  The viscous group is the alpha = 1 member of
the same family, and closed-form profiles rescale to closed-form profiles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import DomainError, GeometryError, _finite
from .exponents import ExponentParams
from .fields import (
    ConstantProfile,
    CylinderSpec,
    GridField,
    PowerLawProfile,
    Profile,
    SelfSimilarProfile,
    SteadyShearProfile,
)
from .quadrature import DEFAULT_CONFIG, QuadratureConfig, centered_times
from .quantities import (
    _check_radius,
    cylinder_gradsq_integral,
    cylinder_power_integral,
    energy_quantities,
    m_quantity,
    sup_weighted_mass,
)

ROOT_TOL = 1e-14


@dataclass(frozen=True)
class ScalingSpec:
    """One scaling transformation: kind 'navier-stokes' or 'euler'.

    ``alpha`` is only read for the inviscid kind. invariance_report refuses
    alpha < 1 with lam < 1 (GeometryError): the shrunk time base would then
    leave the reference cylinder.
    """

    kind: str
    lam: float
    alpha: Optional[float] = None

    def __post_init__(self):
        if self.kind not in ("navier-stokes", "euler"):
            raise DomainError(f"unknown scaling kind {self.kind!r}")
        if not 0 < self.lam < math.inf:
            raise DomainError(f"lam must be positive and finite, got {self.lam}")
        if self.kind == "euler" and not (self.alpha is not None and math.isfinite(self.alpha)):
            raise DomainError(f"euler scaling needs a finite alpha, got {self.alpha}")
        # every power of lam that scales v, t, q or a grid's mu lies within lam**(+-top)
        top = max(2 * abs(self.exponent), abs(self.exponent) + 1)
        _finite(lambda: max(self.lam, 1 / self.lam) ** top,
                lambda: f"lam**(+-{top}) leaves the float range: {self}")

    @property
    def exponent(self) -> float:
        return 1.0 if self.kind == "navier-stokes" else float(self.alpha)


class RescaledProfile(Profile):
    """Generic pullback lam^alpha v(lam y, lam^(alpha+1) tau)."""

    def __init__(self, base: Profile, lam: float, alpha: float):
        self.base = base
        self.lam = lam
        self.alpha = alpha
        self.radial_power = base.radial_power
        self.time_power = base.time_power
        self.steady = base.steady

    def velocity(self, x, t):
        la = self.lam
        return la**self.alpha * self.base.velocity(
            la * np.asarray(x, dtype=float), la ** (self.alpha + 1) * t
        )

    def pressure(self, x, t):
        la = self.lam
        return la ** (2 * self.alpha) * self.base.pressure(
            la * np.asarray(x, dtype=float), la ** (self.alpha + 1) * t
        )


def rescale(profile, spec: ScalingSpec):
    """Apply a scaling transformation, staying in closed form when possible."""
    la = spec.lam
    al = spec.exponent
    if isinstance(profile, ConstantProfile):
        return ConstantProfile(tuple(la**al * np.asarray(profile.c3, dtype=float)))
    if isinstance(profile, PowerLawProfile):
        # speed coefficient picks up lam^(alpha + a + (alpha+1) b); the
        # quadratic pressure closure is preserved with the same coefficient
        shift = al + profile.radial_power + (al + 1) * profile.time_power
        return PowerLawProfile(
            c=_finite(lambda: profile.c * la**shift,
                      lambda: f"rescaled c = {profile.c} * {la}**{shift} overflows"),
            alpha_p=profile.alpha_p,
            gamma_p=profile.gamma_p,
            pressure_coeff=profile.pressure_coeff,
        )
    if isinstance(profile, SteadyShearProfile):
        return SteadyShearProfile(
            amplitude=la**al * profile.amplitude,
            wavenumber=la * profile.wavenumber,
        )
    if isinstance(profile, SelfSimilarProfile) and spec.kind == "euler" \
            and spec.alpha == profile.alpha:
        return profile  # exactly invariant by construction
    if isinstance(profile, GridField):
        return rescale_grid(profile, spec)
    return RescaledProfile(profile, la, al)


def rescale_grid(field: GridField, spec: ScalingSpec) -> GridField:
    """Rescale a sampled field; nodes map to nodes exactly."""
    la = spec.lam
    al = spec.exponent
    cyl = field.cylinder
    new_radius = cyl.radius / la
    new_mu = cyl.mu * la ** (1.0 - al)
    return GridField(
        cylinder=CylinderSpec(radius=new_radius, lam=cyl.lam, mu=new_mu),
        n_space=field.n_space,
        n_time=field.n_time,
        velocity=la**al * field.velocity,
        pressure=la ** (2 * al) * field.pressure,
        radial_power=field.radial_power,
        time_power=field.time_power,
    )


def lambda_for_rk(r_k: float, alpha: float) -> float:
    """Zoom factor with lam**((alpha+1)/2) = r_k."""
    if not 0 < r_k < 1:
        raise DomainError(f"need 0 < r_k < 1, got {r_k}")
    if not 1 <= alpha < math.inf:
        raise DomainError(f"need finite alpha >= 1, got {alpha}")
    lam = r_k ** (2.0 / (alpha + 1.0))
    if abs(lam ** ((alpha + 1.0) / 2.0) - r_k) > ROOT_TOL:
        raise DomainError(f"zoom factor rounds to {lam!r} for r_k={r_k!r}, alpha={alpha!r}")
    return lam


@dataclass(frozen=True)
class InvarianceRow:
    relation: str
    a: float
    lhs: float
    rhs: float
    slack: float
    tolerance: float
    passed: bool


def invariance_report(profile, spec: ScalingSpec, params: ExponentParams,
                      radii: Sequence[float],
                      cfg: QuadratureConfig = DEFAULT_CONFIG,
                      tolerance: float = 1e-9) -> list:
    """Machine check of the scaling laws over a radius ladder.

    Viscous kind: equality rows for A, E, C, D and M between the rescaled
    field at radius a and the original at lam*a, read from the two report
    rows (``energy_quantities``) at those radii.  Inviscid kind: one-sided
    rows (slack = rhs - lhs >= 0) for the Morrey-weighted A, D, E transfer
    plus the mixed-norm zoom lower bound.
    """
    rows = []
    la = spec.lam
    scaled = rescale(profile, spec)
    m = float(params.m)
    m1 = float(params.m1)
    s, l, m0 = float(params.s), float(params.l), float(params.m0)

    if spec.kind == "navier-stokes":
        for a in radii:
            lhs_row = energy_quantities(scaled, a, params, cfg)
            rhs_row = energy_quantities(profile, la * a, params, cfg)
            for name, col in (("A", "A"), ("E", "E"), ("C", "C"), ("D", "D"),
                              ("M", "M_kappa")):
                lhs, rhs = getattr(lhs_row, col), getattr(rhs_row, col)
                slack = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)
                rows.append(InvarianceRow(
                    relation=f"{name}(v^lam,a)={name}(v,lam*a)", a=a, lhs=lhs,
                    rhs=rhs, slack=slack, tolerance=tolerance,
                    passed=slack <= tolerance,
                ))
        return rows

    al = float(spec.alpha)
    if la > 1:
        raise GeometryError("inviscid transfer bounds need lam <= 1")
    # the shrunk time base embeds in Q(lam*a), whatever a, only for alpha >= 1
    if la ** (al - 1.0) > 1 + 1e-12:
        raise GeometryError("scaled time base exceeds the reference cylinder (alpha < 1)")
    for a in radii:
        _check_radius(None, a)  # before (lam*a)**2
        # matched time samples: preimages of the reference samples that land
        # inside the shrunk base, so the discrete sup compares subsets
        t_ref = centered_times((la * a) ** 2, cfg.n_time)
        tau = t_ref / la ** (al + 1.0)
        tau = tau[tau > -(a**2)]
        transfers = (
            ("A_m1", sup_weighted_mass(scaled, a, m1, cfg, times=tau),
             sup_weighted_mass(profile, la * a, m1, cfg, times=t_ref)),
            ("E_m", cylinder_gradsq_integral(scaled, a, m, cfg),
             cylinder_gradsq_integral(profile, la * a, m, cfg)),
            ("D_m", cylinder_power_integral(scaled, "pressure", 1.5, a, 2 * m, cfg),
             cylinder_power_integral(profile, "pressure", 1.5, la * a, 2 * m, cfg)),
        )
        for name, lhs, rhs in transfers:
            rows.append(_one_sided(f"{name}(v^zoom,a)<={name}(v,lam*a)", a, lhs, rhs,
                                   rhs - lhs, tolerance))

    # mixed-norm zoom lower bound at the matched radius
    r_match = la ** ((al + 1.0) / 2.0)
    lhs = m_quantity(scaled, 1.0, s, l, m0, cfg)[1]
    rhs = m_quantity(profile, r_match, s, l, m0, cfg)[1]
    rows.append(_one_sided("M_att(v^zoom,1)>=M_att(v,r_k)", 1.0, lhs, rhs, lhs - rhs,
                           tolerance))
    return rows


def _one_sided(relation: str, a: float, lhs: float, rhs: float, slack: float,
               tolerance: float) -> InvarianceRow:
    scale = max(abs(lhs), abs(rhs), 1.0)
    return InvarianceRow(
        relation=relation, a=a, lhs=lhs, rhs=rhs, slack=slack, tolerance=tolerance,
        passed=slack >= -tolerance * scale,
    )

