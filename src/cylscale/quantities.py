"""Scaled energy quantities over parabolic cylinders.

All quantities are evaluated either from closed forms (separable power-law
profiles with exact radial/time weights), from Cartesian cell sums for
analytic profiles without radial symmetry, or from a GridField's own cells.
Cell grids at different radii correspond exactly under spatial scaling, so
scaling identities survive discretization to rounding.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field as dc_field
from typing import Optional, Sequence

import numpy as np

from .errors import (
    DomainError,
    NonFiniteResultError,
    RadiusError,
    ResolutionError,
    SupportError,
    _finite,
)
from .exponents import ExponentParams, _radius_exponent, kappa
from .fields import GridField, PowerLawProfile, Profile, SelfSimilarProfile, _dot3, _lattice
from .quadrature import (
    DEFAULT_CONFIG,
    FOUR_PI,
    QuadratureConfig,
    _cell_volume,
    _gauss_legendre_on,
    _unit_ball_classes,
    ball_grid,
    centered_times,
    gauss_legendre,
    graded_nodes,
    power_radial_integral,
    power_time_integral,
)


# ---------------------------------------------------------------------------
# ball integrals at fixed time, keyed by moment
#
# A moment key names the integrand: ("speed", p) for |v|^p, ("pressure", p)
# for |q|^p and ("gradsq",) for |grad v|^2.  GridFields cache their prefix
# sums under the same keys.


def _ball_integral(profile: Profile, key, r: float, t: float,
                   cfg: QuadratureConfig, cells: Optional[dict] = None) -> float:
    """int_{B(r)} of the moment ``key`` at fixed t for an analytic profile.

    Separable |v|^p and |q|^p integrate radially, exactly or on the graded
    rule; everything else is a Cartesian cell sum.  Calls at one (r, t) that
    share a ``cells`` dict evaluate |v|, |q| or |grad v|^2 there once.
    """
    kind = key[0]
    if profile.separable and kind != "gradsq":
        p, coef, a, b = key[1], profile.coef, profile.radial_power, profile.time_power
        if kind == "pressure":
            # a zero pressure_coeff gives zero moments, whatever c**2 does
            coef = profile.pressure_coeff and _finite(
                lambda: abs(profile.pressure_coeff) * coef**2,
                lambda: f"pressure moments overflow: c**2 at c={coef}")
            a, b = 2 * a, 2 * b
        if coef == 0.0:
            return 0.0
        if cfg.radial_rule == "exact":
            radial = power_radial_integral(a * p, r)
        else:
            nodes, weights = graded_nodes(r, cfg.n_radial, cfg.graded_levels)
            radial = float(np.sum(weights * nodes ** (2 + a * p)))
        try:  # inline, not _finite: this is the analytic routes' hottest call
            value = FOUR_PI * coef**p * radial * (-t) ** (b * p)
        except OverflowError:
            value = math.inf
        if not math.isfinite(value):
            raise NonFiniteResultError(f"moment {key} at r={r}, t={t} of a profile with "
                                       f"coefficient {coef} leaves the float range")
        return value
    cells = {} if cells is None else cells
    if kind not in cells:
        cells[kind] = _ball_cells(profile, kind, r, t, cfg.n_space)
    w = _cell_volume(r, cfg.n_space)
    if kind == "gradsq":
        return float(np.sum(cells[kind])) * w
    with np.errstate(over="ignore"):  # the callers refuse a sum that is not finite
        return float(np.sum(cells[kind] ** key[1])) * w


def _ball_cells(profile: Profile, kind: str, r: float, t: float, n: int) -> np.ndarray:
    """|v|, |q| or |grad v|^2 at the points of ball_grid(r, n).  A mirror-even
    |grad v|^2 is evaluated once per mirror class and copied to its members,
    whose squared coordinates, all it reads, have the same bits."""
    classes = _unit_ball_classes(n) if kind == "gradsq" and profile.mirror_even else None
    if classes is not None:
        reps, index = classes
        return profile.grad_norm_sq(r * reps, t)[index]
    pts = ball_grid(r, n)[0]
    if kind == "gradsq":
        vals = profile.grad_norm_sq(pts, t)
        return _gradsq_fd(profile, pts, t, 0.25 * 2.0 * r / n) if vals is None else vals
    if kind == "speed":
        return profile.speed(pts, t)
    return np.abs(profile.pressure(pts, t))


#: points per velocity call of _gradsq_fd, which holds six shifted copies: a standard-ns
#: residual on 64^3 points peaked at 254 MB in one call, 114 MB per shift, 104 MB in blocks
_FD_BLOCK = 1 << 15


def _gradsq_fd(profile: Profile, pts: np.ndarray, t: float, h: float) -> np.ndarray:
    """|grad v|^2 by central differences of step h: one velocity call for the six
    shifts of each block of points."""
    flat, steps = pts.reshape(-1, 3), h * np.eye(3)[:, None, :]
    g = np.zeros(len(flat))
    for lo in range(0, len(flat), _FD_BLOCK):
        block = flat[lo:lo + _FD_BLOCK]
        # block - steps keeps a -0.0 coordinate, where adding a +0.0 offset would not
        shifted = np.concatenate([block + steps, block - steps])
        v = profile.velocity(shifted.reshape(-1, 3), t).reshape(shifted.shape)
        for dv in (v[:3] - v[3:]) / (2 * h):
            g[lo:lo + _FD_BLOCK] += _dot3(dv, dv)
    return g.reshape(pts.shape[:-1])


# ---------------------------------------------------------------------------
# GridField reductions


def _grid_gradsq(field: GridField) -> np.ndarray:
    """|grad v|^2 per cell, shape (Nt, N, N, N), in the bits of np.gradient's
    uniform-step differences summed component by component, axis by axis."""
    h, n = field.cell_size, field.n_space
    g = np.zeros(field.pressure.shape)
    d = np.empty_like(g)
    for comp in range(3):
        u = np.ascontiguousarray(field.velocity[..., comp])
        uf, df = u.reshape(-1), d.reshape(-1)
        for ax in (1, 2, 3):
            # central differences at flat stride s in one contiguous pass; they
            # are right off the axis's edge planes, which get one-sided ones
            s, at = u.strides[ax] // u.itemsize, (slice(None),) * ax
            np.subtract(uf[2 * s:], uf[:-2 * s], out=df[s:-s])
            df[s:-s] /= 2. * h
            np.subtract(u[at + (1,)], u[at + (0,)], out=d[at + (0,)])
            np.subtract(u[at + (-1,)], u[at + (-2,)], out=d[at + (-1,)])
            d[at + (slice(None, None, n - 1),)] /= h  # planes 0 and n - 1
            g += np.square(d, out=d)
    return g


def _grid_tables(field: GridField, keys) -> None:
    """Reduce each moment key the field lacks to an (Nt, n_shells + 1) table of
    prefix sums over the radius shells.  One |v| pass serves every speed key;
    like every per-cell array it is dropped once the tables are built."""
    cache = field._ball_cache
    if "shells" not in cache:
        # the distinct squared centre distances and each cell's index into
        # them, summed in the order of xx**2 + yy**2 + zz**2 over a meshgrid,
        # so the strict test d2 < r**2 picks the cells a meshgrid mask would
        a2 = field.space_axis**2
        d2 = a2[:, None, None] + a2[None, :, None] + a2[None, None, :]
        cache["shells"] = np.unique(d2.ravel(), return_inverse=True)
    shell_d2, shell_of_cell = cache["shells"]
    nt, ns = field.n_time, shell_d2.size
    speed = bins = None
    for key in keys:
        if key in cache:
            continue
        if key[0] == "gradsq":
            cells = _grid_gradsq(field)
        elif key[0] == "speed":
            if speed is None:
                speed = np.sqrt(_dot3(field.velocity, field.velocity))
            cells = speed ** key[1]
        else:
            cells = np.abs(field.pressure) ** key[1]
        if bins is None:  # after the first cells: a lower peak
            bins = (np.arange(nt)[:, None] * ns + shell_of_cell).ravel()
        # bins (time, shell): each adds its cells in a per-slice bincount's order
        sums = np.bincount(bins, weights=cells.ravel(), minlength=nt * ns)
        table = np.zeros((nt, ns + 1))
        np.cumsum(sums.reshape(nt, ns), axis=1, out=table[:, 1:])
        cache[key] = table


def _grid_samples(field: GridField, key, r: float):
    """The integrals over B(r) of a moment at the grid's time samples in
    (-r^2, 0), read from a column of its table, and the grid's time cell."""
    T = r**2
    idx = np.flatnonzero(field.times > -T)
    if not idx.size:
        raise ResolutionError(
            f"no grid time samples inside (-{T}, 0); refine n_time or enlarge r"
        )
    _grid_tables(field, (key,))
    k = np.searchsorted(field._ball_cache["shells"][0], T, side="left")
    sums = field._ball_cache[key][:, k] * field.cell_size**3
    return sums[idx], field.cylinder.time_depth / field.n_time


def _check_radius(field, r: float):
    if not 0 < r < math.inf:
        raise RadiusError(f"radius must be positive and finite, got {r}")
    if not sys.float_info.min <= r * r * r < math.inf:  # so Q(r)'s depth r**2 is finite
        raise RadiusError(f"radius {r} is out of range: r**3 = {r * r * r} is not a "
                          "normal float")
    if isinstance(field, GridField) and r > field.cylinder.space_radius * (1 + 1e-12):
        raise RadiusError(f"radius {r} exceeds the field cylinder "
                          f"{field.cylinder.space_radius}")


def _check_mixed(field, R: float, s: float, l: float, m0: float):
    _check_radius(field, R)
    if not (1 <= s < math.inf and 1 <= l < math.inf and 0 < m0 <= 1):
        raise DomainError(f"need finite s, l >= 1 and 0 < m0 <= 1, got {s}, {l}, {m0}")


# ---------------------------------------------------------------------------
# the primitive quantities
#
# Each quantity is a Morrey weight r**(-weight) times an unweighted value,
# which is evaluated once per radius as a pair (S, dt) whose product is the
# value: dt is the grid's time cell, or 1.0 on the analytic routes.


def _weighted(r: float, weight: float, value) -> float:
    S, dt = value
    try:
        weighted = math.pow(r, -weight) * S * dt
    except OverflowError:
        raise RadiusError(f"radius {r} is too small: r**-{weight} overflows") from None
    if not math.isfinite(weighted):
        raise NonFiniteResultError(f"r**-{weight} times the integral at r={r} is not finite")
    return weighted


def _mass_sup(field, r: float, cfg: QuadratureConfig,
              times: Optional[Sequence[float]] = None):
    """max over time samples in (-r^2, 0) of int_{B(r)} |v|^2 dx."""
    T = r**2
    if isinstance(field, GridField):
        vals = _grid_samples(field, ("speed", 2.0), r)[0]
    else:
        if times is None:
            times = centered_times(T, cfg.n_time)
        vals = [_ball_integral(field, ("speed", 2.0), r, t, cfg) for t in times]
        if not vals:
            raise ResolutionError(f"no time samples inside (-{T}, 0) at r={r}")
    return float(np.max(vals)), 1.0


def _cylinder_integral(field, key, r: float, cfg: QuadratureConfig,
                       l: Optional[float] = None):
    """int over (-r^2, 0) of I(t) dt, I(t) the integral of the moment
    ``key`` over B(r), or with ``l`` given (key ("speed", p)) of I(t)**(l/p).
    """
    T = r**2
    q = 1.0 if l is None else l / key[1]
    what = lambda: f"the integral over Q(r) of {key} at r={r}, l={l} leaves the float range"
    if isinstance(field, GridField):
        I, dt = _grid_samples(field, key, r)
        value = float(np.sum(I if l is None else I**q))
        if not math.isfinite(value):
            raise NonFiniteResultError(what())
        return value, dt
    G = lambda t: _ball_integral(field, key, r, t, cfg) ** q
    # int_{-T}^0 G(t) dt: one sample if steady, the exact power law if separable, where
    # G(t) ~ (-t)**e, e = b p for |v|^p, 2 b p for |q|^p, 2 b for |grad v|^2 and b l
    # with l given, b the time power of |v|
    if field.steady:
        integral = lambda: G(-T / 2) * T
    elif field.separable and cfg.time_rule == "exact":
        b = field.time_power * (1 if key[0] == "speed" else 2)
        e = b * (l if l is not None else key[1] if len(key) > 1 else 1)

        def integral():  # G first: its overflow outranks a divergent time power
            g, time, factor = G(-T / 2), power_time_integral(e, T), (T / 2) ** e
            if factor == 0.0:
                raise RadiusError(f"radius {r} is out of range: (r**2/2)**{e} underflows")
            return g / factor * time
    else:
        def integral():
            nodes, weights = graded_nodes(T, cfg.n_time, cfg.graded_levels)
            return float(np.sum(weights * np.array([G(-float(u)) for u in nodes])))
    value = _finite(integral, what)
    if value < sys.float_info.min and T * r**3 < sys.float_info.min:  # |Q(r)| underflows too
        raise RadiusError(f"radius {r} is too small: the integral over Q(r) underflows")
    return value, 1.0


def sup_weighted_mass(field, r: float, weight: float,
                      cfg: QuadratureConfig = DEFAULT_CONFIG,
                      # keyword-only: perfbench's tracer reads a fifth positional as mu
                      *, times: Optional[Sequence[float]] = None) -> float:
    """r**(-weight) * max over time samples of int_{B(r)} |v|^2 dx.

    The sup over t is taken over the supplied (or cell-centered) samples,
    never interpolated.
    """
    _check_radius(field, r)
    if times is not None and not all(-r**2 < t < 0 for t in times):
        raise DomainError(f"times must lie in (-r^2, 0) = ({-r**2}, 0), got {times}")
    return _weighted(r, weight, _mass_sup(field, r, cfg, times))


def cylinder_power_integral(field, kind: str, p: float, r: float, weight: float,
                            cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """r**(-weight) * int over Q(r) of |field|^p, kind "speed" or "pressure"."""
    if kind not in ("speed", "pressure"):
        raise DomainError(f"kind must be 'speed' or 'pressure', got {kind!r}")
    if not math.isfinite(p):
        raise DomainError(f"p must be finite, got {p}")
    _check_radius(field, r)
    return _weighted(r, weight, _cylinder_integral(field, (kind, p), r, cfg))


def cylinder_gradsq_integral(field, r: float, weight: float,
                             cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """r**(-weight) * int over Q(r) of |grad v|^2."""
    _check_radius(field, r)
    return _weighted(r, weight, _cylinder_integral(field, ("gradsq",), r, cfg))


def m_quantity(field, R: float, s: float, l: float, m0: float,
               cfg: QuadratureConfig = DEFAULT_CONFIG):
    """The kappa-weighted mixed norm and its attenuated variant.

    M = R**(-kappa) * int_{-R^2}^0 (int_{B(R)} |v|^s dx)**(l/s) dt and
    M_att = R**((1-m0) kappa) * M.
    """
    _check_mixed(field, R, s, l, m0)
    k = kappa(s, l)
    M = _weighted(R, k, _cylinder_integral(field, ("speed", s), R, cfg, l))
    return M, _finite(lambda: R ** ((1.0 - m0) * k) * M,
                      lambda: f"M_att at R={R} leaves the float range")


def closed_form_m_power_law(c: float, alpha_p: float, gamma_p: float,
                            s: float, l: float, m0: float, R: float):
    """Attenuated mixed norm of the power-law profile in closed form.

    Returns (value, R_exponent) where the value equals
    coefficient * R**R_exponent with
    R_exponent = -kappa*m0 + (2 - (1-alpha)*gamma*l) + (3 - alpha*s*gamma)*l/s.

    Raises DivergentIntegralError when either separated integral is infinite.
    """
    _check_mixed(None, R, s, l, m0)
    PowerLawProfile(c, alpha_p, gamma_p)  # refuses the parameters the profile refuses
    k = kappa(s, l)
    radial = power_radial_integral(-alpha_p * gamma_p * s, R)  # R**(3-a s g)/(3-a s g)
    bl = -(1 - alpha_p) * gamma_p * l / 2.0
    time_factor = power_time_integral(bl, R**2)
    value = _finite(lambda: c**l * (FOUR_PI * radial) ** (l / s) * time_factor * R ** (-k * m0),
                    lambda: f"closed-form M at R={R} with c={c}, l={l} leaves the float range")
    return value, _radius_exponent(k, m0, alpha_p, gamma_p, s, l)


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class QuantityRow:
    """All quantities at one radius; weighted variants use (m, m1) and n = m."""

    r: float
    A: float
    E: float
    C: float
    D: float
    H: float
    A_m1: float
    E_m: float
    D_m: float
    C_mt: float
    H_n: float  # emitted by no artifact; perfbench/workloads.py checks it
    M_kappa: float
    M_kappa_m0: float

    @property
    def calE(self) -> float:
        return self.E + self.A + self.D


@dataclass
class QuantityReport:
    rows: list = dc_field(default_factory=list)

    @property
    def type1_sup(self) -> float:
        """The largest A, E or C over the rows; 0.0 without rows."""
        return max((max(row.A, row.E, row.C) for row in self.rows), default=0.0)


def energy_quantities(field, r: float, params: ExponentParams,
                      cfg: QuadratureConfig = DEFAULT_CONFIG) -> QuantityRow:
    """One report row: plain and Morrey-weighted quantities plus mixed norms.

    A, E, C, D and H are each integrated once; the two weights of each are
    powers of r applied afterwards.
    """
    _check_radius(field, r)
    m = float(params.m)
    m1 = float(params.m1)
    if isinstance(field, GridField):  # the row's tables at once, from one |v| pass
        _grid_tables(field, (("gradsq",), ("pressure", 1.5), ("speed", 2.0),
                             ("speed", 3.0), ("speed", float(params.s))))
    A = _mass_sup(field, r, cfg)
    E = _cylinder_integral(field, ("gradsq",), r, cfg)
    C = _cylinder_integral(field, ("speed", 3.0), r, cfg)
    D = _cylinder_integral(field, ("pressure", 1.5), r, cfg)
    H = _cylinder_integral(field, ("speed", 2.0), r, cfg)
    Mk, Mk0 = m_quantity(field, r, float(params.s), float(params.l),
                         float(params.m0), cfg)
    return QuantityRow(
        r=r, A=_weighted(r, 1.0, A), E=_weighted(r, 1.0, E),
        C=_weighted(r, 2.0, C), D=_weighted(r, 2.0, D), H=_weighted(r, 3.0, H),
        A_m1=_weighted(r, m1, A), E_m=_weighted(r, m, E),
        D_m=_weighted(r, 2.0 * m, D), C_mt=_weighted(r, 2.0 * m, C),
        H_n=_weighted(r, m + 2.0, H), M_kappa=Mk, M_kappa_m0=Mk0,
    )


def quantity_report(field, radii: Sequence[float], params: ExponentParams,
                    cfg: QuadratureConfig = DEFAULT_CONFIG) -> QuantityReport:
    """Evaluate the full quantity set over a radius ladder."""
    return QuantityReport([energy_quantities(field, r, params, cfg) for r in sorted(radii)])


# ---------------------------------------------------------------------------
# local energy balance


#: standard deviations at which a GaussianBump's quadrature support is cut,
#: where the tails are negligible against the tolerances used here
NSIGMA = 7.0


@dataclass(frozen=True)
class GaussianBump:
    """Smooth nonnegative test function with analytic derivatives: a unit
    Gaussian in space and time, its support cut at NSIGMA deviations.

    The local-energy kernel's weighted spatial rule is kept per ``n_space``
    in ``_rules``, valid only because the bump cannot change.
    """

    center: tuple = (0.0, 0.0, 0.0)
    t_center: float = -0.5
    sigma: float = 0.5
    sigma_t: float = 0.1
    _rules: dict = dc_field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (0 < self.sigma < math.inf and 0 < self.sigma_t < math.inf
                and len(self.center) == 3
                and np.isfinite([*self.center, self.t_center]).all()):
            raise DomainError(f"need a finite centre of 3 coordinates, a finite t_center "
                              f"and positive finite widths: {self}")

    def space_parts(self, y):
        """Value, gradient and Laplacian of the spatial factor at points y of
        shape (..., 3)."""
        d = np.asarray(y, dtype=float) - np.asarray(self.center)
        d2 = _dot3(d, d)
        S = np.exp(-d2 / (2 * self.sigma**2))
        grad = S[..., None] * (-d / self.sigma**2)
        return S, grad, S * (d2 / self.sigma**4 - 3.0 / self.sigma**2)

    def __getstate__(self):
        # pickles and copies start with an empty memo of their own
        return {**self.__dict__, "_rules": {}}

    def _space_rule(self, n: int):
        rule = self._rules.get(n)
        if rule is None:
            rule = self._rules[n] = _weighted_space_rule(self, n)
        return rule

    def time_parts(self, tau):
        """Value and tau-derivative of the temporal factor, elementwise in tau."""
        s = np.asarray(tau, dtype=float) - self.t_center
        T = np.exp(-(s**2) / (2 * self.sigma_t**2))
        return T, T * (-s / self.sigma_t**2)

    @property
    def space_box(self):
        c = np.asarray(self.center)
        return c - NSIGMA * self.sigma, c + NSIGMA * self.sigma

    @property
    def time_window(self):
        return (
            self.t_center - NSIGMA * self.sigma_t,
            self.t_center + NSIGMA * self.sigma_t,
        )


@dataclass(frozen=True)
class ExponentialWeighted:
    """phi = base * exp(rate * tau), with derivatives carried through."""

    base: GaussianBump
    rate: float

    def __post_init__(self):
        if not -math.inf < self.rate < math.inf:
            raise DomainError(f"need a finite rate: {self}")

    def space_parts(self, y):
        return self.base.space_parts(y)

    def _space_rule(self, n: int):
        return self.base._space_rule(n)

    def time_parts(self, tau):
        tau = np.asarray(tau, dtype=float)
        T, dT = self.base.time_parts(tau)
        e = np.exp(self.rate * tau)
        return T * e, (dT + self.rate * T) * e

    @property
    def space_box(self):
        return self.base.space_box

    @property
    def time_window(self):
        return self.base.time_window


def _testfn_grid(testfn, n: int):
    """Tensor Gauss-Legendre points (n**3, 3) and weights over the support box."""
    lo, hi = testfn.space_box
    (x, wx), (y, wy), (z, wz) = (_gauss_legendre_on(float(lo[j]), float(hi[j]), n)
                                 for j in range(3))
    pts = _lattice(x, y, z).reshape(-1, 3)
    wts = (wx[:, None, None] * wy[None, :, None] * wz[None, None, :]).ravel()
    return pts, wts


def _weighted_space_rule(testfn, n: int):
    """Read-only (pts, wS, wgradS, wlapS): the points of ``_testfn_grid`` and
    the test function's S, grad S and lap S there, times the cell weights."""
    pts, wts = _testfn_grid(testfn, n)
    S, gradS, lapS = testfn.space_parts(pts)
    wS, wgradS, wlapS = S * wts, gradS * wts[:, None], lapS * wts
    for a in (pts, wS, wgradS, wlapS):
        a.flags.writeable = False
    return pts, wS, wgradS, wlapS


def _flow_moments(profile, pts, t, wS, wgradS, wlapS, viscous: bool):
    """Spatial moments of the flow at time t against the test function's
    spatial factor S, whose value, gradient and Laplacian arrive already
    multiplied by the cell weights: [int |v|^2 S, int |v|^2 lap S,
    int (v . grad S)(|v|^2 + 2p), int S |grad v|^2], the second and the
    last 0 unless viscous.
    """
    v = profile.velocity(pts, t)
    p = profile.pressure(pts, t)
    v2 = _dot3(v, v)
    flux = _dot3(v, wgradS) @ (v2 + 2.0 * p)
    heat = dissipation = 0.0
    if viscous:
        heat = v2 @ wlapS
        g = profile.grad_norm_sq(pts, t)
        if g is None:
            g = _gradsq_fd(profile, pts, t, 1e-4)
        dissipation = g @ wS
    return np.array([v2 @ wS, heat, flux, dissipation])


def _physical_moments(profile, pts, times, wS, wgradS, wlapS, viscous: bool):
    """_flow_moments at each of ``times``, shape (len(times), 4).

    Steady and separable profiles are evaluated once: their velocity scales
    as s = (-t)**time_power and pressure and |grad v|^2 as s**2 (the
    ``Profile.separable`` contract), so the four moments scale as s**2,
    s**2, s**3 and s**2.  Any other profile is evaluated at every time.
    """
    if profile.steady or profile.separable:
        base = _flow_moments(profile, pts, -1.0, wS, wgradS, wlapS, viscous)
        s = (-times) ** profile.time_power
        return base * np.stack([s**2, s**2, s**3, s**2], axis=-1)
    return np.array([_flow_moments(profile, pts, t, wS, wgradS, wlapS, viscous)
                     for t in times])


_VARIANTS = ("standard-ns", "euler-limit", "selfsimilar", "selfsimilar-weighted")


def local_energy_residual(profile, testfn, tau0: float, variant: str,
                          cfg: QuadratureConfig = DEFAULT_CONFIG):
    """Both sides of a local energy balance and their difference.

    Variants: "standard-ns" (with dissipation and the heat-test term),
    "euler-limit" (inviscid: both drop out), "selfsimilar" (similarity
    variables with the drift and zeroth-order terms) and
    "selfsimilar-weighted" (the exponentially weighted pre-substitution
    form).  For a smooth exact solution of the corresponding equations the
    residual is zero up to quadrature error.

    The test function is a product S(y) T(tau), read only through its factors
    ``space_parts(y)`` -> (S, grad S, lap S) and ``time_parts(tau)`` -> (T,
    dT/dtau), its ``space_box`` and ``time_window``.  S, grad S and lap S are
    built once per test function and ``n_space`` and the time integral is a
    Gauss-Legendre sum of a few spatial moments against T and dT/dtau.
    """
    if variant not in _VARIANTS:
        raise DomainError(f"unknown variant {variant!r}; expected one of {_VARIANTS}")
    if not -math.inf < tau0 < math.inf:
        raise DomainError(f"tau0 must be finite, got {tau0}")
    physical = variant in ("standard-ns", "euler-limit")
    if not physical and not isinstance(profile, SelfSimilarProfile):
        raise DomainError("similarity variants need a SelfSimilarProfile")
    tlo, thi = testfn.time_window
    if physical:
        if thi >= 0 and (profile.time_power < 0 or not profile.steady):
            raise SupportError("test function support reaches t >= 0")
        if tau0 >= 0:
            raise SupportError("tau0 must be negative for physical-time variants")
    if profile.radial_power < 0:
        lo, hi = testfn.space_box
        if np.all(lo < 0) and np.all(hi > 0):
            raise SupportError("test function support contains the singular point x = 0")

    n = cfg.n_space
    memo = getattr(testfn, "_space_rule", None)  # a GaussianBump keeps its rules
    pts, wS, wgradS, wlapS = memo(n) if memo else _weighted_space_rule(testfn, n)
    t_hi = min(thi, tau0)
    if t_hi <= tlo:
        tnodes, twts = np.array([]), np.array([])
    else:
        tnodes, twts = gauss_legendre(tlo, t_hi, max(cfg.n_time, n))
    T, dT = testfn.time_parts(tnodes)
    T0 = float(testfn.time_parts(tau0)[0])

    if physical:
        # the last row, at tau0, gives the lhs mass
        rows = _physical_moments(profile, pts, np.append(tnodes, tau0),
                                 wS, wgradS, wlapS, variant == "standard-ns")
        mass, heat, flux, dissipation = rows[:-1].T
        rhs = float(np.sum(twts * (mass * dT + (heat + flux) * T)))
        lhs = float(rows[-1, 0]) * T0 + 2.0 * float(np.sum(twts * dissipation * T))
        return lhs, rhs, lhs - rhs

    alpha = profile.alpha
    rate = (3.0 - 2.0 * alpha) / (1.0 + alpha)  # m1 / (1 + alpha) with m1 = 3 - 2 alpha
    U = np.asarray(profile.U(pts), dtype=float)
    P = (
        np.zeros(pts.shape[0])
        if profile.P is None
        else np.asarray(profile.P(pts), dtype=float)
    )
    U2 = _dot3(U, U)
    mass = float(U2 @ wS)
    drift = float(U2 @ _dot3(pts, wgradS)) / (1.0 + alpha)
    flux = float(_dot3(U, wgradS) @ (U2 + 2.0 * P))
    # the rhs integrand is weight * (t_coef * T + mass * dT); in the plain
    # form the zeroth-order term rate * phi joins the drift and flux
    if variant == "selfsimilar":
        weight, t_coef, lhs_weight = 1.0, drift + flux + rate * mass, 1.0
    else:
        weight, t_coef = np.exp(-rate * tnodes), drift + flux
        lhs_weight = np.exp(-rate * tau0)
    rhs = float(np.sum(twts * weight * (t_coef * T + mass * dT)))
    lhs = lhs_weight * mass * T0
    return lhs, rhs, lhs - rhs
