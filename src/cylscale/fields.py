"""Candidate velocity/pressure fields and parabolic-cylinder geometry.

Profiles are pure evaluators defined for t < 0.  Closed-form kinds
(power-law, constant, steady shear, self-similar) evaluate exactly;
sampled fields interpolate a cell-centered tensor grid.  Singular profiles
carry their radial/time exponents so the quadrature layer can integrate
them with exact power-law weights.
"""

from __future__ import annotations

import json
import math
import operator
import sys
import warnings
from dataclasses import asdict, dataclass, field as dc_field
from typing import Callable, Optional

import numpy as np

from .errors import (
    DomainError,
    FileFormatError,
    NonFiniteResultError,
    NonFiniteSampleError,
    RadiusError,
    ResolutionError,
    SingularPointError,
)


@dataclass(frozen=True)
class CylinderSpec:
    """Geometry of Q^{lam,mu}(R) = {(y,t): |y| < lam*R, -mu*R^2 < t < 0}."""

    radius: float
    lam: float = 1.0
    mu: float = 1.0

    def __post_init__(self):
        R, lam, mu = self.radius, self.lam, self.mu
        if not all(0 < v < math.inf for v in (R, lam, mu, lam * R, mu * (R * R))):
            raise DomainError("cylinder radius and anisotropy factors must be positive and "
                              f"finite, and so must lam*R, R**2 and mu*R**2, got {self}")

    @property
    def space_radius(self) -> float:
        return self.lam * self.radius

    @property
    def time_depth(self) -> float:
        return self.mu * self.radius**2


def _norm3(v: np.ndarray) -> np.ndarray:
    """|v| over a last axis of 3: np.linalg.norm(v, axis=-1)'s sum, without its copy."""
    return np.sqrt(v[..., 0] ** 2 + v[..., 1] ** 2 + v[..., 2] ** 2)


def _dot3(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row dot products over a last axis of 3, summed as np.einsum("...i,...i->...")
    sums C-ordered rows: (a1 b1 + a3 b3) + a2 b2, then the +0 einsum starts from."""
    out = a[..., 0] * b[..., 0]
    out += a[..., 2] * b[..., 2]
    out += a[..., 1] * b[..., 1]
    out += 0.0
    return out


def azimuthal_unit(x: np.ndarray) -> np.ndarray:
    """Unit field tangent to circles about the x3-axis; divergence-free."""
    sigma = np.sqrt(x[..., 0] ** 2 + x[..., 1] ** 2)
    if np.any(sigma == 0):
        raise SingularPointError("azimuthal direction undefined on the x3-axis")
    out = np.empty_like(x, dtype=float)
    out[..., 0] = -x[..., 1] / sigma
    out[..., 1] = x[..., 0] / sigma
    out[..., 2] = 0.0
    return out


class Profile:
    """Base class: a velocity/pressure evaluator on negative times."""

    #: magnitude behaves like |x|**radial_power near x = 0
    radial_power: float = 0.0
    #: magnitude behaves like (-t)**time_power near t = 0
    time_power: float = 0.0
    #: speed factorizes as coef * |x|**radial_power * (-t)**time_power, and
    #: the whole field follows the time factor: velocity(x, t) equals
    #: velocity(x, -1) * (-t)**time_power, while pressure and |grad v|^2
    #: carry (-t)**(2 * time_power)
    separable: bool = False
    #: field does not depend on t (so time_power is 0)
    steady: bool = False
    #: a separable profile's pressure is pressure_coeff * speed**2
    pressure_coeff: float = 0.0
    #: grad_norm_sq is a closed form that reads each point only through its
    #: squared coordinates, so points that differ in signs get equal bits
    mirror_even: bool = False

    def velocity(self, x: np.ndarray, t: float) -> np.ndarray:
        raise NotImplementedError

    def pressure(self, x: np.ndarray, t: float) -> np.ndarray:
        return np.zeros(np.shape(x)[:-1])

    def speed(self, x: np.ndarray, t: float) -> np.ndarray:
        return _norm3(self.velocity(x, t))

    def slices(self, x: np.ndarray, times) -> tuple:
        """(velocity, pressure) at each of ``times``, on a leading time axis."""
        vel = np.empty((len(times),) + np.shape(x))
        prs = np.empty(vel.shape[:-1])
        for j, t in enumerate(times):
            vel[j] = self.velocity(x, t)
            prs[j] = self.pressure(x, t)
        return vel, prs

    def grad_norm_sq(self, x: np.ndarray, t: float) -> Optional[np.ndarray]:
        """|grad v|^2 where a closed form exists, else None."""
        return None


@dataclass(frozen=True)
class PowerLawProfile(Profile):
    """Speed c * (|x|**(-alpha_p) * (-t)**(-(1-alpha_p)/2))**gamma_p.

    The magnitude law is realized by attaching the azimuthal unit direction
    field, which is solenoidal and keeps every quantity computable.  Pressure
    defaults to pressure_coeff * speed**2.
    """

    c: float = 1.0
    alpha_p: float = 0.5
    gamma_p: float = 1.1
    pressure_coeff: float = 1.0
    separable = mirror_even = True

    def __post_init__(self):
        if not 0 <= self.c < math.inf:
            raise DomainError(f"c must be finite and non-negative, got {self.c}")
        if not 0 <= self.alpha_p <= 1:
            raise DomainError(f"alpha_p must lie in [0, 1], got {self.alpha_p}")
        if not 1 < self.gamma_p < math.inf:
            raise DomainError(f"gamma_p must exceed 1 and be finite, got {self.gamma_p}")
        if not math.isfinite(self.pressure_coeff):
            raise DomainError(f"pressure_coeff must be finite, got {self.pressure_coeff}")

    @property
    def radial_power(self) -> float:
        return -self.alpha_p * self.gamma_p

    @property
    def time_power(self) -> float:
        return -(1 - self.alpha_p) * self.gamma_p / 2

    @property
    def coef(self) -> float:
        return self.c

    def _speed_pass(self, x, t):
        """(speed, sigma^2, [x1^2, x2^2, x3^2]) from one pass over x, sigma the
        distance to the x3-axis."""
        _check_time(t)
        x = np.asarray(x, dtype=float)
        squares = [x[..., j] ** 2 for j in range(3)]
        sigma_sq = squares[0] + squares[1]
        rho = np.sqrt(sigma_sq + squares[2])  # summed as _norm3 sums it
        if self.radial_power < 0 and np.any(rho == 0):
            raise SingularPointError("power-law profile singular at x = 0")
        return self.c * rho**self.radial_power * (-t) ** self.time_power, sigma_sq, squares

    def speed(self, x, t):
        return self._speed_pass(x, t)[0]

    def slices(self, x, times):
        # speed at t = -1 is c * rho**radial_power bit for bit (1.0**p is 1), so one
        # spatial pass serves every slice; each repeats velocity's and pressure's steps
        _check_time(times)
        x = np.asarray(x, dtype=float)
        radial, unit = self.speed(x, -1.0), azimuthal_unit(x)
        vel = np.empty((len(times),) + x.shape)
        prs = np.empty(vel.shape[:-1])
        for j, t in enumerate(times):
            speed = radial * (-t) ** self.time_power
            for k in range(3):  # by columns: numpy runs a length-3 inner loop at half speed
                np.multiply(speed, unit[..., k], out=vel[j, ..., k])
            prs[j] = self.pressure_coeff * speed**2
        return vel, prs

    def velocity(self, x, t):
        x = np.asarray(x, dtype=float)
        speed, out = self.speed(x, t), azimuthal_unit(x)
        for k in range(3):  # by columns, as in slices
            np.multiply(speed, out[..., k], out=out[..., k])
        return out

    def pressure(self, x, t):
        return self.pressure_coeff * self.speed(x, t) ** 2

    def grad_norm_sq(self, x, t):
        g, sigma_sq, (x1_sq, x2_sq, x3_sq) = self._speed_pass(x, t)
        if np.any(sigma_sq == 0):
            raise SingularPointError("gradient undefined on the x3-axis")
        # g^2 * (p^2/rho^2 + 1/sigma^2) in place, with rho^2 summed as _dot3 sums it
        x1_sq += x3_sq
        x1_sq += x2_sq
        tail = self.radial_power**2 / x1_sq
        tail += 1.0 / sigma_sq
        g **= 2
        g *= tail
        return g


@dataclass(frozen=True)
class ConstantProfile(Profile):
    """A constant velocity vector with zero pressure."""

    c3: tuple = (1.0, 0.0, 0.0)
    separable = steady = True

    def __post_init__(self):
        if not (len(self.c3) == 3 and all(map(math.isfinite, self.c3))):
            raise DomainError(f"c3 must be three finite numbers, got {self.c3}")

    @property
    def coef(self) -> float:
        with np.errstate(over="ignore"):  # norm squares c3, so past 1.34e154 it is inf
            norm = float(np.linalg.norm(self.c3))
        # and below 1.49e-154 the squares lose bits, where hypot scales c3 instead
        return norm if math.sqrt(sys.float_info.min) <= norm < math.inf else math.hypot(*self.c3)

    def velocity(self, x, t):
        x = np.asarray(x, dtype=float)
        return np.broadcast_to(np.asarray(self.c3, dtype=float), x.shape).copy()

    def grad_norm_sq(self, x, t):
        x = np.asarray(x, dtype=float)
        return np.zeros(x.shape[:-1])


@dataclass(frozen=True)
class SteadyShearProfile(Profile):
    """u = (A sin(k x2), 0, 0), p = 0: a steady solution of the ideal flow
    equations that is exactly solenoidal."""

    amplitude: float = 1.0
    wavenumber: float = 1.0
    steady = True

    def __post_init__(self):  # grad_norm_sq squares amplitude * wavenumber
        if not abs(self.amplitude * self.wavenumber) <= math.sqrt(sys.float_info.max):
            raise DomainError(f"need amplitude * wavenumber with a finite square: {self}")

    def velocity(self, x, t):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        out[..., 0] = self.amplitude * np.sin(self.wavenumber * x[..., 1])
        return out

    def grad_norm_sq(self, x, t):
        x = np.asarray(x, dtype=float)
        return (self.amplitude * self.wavenumber) ** 2 * np.cos(
            self.wavenumber * x[..., 1]
        ) ** 2


class _SimilarityForm(Profile):
    """u = (-t)**time_power * U(y, *extra) and p = (-t)**(2 time_power) *
    P(y, *extra) (zero without P) at the similarity point y of (x, t);
    ``_extra(t)`` gives the arguments of U and P after y, none by default."""

    def __post_init__(self):
        if not (callable(self.U) and -1 < self.alpha < math.inf
                and 0 < getattr(self, "S0", 1.0) < math.inf):  # S0: a discrete period
            raise DomainError(f"need a callable U, finite alpha > -1 and finite S0 > 0: {self}")

    def _extra(self, t) -> tuple:
        return ()

    @property
    def time_power(self) -> float:
        return -self.alpha / (self.alpha + 1)

    def velocity(self, x, t):
        y = _similarity_point(self.alpha, x, t)
        scale = _time_scale(self.alpha, t, self.time_power)
        return scale * np.asarray(self.U(y, *self._extra(t)), dtype=float)

    def pressure(self, x, t):
        y = _similarity_point(self.alpha, x, t)
        if self.P is None:
            return super().pressure(y, t)
        scale = _time_scale(self.alpha, t, 2 * self.time_power)
        return scale * np.asarray(self.P(y, *self._extra(t)), dtype=float)


@dataclass(frozen=True)
class SelfSimilarProfile(_SimilarityForm):
    """u(x,t) = (-t)**(-alpha/(alpha+1)) * U(x * (-t)**(-1/(alpha+1))).

    Satisfies u(x,t) = lam**alpha * u(lam x, lam**(alpha+1) t) for every
    lam > 0 by construction.  ``U`` maps (..., 3) points to (..., 3)
    vectors; ``P`` is the matching pressure profile (default zero).
    """

    alpha: float = 1.5
    U: Callable = None
    P: Optional[Callable] = None


@dataclass(frozen=True)
class DiscreteSelfSimilarProfile(_SimilarityForm):
    """Self-similar form with a profile periodic in the log-time variable.

    ``U(y, tau)`` maps (..., 3) points to (..., 3) vectors and has period
    ``S0`` in tau = -ln(-t); ``P(y, tau)`` is the matching pressure profile
    (default zero).  The physical field satisfies the scaling identity only
    for lam = exp(S0/(alpha+1)).
    """

    alpha: float = 1.5
    S0: float = 1.0
    U: Callable = None
    P: Optional[Callable] = None

    @property
    def scaling_lambda(self) -> float:
        return float(np.exp(self.S0 / (self.alpha + 1)))

    def _extra(self, t) -> tuple:
        return (-np.log(-t),)


def steady_to_discrete(profile: SelfSimilarProfile, S0: float) -> DiscreteSelfSimilarProfile:
    """View a steady similarity profile as a (trivially) periodic one."""
    return DiscreteSelfSimilarProfile(
        alpha=profile.alpha,
        S0=S0,
        U=lambda y, tau: profile.U(y),
        P=None if profile.P is None else (lambda y, tau: profile.P(y)),
    )


def _check_time(t):
    if not np.all(np.asarray(t) < 0):
        raise SingularPointError(f"profiles are defined for t < 0, got t={t}")


def _time_scale(alpha: float, t, power: float):
    """(-t)**power, refused with a typed error where it leaves the float range."""
    try:
        with np.errstate(over="raise"):
            return (-t) ** power
    except (OverflowError, FloatingPointError):
        raise NonFiniteResultError(f"(-t)**{power} overflows at alpha={alpha}, t={t}") from None


def _similarity_point(alpha: float, x, t):
    """y = x * (-t)**(-1/(alpha+1)), the similarity variable of (x, t)."""
    _check_time(t)
    return np.asarray(x, dtype=float) * _time_scale(alpha, t, -1.0 / (alpha + 1))


# ---------------------------------------------------------------------------
# sampled fields


@dataclass(frozen=True, eq=False)
class GridField:
    """Cell-centered samples of a velocity/pressure pair on a cylinder.

    ``velocity`` has shape (Nt, N, N, N, 3) and ``pressure`` (Nt, N, N, N);
    axis order is (t, x1, x2, x3).  Immutable: construction marks the sample
    arrays and the cell-centre ``times`` read-only and records the discrete
    divergence residual.  The quantities layer caches ball moments per field
    in ``_ball_cache``, valid only because the samples cannot change.
    Equality is identity: fields hold arrays, which have no single truth value.
    """

    cylinder: CylinderSpec
    n_space: int
    n_time: int
    velocity: np.ndarray
    pressure: np.ndarray
    radial_power: float = 0.0
    time_power: float = 0.0
    div_residual: float = dc_field(init=False)
    times: np.ndarray = dc_field(init=False, repr=False)
    _ball_cache: dict = dc_field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        if self.n_space < 2 or self.n_time < 2:
            raise ResolutionError("grid needs at least 2 cells per axis")
        expected = (self.n_time, self.n_space, self.n_space, self.n_space)
        if self.velocity.shape != expected + (3,) or self.pressure.shape != expected:
            raise ResolutionError("sample arrays do not match the declared resolutions")
        if not (np.all(np.isfinite(self.velocity)) and np.all(np.isfinite(self.pressure))):
            raise NonFiniteSampleError("non-finite samples in grid field")
        self.velocity.flags.writeable = False
        self.pressure.flags.writeable = False
        T = self.cylinder.time_depth
        times = _cell_centres(-T, T, self.n_time)
        times.flags.writeable = False
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "div_residual", divergence_residual(self))

    @property
    def space_axis(self) -> np.ndarray:
        a = self.cylinder.space_radius
        return _cell_centres(-a, 2.0 * a, self.n_space)

    @property
    def cell_size(self) -> float:
        return 2.0 * self.cylinder.space_radius / self.n_space


def _cell_centres(lo: float, width: float, n: int) -> np.ndarray:
    """Centres of the n equal cells of [lo, lo + width]."""
    return lo + width / n * (np.arange(n) + 0.5)


def _lattice(x: np.ndarray, y: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The (len(x), len(y), len(z), 3) points of np.stack(np.meshgrid(x, y, z,
    indexing="ij"), axis=-1), filled one axis at a time without its copies."""
    pts = np.empty((len(x), len(y), len(z), 3))
    pts[..., 0] = x[:, None, None]
    pts[..., 1] = y[:, None]
    pts[..., 2] = z
    return pts


def sample(profile: Profile, cyl: CylinderSpec, n_space: int, n_time: int) -> GridField:
    """Cell-centered samples of a profile over the cylinder.

    The half-cell offset keeps every node off the singular locus (x = 0,
    t = 0 and the x3-axis) deterministically.
    """
    if n_space < 2 or n_time < 2:
        raise ResolutionError(f"need n_space, n_time >= 2, got {n_space}, {n_time}")
    a = cyl.space_radius
    axis = _cell_centres(-a, 2.0 * a, n_space)
    T = cyl.time_depth
    vel, prs = profile.slices(_lattice(axis, axis, axis), _cell_centres(-T, T, n_time))
    return GridField(
        cylinder=cyl,
        n_space=n_space,
        n_time=n_time,
        velocity=vel,
        pressure=prs,
        radial_power=profile.radial_power,
        time_power=profile.time_power,
    )


def divergence_residual(obj) -> float:
    """Max-norm centered-difference divergence over interior nodes."""
    if not isinstance(obj, GridField):
        raise DomainError(f"divergence_residual expects a GridField, got {type(obj).__name__}")
    h = obj.cell_size
    u = obj.velocity
    div = (
        (u[:, 2:, 1:-1, 1:-1, 0] - u[:, :-2, 1:-1, 1:-1, 0])
        + (u[:, 1:-1, 2:, 1:-1, 1] - u[:, 1:-1, :-2, 1:-1, 1])
        + (u[:, 1:-1, 1:-1, 2:, 2] - u[:, 1:-1, 1:-1, :-2, 2])
    ) / (2.0 * h)
    return float(np.max(np.abs(div))) if div.size else 0.0


class SampledProfile(Profile):
    """Multilinear interpolation view of a GridField."""

    def __init__(self, field: GridField):
        from scipy.interpolate import RegularGridInterpolator

        self.field = field
        axes = (field.times,) + (field.space_axis,) * 3
        self._vel = RegularGridInterpolator(
            axes, field.velocity, bounds_error=False, fill_value=None
        )
        self._prs = RegularGridInterpolator(
            axes, field.pressure, bounds_error=False, fill_value=None
        )
        self.radial_power = field.radial_power
        self.time_power = field.time_power

    def _pack(self, x, t):
        x = np.asarray(x, dtype=float)
        flat = x.reshape(-1, 3)
        tcol = np.full((flat.shape[0], 1), float(t))
        return np.hstack([tcol, flat]), x.shape

    def velocity(self, x, t):
        pts, shape = self._pack(x, t)
        return self._vel(pts).reshape(shape[:-1] + (3,))

    def pressure(self, x, t):
        pts, shape = self._pack(x, t)
        return self._prs(pts).reshape(shape[:-1])


# ---------------------------------------------------------------------------
# grid I/O


#: rows per repr table of write_grid_csv: an N=64, Nt=8 write peaked at 146 MB
#: (the sampling peak) in blocks of this size and at 248 MB with one table per slice
_CSV_BLOCK = 1 << 15


def write_grid_csv(field: GridField, csv_path, sidecar_path=None) -> None:
    """Flat CSV (x1,x2,x3,t,u1,u2,u3,p per node) plus a JSON sidecar.

    Floats are written with repr, so read_grid_csv restores them exactly.
    Lines end in ``\r\n``, as ``csv.writer`` writes them.
    """
    # the coordinate prefix repeats in every time slice, t in every row of one
    axis = [repr(x) for x in field.space_axis.tolist()]
    prefix = [f"{x1},{x2},{x3}," for x1 in axis for x2 in axis for x3 in axis]
    velocity = field.velocity.reshape(field.n_time, len(prefix), 3)
    pressure = field.pressure.reshape(field.n_time, len(prefix))
    with open(csv_path, "w", newline="") as fh:
        fh.write("x1,x2,x3,t,u1,u2,u3,p\r\n")
        for j, t in enumerate(map(repr, field.times.tolist())):
            for lo in range(0, len(prefix), _CSV_BLOCK):
                hi = lo + _CSV_BLOCK
                cells = np.column_stack((velocity[j, lo:hi], pressure[j, lo:hi]))
                # one repr per distinct bit pattern, so -0.0 and 0.0 stay apart; the
                # inverse's shape differs across numpy 2.x releases, so it is reshaped
                keys, inverse = np.unique(cells.view(np.uint64), return_inverse=True)
                text = [repr(v) for v in keys.view(np.float64).tolist()]
                fh.writelines(f"{x}{t},{text[a]},{text[b]},{text[c]},{text[d]}\r\n"
                              for x, (a, b, c, d)
                              in zip(prefix[lo:hi], inverse.reshape(-1, 4).tolist()))
    if sidecar_path is not None:
        sidecar = {
            "cylinder": asdict(field.cylinder),
            "n_space": field.n_space,
            "n_time": field.n_time,
            "radial_power": field.radial_power,
            "time_power": field.time_power,
            "div_residual": field.div_residual,
        }
        with open(sidecar_path, "w") as fh:
            json.dump(sidecar, fh, indent=2, sort_keys=True)
            fh.write("\n")


def read_grid_csv(csv_path, sidecar_path) -> GridField:
    """Inverse of write_grid_csv.

    The samples u1, u2, u3 and p come from the CSV; the geometry comes from
    the sidecar, so the x1, x2, x3 and t columns are not read.
    """
    try:
        with open(sidecar_path) as fh:
            meta = json.load(fh)
        n, nt = (operator.index(meta[k]) for k in ("n_space", "n_time"))
        cyl = CylinderSpec(**meta["cylinder"])
        powers = [meta.get(k, 0.0) for k in ("radial_power", "time_power")]
        if not all(type(v) in (int, float) and math.isfinite(v) for v in powers):
            raise ValueError(f"radial_power and time_power must be finite reals, got {powers}")
    except KeyError as exc:
        raise FileFormatError(f"{sidecar_path}: missing key {exc}") from exc
    except (TypeError, ValueError) as exc:  # malformed JSON is a ValueError
        raise FileFormatError(f"{sidecar_path}: {exc}") from exc
    try:
        with warnings.catch_warnings():
            # a header-only file is reported by the row count below
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            # comments=None: a cell such as "0.5#x" is an error, not 0.5
            data = np.loadtxt(csv_path, delimiter=",", skiprows=1, usecols=(4, 5, 6, 7),
                              ndmin=2, comments=None)
    except ValueError as exc:
        raise FileFormatError(f"{csv_path}: {exc}") from exc
    if len(data) != nt * n**3:
        raise ResolutionError(f"{csv_path}: {len(data)} rows, but the sidecar's "
                              f"resolutions n_space={n}, n_time={nt} need {nt * n**3}")
    data = data.reshape(nt, n, n, n, 4)
    vel = np.ascontiguousarray(data[..., :3])
    prs = np.ascontiguousarray(data[..., 3])
    return GridField(
        cylinder=cyl,
        n_space=n,
        n_time=nt,
        velocity=vel,
        pressure=prs,
        radial_power=powers[0],
        time_power=powers[1],
    )
