"""Quadrature rules for parabolic cylinders and singular power-law integrands.

Three kinds of rules are used:

* closed-form power-law integrals, when the profile declares the
  integrand's radial and time exponents;
* graded 1-d meshes toward the singular locus (geometric ratio 2) with a
  two-point Gauss rule per cell, for singular integrands with undeclared or
  unused exponents;
* cell-centered Cartesian grids over the ball for integrands without radial
  symmetry.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DivergentIntegralError, DomainError
from .fields import _cell_centres, _dot3, _lattice

FOUR_PI = 4.0 * np.pi
_GL2 = 1.0 / np.sqrt(3.0)  # two-point Gauss nodes at +- 1/sqrt(3)

#: ceilings on the counts, checked before anything is allocated.  n_space:
#: peak RSS of a standard-ns local-energy residual, the largest n_space**3 user,
#: was 74 MB at 64 and 368 MB at 128 on a power law (about 170 bytes a cell
#: between them), and 98 and 353 MB on a SelfSimilarProfile, whose blocked
#: finite-difference |grad v|^2 adds a fixed cost, so about 1.2 GB at 192
N_SPACE_MAX = 192
#: max(n_time, n_space) Gauss-Legendre nodes solve an eigenproblem of that
#: order: 92 MB peak at 2048, so about 0.3 GB at 4096
N_TIME_MAX = 4096
#: a graded rule holds 2 * levels * n/16 nodes, 512k at both ceilings below;
#: 2**-1000 stays clear of the binary64 underflow at 2**-1074, below which
#: graded cells have zero width
N_RADIAL_MAX = 4096
GRADED_LEVELS_MAX = 1000


@dataclass(frozen=True)
class QuadratureConfig:
    """Resolution and rule selection for quantity evaluation.

    ``radial_rule`` / ``time_rule``: "exact" integrates a separable profile's
    power laws in closed form, "graded" on a graded mesh.  Space is otherwise
    a Cartesian cell sum, as |grad v|^2 always is, and time the graded mesh;
    a steady profile is sampled once in time.
    ``n_space`` is the Cartesian resolution per axis; ``n_radial`` /
    ``n_time`` set the refinement of the 1-d graded rules (n/16 cells per
    dyadic level); ``graded_levels`` the number of dyadic levels toward the
    singularity, which controls how much of the singular core is resolved.
    Construction checks that the four counts are integers from 1 up to their
    ceilings and that both rules are "exact" or "graded".
    """

    n_space: int = 32
    n_time: int = 16
    n_radial: int = 64
    graded_levels: int = 28
    radial_rule: str = "exact"
    time_rule: str = "exact"

    def __post_init__(self):
        for name, ceiling in (("n_space", N_SPACE_MAX), ("n_time", N_TIME_MAX),
                              ("n_radial", N_RADIAL_MAX),
                              ("graded_levels", GRADED_LEVELS_MAX)):
            value = getattr(self, name)
            if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
                    or not 1 <= value <= ceiling):
                raise DomainError(f"{name} must be an integer in [1, {ceiling}], "
                                  f"got {value!r}")
        for name in ("radial_rule", "time_rule"):
            value = getattr(self, name)
            if value not in ("exact", "graded"):
                raise DomainError(f"{name} must be 'exact' or 'graded', got {value!r}")


DEFAULT_CONFIG = QuadratureConfig()


def power_radial_integral(p: float, r: float) -> float:
    """Exact int_0^r rho^(2+p) drho, the radial factor of a ball integral."""
    if 3 + p <= 0:
        raise DivergentIntegralError(f"radial exponent {p} makes the ball integral infinite")
    return r ** (3 + p) / (3 + p)


def power_time_integral(e: float, T: float) -> float:
    """Exact int_0^T u^e du for an integrable power."""
    if e <= -1:
        raise DivergentIntegralError(f"time exponent {e} makes the time integral infinite")
    return T ** (e + 1) / (e + 1)


def graded_nodes(length: float, n: int, levels: int):
    """Nodes and weights on (0, length], graded geometrically toward 0.

    The interval is split into dyadic levels [length*2^-(j+1), length*2^-j]
    plus a core [0, length*2^-levels]; each piece carries a two-point Gauss
    rule.  Exact for cubics per cell, and accurate for integrable power
    singularities once ``levels`` is large enough.  Each rule is built once
    per (length, n, levels); the arrays returned are shared and read-only.
    """
    return _graded_rule(length, n, levels)


@lru_cache(maxsize=64)
def _graded_rule(length: float, n: int, levels: int):
    edges = [length * 2.0 ** (-j) for j in range(levels + 1)]
    edges.append(0.0)
    edges = np.array(edges[::-1])
    cells_per_level = max(1, round(n / 16))
    nodes = []
    weights = []
    for a, b in zip(edges[:-1], edges[1:]):
        sub = np.linspace(a, b, cells_per_level + 1)
        mid = 0.5 * (sub[:-1] + sub[1:])
        h = np.diff(sub)
        nodes.append(mid - 0.5 * h * _GL2)
        nodes.append(mid + 0.5 * h * _GL2)
        weights.append(0.5 * h)
        weights.append(0.5 * h)
    nodes = np.concatenate(nodes)
    weights = np.concatenate(weights)
    order = np.argsort(nodes)
    nodes, weights = nodes[order], weights[order]
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


@lru_cache(maxsize=8)
def _unit_ball_grid(n: int):
    """Cell centers of the n^3 grid on [-1,1]^3 that lie inside the unit ball."""
    axis = _cell_centres(-1.0, 2.0, n)
    pts = _lattice(axis, axis, axis).reshape(-1, 3)
    return pts[_dot3(pts, pts) < 1.0]


@lru_cache(maxsize=8)
def _unit_ball_classes(n: int):
    """One representative (all coordinates positive) per mirror class of
    _unit_ball_grid(n), whose members differ only in coordinate signs, and each
    point's class, both read-only; None unless the cell-centre axis is
    mirror-symmetric bit for bit, which up to N_SPACE_MAX means n a power of 2."""
    axis = _cell_centres(-1.0, 2.0, n)
    if n % 2 or not np.array_equal(axis, -axis[::-1]):
        return None
    half = n // 2
    octant = _lattice(axis[half:], axis[half:], axis[half:]).reshape(-1, 3)
    inside = _dot3(octant, octant) < 1.0  # _dot3 reads squares: a class is in or out
    fold = np.abs(2 * np.arange(n) - (n - 1)) // 2  # |axis[k]| is axis[half + fold[k]]
    cell = ((fold[:, None, None] * half + fold[:, None]) * half + fold).reshape(-1)
    reps, index = octant[inside], (np.cumsum(inside) - 1)[cell[inside[cell]]]
    reps.flags.writeable = index.flags.writeable = False
    return reps, index


def ball_grid(r: float, n: int):
    """Cell-centered quadrature points inside B(r) and the cell volume.

    Points are the scaled unit-grid centers, so grids at different radii
    correspond exactly under spatial scaling.
    """
    return r * _unit_ball_grid(n), _cell_volume(r, n)


def _cell_volume(r: float, n: int) -> float:
    """Volume of one cell of ball_grid(r, n)."""
    return (2.0 * r / n) ** 3


def centered_times(T: float, nt: int) -> np.ndarray:
    """Cell-centered sample times in (-T, 0), ordered increasing."""
    ages = T * (np.arange(nt)[::-1] + 0.5) / nt
    return -ages


@lru_cache(maxsize=8)
def _unit_gauss_legendre(n: int):
    """The n-point Gauss-Legendre rule on [-1, 1], read-only."""
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def _gauss_legendre_on(a: float, b: float, n: int):
    """``_unit_gauss_legendre(n)`` mapped onto [a, b]."""
    x, w = _unit_gauss_legendre(n)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * x, half * w


def gauss_legendre(a: float, b: float, n: int):
    """Gauss-Legendre nodes/weights on [a, b]."""
    return _gauss_legendre_on(a, b, n)
