"""Time grids on [0, T] and the densities that generate them.

A grid density is a normalised, piecewise-linear probability density psi
on the uniform mesh its n nodal values span, n - 1 panels on [0, T], so a
constant density is two nodes.  Its cumulative Psi is piecewise quadratic
and is inverted panel-wise in closed form, which is how quantile grids
t_k = Psi^{-1}(k / N) are produced.  Densities are strictly positive except
possibly at T, where weights that vanish at the horizon (the integral-error
case) are allowed to pinch to zero.
"""

from __future__ import annotations

import numbers
import operator

import numpy as np

__all__ = [
    "GridDensity",
    "TimeGrid",
    "uniform_density",
    "density_from_weight",
    "grid_from_density",
]


def _index(v) -> int:
    """v as an int by operator.index; a bool is refused, never read as 0 or 1."""
    if isinstance(v, bool):
        raise TypeError(f"{v!r} is a bool, not an integer")
    return operator.index(v)


def _real(v, name: str) -> float:
    """v as a float if it is a Python or numpy real; a str, a bool or an array is refused, naming it."""
    if isinstance(v, bool) or not isinstance(v, numbers.Real):
        raise TypeError(f"{name} must be a real number, not {v!r}")
    return float(v)


def _no_nan(v, name: str) -> np.ndarray:
    """v as a float array; NaN is refused, naming it, while +-inf is left to clip."""
    v = np.asarray(v, dtype=float)
    if np.isnan(v).any():
        raise ValueError(f"{name} must not be NaN")
    return v


class TimeGrid:
    """Strictly increasing time points 0 = t_0 < ... < t_N = T."""

    def __init__(self, points):
        points = np.array(points, dtype=float, copy=True)  # the caller's array stays theirs
        if points.ndim != 1 or points.size < 2:
            raise ValueError("a grid needs a 1-D array of at least two points")
        if not np.all(np.isfinite(points)):
            raise ValueError("grid points must be finite")
        if points[0] != 0.0:
            raise ValueError("grid must start at exactly 0")
        if not np.all(np.diff(points) > 0):
            raise ValueError("grid points must be strictly increasing")
        self.points = points
        self.points.flags.writeable = False

    @property
    def n_steps(self) -> int:
        return self.points.size - 1

    @property
    def horizon(self) -> float:
        return float(self.points[-1])

    @property
    def steps(self) -> np.ndarray:
        return np.diff(self.points)

    def __repr__(self):
        return f"TimeGrid(N={self.n_steps}, T={self.horizon})"


class GridDensity:
    """Piecewise-linear probability density on [0, T].

    ``values``, at least two, are the nodal values on the uniform mesh of
    len(values) - 1 panels, rescaled so the trapezoid integral (exact for
    piecewise-linear data), which must be finite, is 1.  Interior nodes must
    be strictly positive; only the terminal node may vanish.
    """

    def __init__(self, T: float, values):
        T = _real(T, "T")
        if not np.isfinite(T) or T <= 0:
            raise ValueError("T must be positive")
        values = np.asarray(values, dtype=float)
        if values.ndim != 1 or values.size < 2:
            raise ValueError("values must be a 1-D array of at least two nodes")
        if not np.all(np.isfinite(values)):
            raise ValueError("density values must be finite")
        if np.any(values < 0):
            raise ValueError("density values must be nonnegative")
        if np.any(values[:-1] == 0.0):
            raise ValueError("density may vanish at T only, not at interior nodes")
        self.T = T
        self.mesh = np.linspace(0.0, T, values.size)
        h = T / (values.size - 1)
        mass = np.zeros(values.size)
        with np.errstate(over="ignore"):  # an infinite mass is refused just below
            mass[1:] = np.cumsum(0.5 * h * (values[1:] + values[:-1]))
        total = mass[-1]
        if not (np.isfinite(total) and total > 0):
            raise ValueError("density must have finite, positive mass")
        self.values = values / total
        self.cumulative = mass / total
        self.cumulative[-1] = 1.0
        for arr in (self.mesh, self.values, self.cumulative):
            arr.flags.writeable = False

    def psi_at(self, t):
        """Density value by linear interpolation; t may be an array; NaN is refused."""
        return np.interp(_no_nan(t, "t"), self.mesh, self.values)

    def profile(self, u):
        """Quantile function Psi^{-1}(u), the grid generator.

        u <= 0 maps to 0 and u >= 1 to T exactly, +-inf included, and NaN is
        refused; interior values are solved panel-wise from the quadratic
        cumulative.
        """
        u = _no_nan(u, "u")
        scalar = u.ndim == 0
        uu = np.atleast_1d(u)
        panels = self.values.size - 1
        h = self.T / panels
        i = np.searchsorted(self.cumulative, uu, side="right")
        i -= 1
        np.clip(i, 0, panels - 1, out=i)
        d = uu - self.cumulative[i]
        np.clip(d, 0.0, 1.0, out=d)  # +-inf to the ends; the identity for u in [0, 1]
        # stable positive root s = 2 d / (a + sqrt(a^2 + 2 b d)) of a s + b s^2 / 2 = d,
        # with psi = a + b s on panel i; computed in place from per-panel
        # terms gathered by i, so at most four (N,) arrays live beside u
        v = self.values
        disc = (2.0 * (np.diff(v) / h))[i]  # 2 b
        disc *= d
        disc += (v * v)[i]  # a^2
        np.maximum(disc, 0.0, out=disc)
        np.sqrt(disc, out=disc)
        disc += v[i]  # a
        d *= 2.0
        d /= disc
        out = self.mesh[i]
        out += d
        out[uu <= 0.0] = 0.0
        out[uu >= 1.0] = self.T
        return float(out[0]) if scalar else out

    def __repr__(self):
        return f"GridDensity(T={self.T}, panels={self.values.size - 1})"


def uniform_density(T: float) -> GridDensity:
    """Constant density 1/T on [0, T]: two nodes, one panel."""
    return GridDensity(T, [1.0, 1.0])


def density_from_weight(T: float, w) -> GridDensity:
    """Density proportional to the cube root of a nonnegative weight.

    ``w`` holds the weight's samples on a uniform mesh, the density's.  The cube-root
    profile makes quantile grids asymptotically optimal for the mean-square
    error functionals.  cbrt keeps signs, zeros and non-finite values, so
    GridDensity refuses the roots of a bad weight as it would the weight.
    """
    return GridDensity(T, np.cbrt(np.asarray(w, dtype=float)))


def grid_from_density(psi: GridDensity, N: int) -> TimeGrid:
    """Quantile grid t_k = Psi^{-1}(k / N), k = 0..N."""
    N = _index(N)
    if N < 1:
        raise ValueError("N must be at least 1")
    return TimeGrid(psi.profile(np.arange(N + 1) / N))
