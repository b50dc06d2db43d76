"""Time grids on [0, T] and the densities that generate them.

A grid density is a normalised, piecewise-linear probability density psi
on a fixed uniform mesh of MESH_PANELS panels.  Its cumulative Psi is then
piecewise quadratic and can be inverted panel-wise in closed form, which is
how quantile grids t_k = Psi^{-1}(k / N) are produced.  Densities are
strictly positive except possibly at T, where weight curves that vanish at
the horizon (the integral-error case) are allowed to pinch to zero.
"""

from __future__ import annotations

import operator

import numpy as np

MESH_PANELS = 4096

__all__ = [
    "MESH_PANELS",
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


class TimeGrid:
    """Strictly increasing time points 0 = t_0 < ... < t_N = T."""

    def __init__(self, points):
        points = np.asarray(points, dtype=float)
        if points.ndim != 1 or points.size < 2:
            raise ValueError("a grid needs at least two points")
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

    ``values`` are the nodal values on the uniform mesh, rescaled so the
    trapezoid integral (exact for piecewise-linear data) is 1.  Interior
    nodes must be strictly positive; only the terminal node may vanish.
    """

    def __init__(self, T: float, values):
        T = float(T)
        if not np.isfinite(T) or T <= 0:
            raise ValueError("T must be positive")
        values = np.asarray(values, dtype=float)
        if values.shape != (MESH_PANELS + 1,):
            raise ValueError(f"values must have shape ({MESH_PANELS + 1},)")
        if not np.all(np.isfinite(values)):
            raise ValueError("density values must be finite")
        if np.any(values < 0):
            raise ValueError("density values must be nonnegative")
        if np.any(values[:-1] == 0.0):
            raise ValueError("density may vanish at T only, not at interior nodes")
        self.T = T
        self.mesh = np.linspace(0.0, T, MESH_PANELS + 1)
        h = T / MESH_PANELS
        mass = np.zeros(values.size)
        mass[1:] = np.cumsum(0.5 * h * (values[1:] + values[:-1]))
        total = mass[-1]
        if total <= 0:
            raise ValueError("density must have positive mass")
        self.values = values / total
        self.cumulative = mass / total
        self.cumulative[-1] = 1.0
        for arr in (self.mesh, self.values, self.cumulative):
            arr.flags.writeable = False

    def psi_at(self, t):
        """Density value by linear interpolation; t may be an array."""
        return np.interp(t, self.mesh, self.values)

    def cum_at(self, t):
        """Cumulative Psi(t), exact for the piecewise-linear density."""
        t = np.asarray(t, dtype=float)
        scalar = t.ndim == 0
        tt = np.clip(np.atleast_1d(t), 0.0, self.T)
        h = self.T / MESH_PANELS
        i = np.clip((tt / h).astype(int), 0, MESH_PANELS - 1)
        s = tt - self.mesh[i]
        a = self.values[i]
        b = (self.values[i + 1] - self.values[i]) / h
        out = self.cumulative[i] + a * s + 0.5 * b * s * s
        out = np.minimum(out, 1.0)
        return float(out[0]) if scalar else out

    def profile(self, u):
        """Quantile function Psi^{-1}(u), the grid generator.

        u <= 0 maps to 0 and u >= 1 to T exactly; interior values are
        solved panel-wise from the quadratic cumulative.
        """
        u = np.asarray(u, dtype=float)
        scalar = u.ndim == 0
        uu = np.atleast_1d(u)
        h = self.T / MESH_PANELS
        i = np.clip(np.searchsorted(self.cumulative, uu, side="right") - 1, 0, MESH_PANELS - 1)
        d = uu - self.cumulative[i]
        a = self.values[i]
        b = (self.values[i + 1] - self.values[i]) / h
        # stable positive root of a s + b s^2 / 2 = d
        disc = np.sqrt(np.maximum(a * a + 2.0 * b * d, 0.0))
        s = 2.0 * d / (a + disc)
        out = self.mesh[i] + s
        out[uu <= 0.0] = 0.0
        out[uu >= 1.0] = self.T
        return float(out[0]) if scalar else out

    def __repr__(self):
        return f"GridDensity(T={self.T}, panels={MESH_PANELS})"


def uniform_density(T: float) -> GridDensity:
    """Constant density 1/T on [0, T]."""
    return GridDensity(T, np.full(MESH_PANELS + 1, 1.0 / float(T)))


def density_from_weight(T: float, w) -> GridDensity:
    """Density proportional to the cube root of a nonnegative weight.

    ``w`` is either a callable on [0, T] or an array of nodal samples on
    the standard mesh.  The cube-root profile is what makes quantile grids
    asymptotically optimal for the mean-square error functionals.
    """
    T = float(T)
    if not np.isfinite(T) or T <= 0:
        raise ValueError("T must be positive")
    if callable(w):
        mesh = np.linspace(0.0, T, MESH_PANELS + 1)
        wv = np.asarray([w(t) for t in mesh], dtype=float)
    else:
        wv = np.asarray(w, dtype=float)
        if wv.shape != (MESH_PANELS + 1,):
            raise ValueError(f"weight samples must have shape ({MESH_PANELS + 1},)")
    if not np.all(np.isfinite(wv)):
        raise ValueError("weight must be finite")
    if np.any(wv < 0):
        raise ValueError("weight must be nonnegative")
    if not np.any(wv > 0):
        raise ValueError("weight must not vanish identically")
    return GridDensity(T, np.cbrt(wv))


def grid_from_density(psi: GridDensity, N: int) -> TimeGrid:
    """Quantile grid t_k = Psi^{-1}(k / N), k = 0..N."""
    N = _index(N)
    if N < 1:
        raise ValueError("N must be at least 1")
    t = psi.profile(np.arange(N + 1) / N)
    t[0] = 0.0
    t[-1] = psi.T
    if not np.all(np.diff(t) > 0):
        raise ValueError("density cumulative is not invertible at this resolution")
    return TimeGrid(t)
