"""Nonnegative Radon measures on (-1, 1): atoms plus densities.

Densities carry *declared* endpoint singularity exponents (density ~
C * dist^(-a) near an endpoint) instead of probing them numerically: the
quadrature grading and all finiteness decisions need them a priori.  Measures
with non-integrable endpoint densities are first-class citizens; their total
mass is reported as +inf and ``solver.potential`` solves them directly;
``truncate(mu, k)`` restricts a measure to [-1 + 2^-k, 1 - 2^-k].  A composite
(scaled, windowed, summed, pushed forward) declares the largest of its parts'
powers and their edges, breaks and kinks together; a window adds its edges, and
a pushforward lowers the power by the factor's edge exponent and adds its kinks.
A side mass is +inf where the declared power is 1 or more, else the cumulative
from 0 at the endpoint; power, scaled and summed densities keep closed masses.

All cumulative bookkeeping is anchored at the center: S(x) = mu((0, x]) for
x >= 0 and -mu((x, 0]) for x < 0 (right-continuous in x).  The anchored form
avoids catastrophic cancellation for deeply truncated measures whose one-sided
masses dwarf interior fluxes.  The classical CDF M(x) = mu([-1, x]) is exposed
on top of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ValidationError
from .quadrature import Points, concat_points, graded_cumulative, points_from_edge, points_from_x

INF = math.inf


# ---------------------------------------------------------------------------
# density models
# ---------------------------------------------------------------------------

class Density:
    """Common interface; subclasses override what they can do in closed form."""

    def values(self, pts: Points) -> np.ndarray:
        raise NotImplementedError

    def sing(self, side: int) -> float:
        """Declared exponent a with density ~ C * dist^(-a) at the endpoint."""
        return 0.0

    def cum0_many(self, pts: Points) -> np.ndarray | None:
        """Closed-form signed integral from 0 to each point, or None."""
        return None

    def side_mass(self, side: int) -> float:
        """Mass on (0, 1) or (-1, 0): side times the cumulative from 0 at the
        endpoint, the closed one where there is one, else the graded one."""
        if self.sing(side) >= 1.0:
            return INF
        edge = points_from_edge(side, np.zeros(1))
        cum = self.cum0_many(edge)
        return side * float((_graded_cum0(self, edge) if cum is None else cum)[0])

    def scaled(self, a: float) -> "Density":
        if a == 0.0:
            return ZeroDensity()
        return _ScaledDensity(self, a)

    def breakpoints_y(self, side: int) -> tuple[float, ...]:
        """Distances from the endpoint at which the density changes regime."""
        return ()

    def interior_breaks(self) -> tuple[float, ...]:
        return ()

    def kinks(self) -> tuple[float, ...]:
        """Interior x where the density is not smooth that need not be grid
        nodes (a pushforward factor's nodes); the graded cumulative joins them."""
        return ()

    @property
    def is_zero(self) -> bool:
        return False

    @property
    def y_resolved(self) -> bool:
        """True when the evaluator resolves endpoint distances exactly
        (family forms in the y coordinate); x-based evaluators lose the
        distance below float spacing and must not be sampled there."""
        return True


class ZeroDensity(Density):
    def values(self, pts: Points) -> np.ndarray:
        return np.zeros(len(pts))

    def cum0_many(self, pts: Points) -> np.ndarray:
        return np.zeros(len(pts))

    def scaled(self, a: float) -> Density:
        return self

    @property
    def is_zero(self) -> bool:
        return True


@dataclass(frozen=True)
class ConstantDensity(Density):
    c: float = 1.0

    def __post_init__(self):
        if self.c < 0.0:
            raise ValidationError("measures.ConstantDensity: density must be nonnegative")

    def values(self, pts: Points) -> np.ndarray:
        return np.full(len(pts), self.c)

    def cum0_many(self, pts: Points) -> np.ndarray:
        return self.c * pts.x

    def scaled(self, a: float) -> Density:
        return ConstantDensity(self.c * a)

    @property
    def is_zero(self) -> bool:
        return self.c == 0.0


@dataclass(frozen=True)
class PowerDensity(Density):
    """coef * (1 - |x|)^(-alpha); non-integrable (infinite mass) when alpha >= 1."""

    alpha: float
    coef: float = 1.0

    def __post_init__(self):
        if self.coef < 0.0:
            raise ValidationError("measures.PowerDensity: coefficient must be nonnegative")
        if self.coef == 0.0:  # the zero density, which declares no power
            object.__setattr__(self, "alpha", 0.0)

    def values(self, pts: Points) -> np.ndarray:
        return self.coef * pts.y ** (-self.alpha)

    def sing(self, side: int) -> float:
        return self.alpha

    def _cum_mag(self, y: np.ndarray) -> np.ndarray:
        """integral of (1 - t)^(-alpha) over (0, x], x = 1 - y >= 0."""
        if self.alpha == 1.0:
            return -np.log(y)
        return (y ** (1.0 - self.alpha) - 1.0) / (self.alpha - 1.0)

    def cum0_many(self, pts: Points) -> np.ndarray:
        return self.coef * pts.side * self._cum_mag(pts.y)

    def side_mass(self, side: int) -> float:
        return INF if self.alpha >= 1.0 else self.coef / (1.0 - self.alpha)

    def scaled(self, a: float) -> Density:
        return PowerDensity(self.alpha, self.coef * a)

    @property
    def is_zero(self) -> bool:
        return self.coef == 0.0


@dataclass(frozen=True)
class ManufacturedDensity(Density):
    """Coefficient density of the manufactured instance u* = 1 - x^2.

    density = 2^(p-1) (p-1) |x|^(p-2) (1 - x^2)^(-q), built so that
    -(|u*'|^(p-2) u*')' = density * u*^q for the unweighted problem.
    Needs p >= 2 (so |x|^(p-2) stays bounded) and 0 <= q < 1.
    """

    p: float = 3.0
    q: float = 0.5

    def __post_init__(self):
        if not (self.p >= 2.0):
            raise ValidationError("measures.ManufacturedDensity: needs p >= 2")
        if not (0.0 <= self.q < 1.0):
            raise ValidationError("measures.ManufacturedDensity: needs 0 <= q < 1")

    def values(self, pts: Points) -> np.ndarray:
        c = 2.0 ** (self.p - 1.0) * (self.p - 1.0)
        ax = np.where(pts.y < 0.5, 1.0 - pts.y, np.abs(pts.x))  # |x|, exact on both sides
        return c * ax ** (self.p - 2.0) * (pts.y * (2.0 - pts.y)) ** (-self.q)

    def sing(self, side: int) -> float:
        return self.q

    def interior_breaks(self) -> tuple[float, ...]:
        return (0.0,)


@dataclass(frozen=True)
class TabulatedDensity(Density):
    """Piecewise-linear density from (x, value) samples; zero outside the samples."""

    xs: tuple[float, ...]
    vals: tuple[float, ...]
    # xs, vals and the trapezoid cumulative at xs, as read-only arrays
    _table: tuple[np.ndarray, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        xs = np.asarray(self.xs, dtype=float)
        vs = np.asarray(self.vals, dtype=float)
        if xs.size < 2 or np.any(np.diff(xs) <= 0.0):
            raise ValidationError("measures.TabulatedDensity: need >= 2 strictly increasing abscissae")
        if np.any(vs < 0.0):
            raise ValidationError("measures.TabulatedDensity: values must be nonnegative")
        if xs[0] < -1.0 or xs[-1] > 1.0:
            raise ValidationError("measures.TabulatedDensity: abscissae must lie in [-1, 1]")
        cum = np.concatenate([[0.0], np.cumsum(0.5 * (vs[1:] + vs[:-1]) * np.diff(xs))])
        _freeze(xs, vs, cum)
        object.__setattr__(self, "_table", (xs, vs, cum))

    def values(self, pts: Points) -> np.ndarray:
        xs, vs, _ = self._table
        out = np.interp(pts.x, xs, vs)
        out[(pts.x < xs[0]) | (pts.x > xs[-1])] = 0.0
        return out

    def _cum_at(self, x: np.ndarray) -> np.ndarray:
        xs, vs, cum = self._table
        xc = np.clip(x, xs[0], xs[-1])
        idx = np.clip(np.searchsorted(xs, xc, side="right") - 1, 0, xs.size - 2)
        x0 = xs[idx]
        t = xc - x0
        slope = (vs[idx + 1] - vs[idx]) / (xs[idx + 1] - xs[idx])
        return cum[idx] + vs[idx] * t + 0.5 * slope * t * t

    def cum0_many(self, pts: Points) -> np.ndarray:
        return self._cum_at(pts.x) - self._cum_at(np.zeros(1))[0]

    def interior_breaks(self) -> tuple[float, ...]:
        if len(self.xs) <= 64:
            return tuple(self.xs)
        return (self.xs[0], self.xs[-1])

    @property
    def is_zero(self) -> bool:
        return not self._table[1].any()

    @property
    def y_resolved(self) -> bool:
        return False


@dataclass(frozen=True)
class CustomDensity(Density):
    """User density: vectorized evaluator plus declared endpoint exponents.

    ``cum0`` (signed integral from 0, a scalar-or-array callable) may be
    supplied when the caller knows a closed cumulative form.
    """

    func: Callable[[np.ndarray], np.ndarray]
    sing_left: float = 0.0
    sing_right: float = 0.0
    cum0: Callable[[np.ndarray], np.ndarray] | None = None
    breaks: tuple[float, ...] = ()

    def values(self, pts: Points) -> np.ndarray:
        return np.asarray(self.func(pts.x), dtype=float)

    def sing(self, side: int) -> float:
        return self.sing_left if side < 0 else self.sing_right

    def cum0_many(self, pts: Points) -> np.ndarray | None:
        if self.cum0 is None:
            return None
        return np.asarray(self.cum0(pts.x), dtype=float)

    def interior_breaks(self) -> tuple[float, ...]:
        return self.breaks

    @property
    def y_resolved(self) -> bool:
        return False


class _Composite(Density):
    """A density built from ``_parts``, with its geometry by the rule in the
    module docstring; it is zero, or y-resolved, when all its parts are."""

    @property
    def _parts(self) -> tuple[Density, ...]:
        return (self.base,)

    def sing(self, side: int) -> float:
        return max(p.sing(side) for p in self._parts)

    def breakpoints_y(self, side: int) -> tuple[float, ...]:
        return sum((p.breakpoints_y(side) for p in self._parts), ())

    def interior_breaks(self) -> tuple[float, ...]:
        return sum((p.interior_breaks() for p in self._parts), ())

    def kinks(self) -> tuple[float, ...]:
        return sum((p.kinks() for p in self._parts), ())

    @property
    def is_zero(self) -> bool:
        return all(p.is_zero for p in self._parts)

    @property
    def y_resolved(self) -> bool:
        return all(p.y_resolved for p in self._parts)


@dataclass(frozen=True)
class _ScaledDensity(_Composite):
    base: Density
    factor: float

    def values(self, pts: Points) -> np.ndarray:
        return self.factor * self.base.values(pts)

    def cum0_many(self, pts: Points) -> np.ndarray | None:
        c = self.base.cum0_many(pts)
        return None if c is None else self.factor * c

    def side_mass(self, side: int) -> float:
        return self.factor * self.base.side_mass(side)

    def scaled(self, a: float) -> Density:
        return self.base.scaled(self.factor * a)


@dataclass(frozen=True)
class WindowedDensity(_Composite):
    """Restriction of a density to [-1 + y_left, 1 - y_right].

    The window edges are stored as distances to the endpoints so dyadic
    truncations remain exact arbitrarily deep.
    """

    base: Density
    y_left: float = 0.0
    y_right: float = 0.0

    def __post_init__(self):
        if not (0.0 <= self.y_left < 1.0 and 0.0 <= self.y_right < 1.0):
            raise ValidationError("measures.WindowedDensity: window edges must lie in [0, 1)")

    def _outside(self, pts: Points) -> tuple[np.ndarray, np.ndarray]:
        return ((pts.side < 0) & (pts.y < self.y_left)), ((pts.side > 0) & (pts.y < self.y_right))

    def _clip(self, pts: Points) -> Points:
        left, right = self._outside(pts)
        if not (np.any(left) or np.any(right)):
            return pts
        y, x = pts.y.copy(), pts.x.copy()
        y[left], x[left] = self.y_left, -1.0 + self.y_left
        y[right], x[right] = self.y_right, 1.0 - self.y_right
        return Points(x=x, side=pts.side, y=y)

    def values(self, pts: Points) -> np.ndarray:
        left, right = self._outside(pts)
        return np.where(left | right, 0.0, self.base.values(pts))

    def sing(self, side: int) -> float:
        edge = self.y_left if side < 0 else self.y_right
        return 0.0 if edge > 0.0 else self.base.sing(side)

    def cum0_many(self, pts: Points) -> np.ndarray | None:
        return self.base.cum0_many(self._clip(pts))

    def scaled(self, a: float) -> Density:
        return WindowedDensity(self.base.scaled(a), self.y_left, self.y_right)

    def breakpoints_y(self, side: int) -> tuple[float, ...]:
        edge = self.y_left if side < 0 else self.y_right
        extra = (edge,) if edge > 0.0 else ()
        return extra + self.base.breakpoints_y(side)

    def interior_breaks(self) -> tuple[float, ...]:
        ib = [b for b in self.base.interior_breaks()
              if -1.0 + self.y_left <= b <= 1.0 - self.y_right]
        if self.y_left >= 1e-12:
            ib.append(-1.0 + self.y_left)
        if self.y_right >= 1e-12:
            ib.append(1.0 - self.y_right)
        return tuple(ib)


@dataclass(frozen=True)
class SumDensity(_Composite):
    parts: tuple[Density, ...]

    @property
    def _parts(self) -> tuple[Density, ...]:
        return self.parts

    def values(self, pts: Points) -> np.ndarray:
        out = np.zeros(len(pts))
        for p in self.parts:
            out += p.values(pts)
        return out

    def cum0_many(self, pts: Points) -> np.ndarray | None:
        out = np.zeros(len(pts))
        for p in self.parts:
            c = p.cum0_many(pts)
            if c is None:
                return None
            out += c
        return out

    def side_mass(self, side: int) -> float:
        return sum(p.side_mass(side) for p in self.parts)

    def scaled(self, a: float) -> Density:
        return SumDensity(tuple(p.scaled(a) for p in self.parts))


@dataclass(frozen=True)
class ProductDensity(_Composite):
    """base density multiplied by a nonnegative factor (e.g. u^q for iteration).

    The factor object provides ``values(pts)`` and ``edge_exponent(side)``
    (factor ~ C * dist^kappa near the endpoint), and optionally ``kinks()``;
    the product's declared singularity is base.sing - kappa.
    """

    base: Density
    factor: object

    def values(self, pts: Points) -> np.ndarray:
        return self.base.values(pts) * np.asarray(self.factor.values(pts), dtype=float)

    def sing(self, side: int) -> float:
        return self.base.sing(side) - float(self.factor.edge_exponent(side))

    def kinks(self) -> tuple[float, ...]:
        return self.base.kinks() + tuple(getattr(self.factor, "kinks", tuple)())


def _freeze(*arrays: np.ndarray) -> None:
    for a in arrays:
        a.setflags(write=False)


def _graded_cum0(density: Density, pts: Points, atoms=()) -> np.ndarray:
    """Signed integral of a density from 0 to each point by the graded
    cumulative, graded toward its declared breaks and joined at its kinks,
    its regime edges and ``atoms``."""
    joins = concat_points(
        points_from_x(np.asarray(density.kinks() + tuple(atoms), dtype=float)),
        *(points_from_edge(side, np.asarray(density.breakpoints_y(side), dtype=float))
          for side in (-1, 1)))
    return graded_cumulative(density.values, pts, joins, (density.sing(-1), density.sing(1)),
                             density.y_resolved, corners=density.interior_breaks())


# ---------------------------------------------------------------------------
# the measure itself
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RadonMeasure:
    """Atoms plus a density on (-1, 1); immutable."""

    atoms: tuple[tuple[float, float], ...] = ()
    density: Density = field(default_factory=ZeroDensity)
    # the atoms' locations, masses, running sum of masses from 0 and its
    # part up to x = 0, as read-only arrays
    _atom_table: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        merged: dict[float, float] = {}  # sorted by location; duplicates merge
        for x, m in sorted((float(x), float(m)) for x, m in self.atoms):
            if not (-1.0 < x < 1.0):
                raise ValidationError("measures.RadonMeasure: atom locations must lie in (-1, 1)")
            if m <= 0.0:
                raise ValidationError("measures.RadonMeasure: atom masses must be positive")
            merged[x] = merged.get(x, 0.0) + m
        object.__setattr__(self, "atoms", tuple(merged.items()))
        locs = np.asarray(list(merged), dtype=float)
        masses = np.asarray(list(merged.values()), dtype=float)
        cum = np.concatenate([[0.0], np.cumsum(masses)])
        _freeze(locs, masses, cum)
        object.__setattr__(self, "_atom_table",
                           (locs, masses, cum, cum[np.searchsorted(locs, 0.0, side="right")]))

    # -- basic structure -------------------------------------------------

    @property
    def atom_locations(self) -> np.ndarray:
        return self._atom_table[0]

    @property
    def atom_masses(self) -> np.ndarray:
        return self._atom_table[1]

    @property
    def is_zero(self) -> bool:
        return len(self.atoms) == 0 and self.density.is_zero

    def sing(self, side: int) -> float:
        return self.density.sing(side)

    def atom_side_mass(self, side: int) -> float:
        """Atom mass on (0, 1) or (-1, 0] (an atom at 0 counts left)."""
        locs, masses = self.atom_locations, self.atom_masses
        return float(masses[locs > 0.0].sum() if side > 0 else masses[locs <= 0.0].sum())

    def side_mass(self, side: int) -> float:
        """mu((0, 1)) or mu((-1, 0]), atoms included (atom at 0 counts left)."""
        return self.density.side_mass(side) + self.atom_side_mass(side)

    def total_mass(self) -> float:
        return self.side_mass(1) + self.side_mass(-1)

    # -- anchored cumulative ----------------------------------------------

    def _atom_cum(self, x: np.ndarray, side: str) -> np.ndarray:
        """The atom part of S, right-continuous (``side="right"``: an atom
        at x counts in S(x)) or left-continuous (``side="left"``)."""
        locs, _, cum, upto0 = self._atom_table
        return cum[np.searchsorted(locs, x, side=side)] - upto0

    def atom_cum_center(self, x: np.ndarray) -> np.ndarray:
        """Signed atom count-mass of (0, x] (x>0) / -(x, 0] (x<0), right-continuous."""
        return self._atom_cum(x, "right")

    def cum_center_many(self, pts: Points) -> np.ndarray:
        """S at many points; the density part is its closed cumulative, or
        the graded one joined at the atoms (``quadrature.graded_cumulative``)."""
        dens = self.density.cum0_many(pts)
        if dens is None:
            dens = _graded_cum0(self.density, pts, self.atom_locations)
        return dens + self.atom_cum_center(pts.x)

    def cum_center(self, x: float) -> float:
        """S(x) = signed mass from the center anchor (scalar)."""
        return float(self.cum_center_many(points_from_x(np.asarray([x])))[0])

    # -- public operations --------------------------------------------------

    def cdf(self, x: float) -> float:
        """M(x) = mu([-1, x]), right-continuous; +inf allowed."""
        if not (-1.0 <= x < 1.0):
            raise ValidationError(f"measures.cdf: x must lie in [-1, 1), got {x}")
        if x == -1.0:
            return 0.0
        left = self.side_mass(-1)
        if math.isinf(left):
            return INF
        return left + self.cum_center(x)

    def ball_mass(self, x: float, r: float) -> float:
        """mu(B(x, r) cap (-1, 1)) for the open ball B(x, r).

        Both endpoints of the ball are excluded: an atom sitting exactly at
        x - r or x + r does not contribute.
        """
        if not (r > 0.0):
            raise ValidationError("measures.ball_mass: need r > 0")
        return float(self.ball_masses(x, np.asarray([r]))[0])

    def ball_masses(self, x: float, rs: np.ndarray) -> np.ndarray:
        """mu(B(x, r) cap (-1, 1)) for an array of radii; +inf where the ball
        reaches an endpoint carrying non-integrable density."""
        rs = np.asarray(rs, dtype=float)
        a = np.maximum(x - rs, -1.0)
        b = np.minimum(x + rs, 1.0)
        in_a, in_b = a > -1.0, b < 1.0
        S = self.cum_center_many(points_from_x(np.concatenate([a[in_a], b[in_b]])))
        # a side mass is needed only where a ball reaches that endpoint
        Sa = np.full(rs.size, 0.0 if in_a.all() else -self.side_mass(-1))
        Sb = np.full(rs.size, 0.0 if in_b.all() else self.side_mass(1))
        Sa[in_a], Sb[in_b] = S[:int(in_a.sum())], S[int(in_a.sum()):]
        # the ball is open: an atom exactly at its right end b is taken out
        # of Sb (the left end is already out of Sa's right-continuous S);
        # no atom sits at b = 1
        locs = self.atom_locations
        atom_b = np.zeros(rs.size)
        if locs.size:
            i = np.minimum(np.searchsorted(locs, b), locs.size - 1)
            on_end = locs[i] == b
            atom_b[on_end] = self.atom_masses[i[on_end]]
        out = Sb - Sa - atom_b
        out[b <= a] = 0.0
        return out

    def truncate(self, k: int) -> "RadonMeasure":
        """Restriction to F_k = [-1 + 2^-k, 1 - 2^-k]."""
        if not (isinstance(k, (int, np.integer)) and k >= 1):
            raise ValidationError(f"measures.truncate: k must be a positive integer, got {k!r}")
        edge = 2.0 ** (-int(k))
        return self.window(edge, edge)

    def window(self, y_left: float, y_right: float) -> "RadonMeasure":
        if isinstance(self.density, WindowedDensity):
            dens = WindowedDensity(self.density.base,
                                   max(self.density.y_left, y_left),
                                   max(self.density.y_right, y_right))
        elif self.density.is_zero:
            dens = self.density
        else:
            dens = WindowedDensity(self.density, y_left, y_right)
        atoms = tuple((x, m) for x, m in self.atoms
                      if -1.0 + y_left <= x <= 1.0 - y_right)
        return RadonMeasure(atoms=atoms, density=dens)

    def scale(self, a: float) -> "RadonMeasure":
        if a < 0.0:
            raise ValidationError("measures.scale: factor must be nonnegative")
        if a == 0.0:
            return RadonMeasure()
        return RadonMeasure(atoms=tuple((x, a * m) for x, m in self.atoms),
                            density=self.density.scaled(a))

    def add(self, other: "RadonMeasure") -> "RadonMeasure":
        if self.density.is_zero:
            dens = other.density
        elif other.density.is_zero:
            dens = self.density
        else:
            dens = SumDensity((self.density, other.density))
        return RadonMeasure(atoms=self.atoms + other.atoms, density=dens)

    def pushforward(self, factor) -> "RadonMeasure":
        """g * mu for a nonnegative factor g (``values``/``edge_exponent`` duck type).

        Atom masses are multiplied by g at the atom; g must be finite there.
        """
        locs = self.atom_locations
        new_atoms = []
        if locs.size:
            gvals = np.asarray(factor.values(points_from_x(locs)), dtype=float)
            if np.any(~np.isfinite(gvals)):
                raise ValidationError("measures.pushforward: factor is not finite at an atom")
            if np.any(gvals < 0.0):
                raise ValidationError("measures.pushforward: factor must be nonnegative")
            for (x, m), g in zip(self.atoms, gvals):
                if g > 0.0:
                    new_atoms.append((x, m * g))
        dens = self.density if self.density.is_zero else ProductDensity(self.density, factor)
        return RadonMeasure(atoms=tuple(new_atoms), density=dens)

    # -- quadrature metadata -------------------------------------------------

    def breakpoints_y(self, side: int) -> tuple[float, ...]:
        return self.density.breakpoints_y(side)

    def interior_breaks(self) -> tuple[float, ...]:
        return self.density.interior_breaks()


@dataclass(frozen=True)
class CumulativeMass:
    """M(x) = mu([-1, x]) as an evaluable object (right-continuous by convention:
    an atom at x contributes to M(x))."""

    measure: RadonMeasure
    right_continuous: bool = True

    def __call__(self, x: float) -> float:
        return self.measure.cdf(x)


# ---------------------------------------------------------------------------
# constructors and module-level operation wrappers
# ---------------------------------------------------------------------------

def dirac(x: float = 0.0, mass: float = 1.0) -> RadonMeasure:
    return RadonMeasure(atoms=((x, mass),))


def lebesgue(c: float = 1.0) -> RadonMeasure:
    return RadonMeasure(density=ConstantDensity(c))


def power_measure(alpha: float, coef: float = 1.0) -> RadonMeasure:
    return RadonMeasure(density=PowerDensity(alpha, coef))


def manufactured_measure(p: float = 3.0, q: float = 0.5) -> RadonMeasure:
    return RadonMeasure(density=ManufacturedDensity(p, q))


def cdf(mu: RadonMeasure, x: float) -> float:
    return mu.cdf(x)


def truncate(mu: RadonMeasure, k: int) -> RadonMeasure:
    return mu.truncate(k)


def ball_mass(mu: RadonMeasure, x: float, r: float) -> float:
    return mu.ball_mass(x, r)


def scale(mu: RadonMeasure, a: float) -> RadonMeasure:
    return mu.scale(a)


def add(mu: RadonMeasure, nu: RadonMeasure) -> RadonMeasure:
    return mu.add(nu)


def weighted_pushforward(mu: RadonMeasure, g) -> RadonMeasure:
    return mu.pushforward(g)


@dataclass(frozen=True)
class CallableFactor:
    """Adapter turning a plain callable into a pushforward factor."""

    func: Callable[[np.ndarray], np.ndarray]
    exp_left: float = 0.0
    exp_right: float = 0.0

    def values(self, pts: Points) -> np.ndarray:
        return np.asarray(self.func(pts.x), dtype=float)

    def edge_exponent(self, side: int) -> float:
        return self.exp_left if side < 0 else self.exp_right
