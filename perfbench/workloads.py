"""Seeded workload generators for the sublap benchmark.

A workload is an endless sequence of *blocks*.  Every block has the same
composition of operation kinds, so every run measures the same mix; the seed
only moves the parameters inside their ranges.  Parameters are stratified
over a round of blocks (see ``Draws``), which keeps the mean cost of a run
nearly independent of the seed.

Each block also carries the workload's fixed *reference panel*: closed-form
instances that are the same for every seed.  ``max_ref_err`` is the worst
error over that panel, so it is a deterministic property of the code and
comparable across seeds.  Seeded instances are checked too (closed forms where
they exist, otherwise homogeneity, agreement or invariants) and count towards
the failure fraction.

Operations call the library through module attributes looked up at call time
(``lib.solver.solve_dirichlet(...)``), so the tracing wrappers installed on
those attributes see every call.

Tolerances are the ones pinned in ``sublap.acceptance``; the criterion each
comes from is named next to it.  The two checks that no criterion pins say so.
"""

from __future__ import annotations

import importlib
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

TOL_GREEN = 1e-8           # criterion_1: Green/Dirac family, max norm
TOL_POWER_FAMILY = 1e-6    # criterion_2: exact power family, max norm
TOL_ENERGY_IDENTITY = 1e-5  # criterion_3: energy identity gap
TOL_MANUFACTURED = 1e-5    # criterion_4: iteration recovery of 1 - x^2
TOL_SOLVE_HOMOG = 1e-9     # criterion_11: solver homogeneity, relative
TOL_WOLFF_HOMOG = 1e-10    # criterion_11: Wolff homogeneity, relative
# not pinned by a criterion: Dirac Wolff samples integrate a constant, so they
# get the Wolff homogeneity tolerance; a finite-mass ladder must agree with
# the direct solve to within ten times the solver's own ladder tolerance
TOL_WOLFF_DIRAC = 1e-10
TOL_LADDER_VS_DIRECT = 1e-8
DEAD_BAND = 0.05           # hardy_sweep's default band around alpha*

CRITERION_2_SCHEDULE = tuple(range(1, 101))


class Lib:
    """The sublap modules the workloads call into, imported by module path
    (``from sublap import energy`` would yield the function, not the module)."""

    def __init__(self):
        for name in ("errors", "measures", "weights", "solver", "energy",
                     "sublinear", "wolff", "params"):
            setattr(self, name, importlib.import_module("sublap." + name))


@dataclass
class Op:
    """One timed call into the library plus its correctness check.

    ``check`` returns (passed, reference error or None); ``desc`` holds the
    generated inputs, ``digest`` reduces an output to bytes for bit-identity
    tests and ``counts`` extracts per-operation counters from the output.
    """

    kind: str
    desc: tuple
    call: Callable[[], object]
    check: Callable[[object], tuple[bool, float | None]]
    digest: Callable[[object], bytes]
    # set on ladder operations, whose finite-mass share is recorded
    finite_mass: bool | None = None
    counts: Callable[[object], dict] = field(default=lambda res: {})


class Draws:
    """The random source of one workload run.

    ``strata(n, lo, hi)`` is stratified over a *round* of blocks: the k-th
    call of every block draws from one pool per round, whose n * round values
    fall one in each stratum of [lo, hi].  A run that covers a round thus
    sees nearly the same parameter distribution whatever the seed.  Other
    draws go straight to the numpy generator.
    """

    def __init__(self, rng: np.random.Generator, round_blocks: int):
        self.rng = rng
        self.round_blocks = round_blocks
        self._block = -1
        self._site = 0
        self._pools: list[np.ndarray] = []

    def __getattr__(self, name):
        return getattr(self.rng, name)

    def next_block(self) -> None:
        self._block += 1
        self._site = 0
        if self._block % self.round_blocks == 0:
            self._pools = []

    def strata(self, n: int, lo: float, hi: float) -> np.ndarray:
        if self._site == len(self._pools):
            m = n * self.round_blocks
            self._pools.append((self.rng.permutation(m) + self.rng.random(m)) / m)
        j = self._block % self.round_blocks
        u = self._pools[self._site][j * n:(j + 1) * n]
        self._site += 1
        return lo + u * (hi - lo)


def _random_weight(lib: Lib, rng: np.random.Generator, p: float, constant: bool,
                   beta_max: float = 0.8):
    if constant:
        return lib.weights.constant_weight(), ("const",)
    beta = float(rng.uniform(-0.4, min(0.6 * (p - 1.0), beta_max)))
    return lib.weights.power_weight(beta), ("power", beta)


def _random_finite_measure(lib: Lib, rng: np.random.Generator, alpha: float, coef: float):
    """One or two atoms plus coef * (1 - |x|)^-alpha, alpha <= 0.5."""
    atoms = tuple((float(rng.uniform(-0.8, 0.8)), float(rng.uniform(0.3, 2.0)))
                  for _ in range(int(rng.integers(1, 3))))
    mu = lib.measures.RadonMeasure(atoms=atoms).add(lib.measures.power_measure(alpha, coef))
    return mu, ("atoms", atoms, "alpha", alpha, "coef", coef)


def _values_digest(res) -> bytes:
    return res.u.values.tobytes() + float(res.flux_anchor).hex().encode()


def _u_sane(values: np.ndarray) -> bool:
    return bool(np.all(np.isfinite(values)) and np.min(values) >= 0.0
                and np.max(values) > 0.0 and values[0] == 0.0 and values[-1] == 0.0)


def _power_family(lib: Lib, p: float, beta: float, frac: float):
    """criterion_2's exact family: u = (1 - |x|)^A solves the problem for an
    atom at 0 plus a power density whose exponent exceeds 1 (infinite mass)."""
    A = frac * (1.0 - beta / (p - 1.0))
    m = (A - 1.0) * (p - 1.0) + beta
    coef = -A ** (p - 1.0) * m
    mu = lib.measures.RadonMeasure(
        atoms=((0.0, 2.0 * A ** (p - 1.0)),),
        density=lib.measures.PowerDensity(alpha=1.0 - m, coef=coef))
    w = lib.weights.power_weight(beta) if beta != 0.0 else lib.weights.constant_weight()
    return w, mu, A


# ---------------------------------------------------------------------------
# solves: single exact Dirichlet solves
# ---------------------------------------------------------------------------

# (p, atom location, atom mass) with constant weight: the centred unit Diracs
# of criterion_1 plus off-centre ones, whose flux constant comes from a root
# find rather than symmetry
GREEN_REFERENCES = ((1.5, 0.0, 1.0), (2.0, 0.0, 1.0), (3.0, 0.0, 1.0),
                    (1.6, 0.3, 1.3), (2.4, -0.45, 0.7), (3.2, 0.6, 2.0))


def _green_op(lib: Lib, p: float, a: float, m: float) -> Op:
    e = 1.0 / (p - 1.0)
    r = ((1.0 - a) / (1.0 + a)) ** (p - 1.0)
    c = m * r / (1.0 + r)
    w = lib.weights.constant_weight()
    mu = lib.measures.dirac(a, m)

    def check(res):
        x = res.u.x
        exact = np.where(x <= a, c ** e * (1.0 + x), (m - c) ** e * (1.0 - x))
        err = float(np.max(np.abs(res.u.values - exact)))
        return err <= TOL_GREEN, err

    return Op("green", ("green", p, a, m), lambda: lib.solver.solve_dirichlet(p, w, mu),
              check, _values_digest)


def solve_block(lib: Lib, rng: Draws) -> list[Op]:
    n = 8
    ps = rng.strata(n, 1.6, 3.2)
    alphas = rng.strata(n, 0.0, 0.5)
    coefs = rng.strata(n, 0.2, 1.5)
    scales = rng.strata(n, 0.25, 4.0)
    constant = rng.permutation([True] * 3 + [False] * (n - 3))
    refs = [_green_op(lib, *g) for g in GREEN_REFERENCES]
    ops: list[Op] = []
    for i in range(n):
        p, a = float(ps[i]), float(scales[i])
        w, wdesc = _random_weight(lib, rng, p, bool(constant[i]))
        mu, mdesc = _random_finite_measure(lib, rng, float(alphas[i]), float(coefs[i]))
        twin_mu = mu.scale(a)
        first: dict = {}

        def check_draw(res, first=first):
            first["u"] = res.u.values
            return _u_sane(res.u.values), None

        def check_twin(res, p=p, a=a, first=first):
            if "u" not in first:
                return False, None
            u2 = res.u.values
            scale = max(float(np.max(u2)), 1e-300)
            rel = float(np.max(np.abs(u2 - a ** (1.0 / (p - 1.0)) * first["u"]))) / scale
            return rel <= TOL_SOLVE_HOMOG, None

        ops.append(Op("solve", ("solve", p) + wdesc + mdesc,
                      lambda p=p, w=w, mu=mu: lib.solver.solve_dirichlet(p, w, mu),
                      check_draw, _values_digest))
        ops.append(Op("solve_twin", ("solve_twin", p, a) + wdesc + mdesc,
                      lambda p=p, w=w, mu=twin_mu: lib.solver.solve_dirichlet(p, w, mu),
                      check_twin, _values_digest))
        if refs:
            ops.append(refs.pop(0))
    return ops


# ---------------------------------------------------------------------------
# ladders: truncation ladders (potential, energy, hardy_sweep rows)
# ---------------------------------------------------------------------------

# (p, beta, frac) from criterion_2's grid
POWER_FAMILY_REFERENCES = ((2.0, 0.0, 0.65), (3.0, 0.5, 0.85))


def _power_family_op(lib: Lib, p: float, beta: float, frac: float, reference: bool) -> Op:
    w, mu, A = _power_family(lib, p, beta, frac)

    def check(res):
        if res.diverged:
            return False, None
        err = float(np.max(np.abs(res.u.values - (1.0 - np.abs(res.u.x)) ** A)))
        return err <= TOL_POWER_FAMILY, err

    def check_seeded(res):
        return check(res)[0], None

    kind = "power_family_ref" if reference else "power_family"
    return Op(kind, (kind, p, beta, frac),
              lambda: lib.solver.potential(p, w, mu, schedule=CRITERION_2_SCHEDULE),
              check if reference else check_seeded, _values_digest, finite_mass=False)


def _finite_potential_op(lib: Lib, p: float, alpha: float, coef: float,
                         w, wdesc: tuple) -> Op:
    mu = lib.measures.power_measure(alpha, coef)

    def check(res):
        if res.diverged or not res.ladder_converged:
            return False, None
        direct = lib.solver.solve_dirichlet(p, w, mu)
        gap = float(np.max(np.abs(res.u.values_at(direct.u.grid) - direct.u.values)))
        return gap <= TOL_LADDER_VS_DIRECT * max(float(np.max(direct.u.values)), 1e-300), None

    return Op("finite_potential", ("finite_potential", p, alpha, coef) + wdesc,
              lambda: lib.solver.potential(p, w, mu), check, _values_digest,
              finite_mass=True)


def _energy_op(lib: Lib, p: float, gamma: float, alpha: float, beta: float,
               w, wdesc: tuple) -> Op:
    """energy(gamma) of the power measure (1 - |x|)^-alpha, finite mass for
    alpha < 1 and infinite mass for 1 <= alpha < p - beta.

    The energy is finite exactly for alpha below hardy_threshold written in
    gamma itself, alpha*(gamma) = 1 + gamma (p - 1 - beta) / (p - 1 + gamma)
    (hardy_threshold takes q, with gamma = (1 + q)(p - 1)/(p - 1 - q)).  As in
    hardy_sweep, a ladder within the dead band of alpha* may go either way.  A
    finite energy must also meet criterion_3's identity and sandwich checks.
    """
    mu = lib.measures.power_measure(alpha)
    astar = 1.0 + gamma * (p - 1.0 - beta) / (p - 1.0 + gamma)
    in_band = abs(alpha - astar) <= DEAD_BAND

    def check(rep):
        if rep.diverged:
            return in_band or alpha > astar, None
        ok = (math.isfinite(rep.e_gamma) and rep.e_gamma > 0.0
              and rep.identity_gap <= TOL_ENERGY_IDENTITY and rep.sandwich_pass)
        return ok and (in_band or alpha < astar), None

    finite = alpha < 1.0
    kind = "energy" if finite else "energy_infinite"
    return Op(kind, (kind, p, gamma, alpha) + wdesc,
              lambda: lib.energy.energy(p, w, mu, gamma), check,
              lambda rep: float(rep.e_gamma).hex().encode() + float(rep.grad_energy).hex().encode(),
              finite_mass=finite)


# criterion_8's (p, beta, q) triples
HARDY_TRIPLES = ((2.0, 0.0, 0.5), (2.0, 0.5, 0.0), (3.0, 1.0, 0.5), (1.5, -0.5, 0.25))


def _hardy_op(lib: Lib, p: float, beta: float, q: float, side: int, offset: float) -> Op:
    """One hardy_sweep row at alpha* + side * offset, outside the dead band;
    above the threshold alpha stays below p - beta - 0.01 as in criterion_8."""
    astar = lib.params.hardy_threshold(p, q, beta)
    alpha = astar - offset if side < 0 else min(astar + offset, p - beta - 0.01)

    def check(rows):
        row = rows[0]
        return bool(row["agree"]) and not row["in_dead_band"] \
            and row["classification"] == row["expected"], None

    return Op("hardy_row", ("hardy_row", p, beta, q, alpha),
              lambda: lib.sublinear.hardy_sweep(p, beta, q, [alpha]), check,
              lambda rows: repr(rows).encode(), finite_mass=False)


def ladder_block(lib: Lib, rng: Draws) -> list[Op]:
    """The seeded domains stop where the seed commit's ladders start to miss
    their checks (see the README's list of known defects and ``defects.py``):
    a benchmark run must have no failed operation."""
    ops = [_power_family_op(lib, *ref, reference=True) for ref in POWER_FAMILY_REFERENCES]
    # criterion_2's box, p in [1.5, 3], beta in [-0.5, 0.5) and frac in
    # [0.45, 0.85], cut to beta/(p - 1) <= 0.5: the error grows from ~1e-8
    # past 0.5 to above 1e-6 near 0.63
    for p, u, frac in zip(rng.strata(2, 1.5, 3.0), rng.strata(2, 0.0, 1.0),
                          rng.strata(2, 0.45, 0.85)):
        beta = -0.5 + float(u) * (min(0.5, 0.5 * (p - 1.0)) + 0.5)
        ops.append(_power_family_op(lib, float(p), beta, float(frac), reference=False))
    # alpha <= 0.8 and beta <= 0.2 need at most ~33 of the 40 ladder levels;
    # from alpha + beta ~1.07 (at small p) a ladder can stop unconverged
    for i, (p, alpha, coef) in enumerate(zip(rng.strata(2, 1.6, 3.0),
                                             rng.strata(2, 0.1, 0.8),
                                             rng.strata(2, 0.5, 1.5))):
        w, wdesc = _random_weight(lib, rng, float(p), i == 0, beta_max=0.2)
        ops.append(_finite_potential_op(lib, float(p), float(alpha), float(coef), w, wdesc))
    # energies on finite-mass (alpha in [0.1, 0.7]) and infinite-mass
    # (alpha = 1 + u (p - beta - 1), u in [0, 1)) power measures.  gamma = 0.5
    # with beta < 0 can raise from alpha ~0.9 up, and on infinite mass can
    # also miss the identity unconverged, so it is left out there; with
    # gamma = 0.5 ladders run out of their 40 levels from alpha ~0.73
    for finite, lo, hi, gammas in ((True, 0.1, 0.7, [0.5, 1.0, 2.0]),
                                   (False, 0.0, 1.0, [1.0, 2.0])):
        for p, g, a in zip(rng.strata(len(gammas), 1.6, 3.0), rng.permutation(gammas),
                           rng.strata(len(gammas), lo, hi)):
            p = float(p)
            w, wdesc = _random_weight(lib, rng, p, bool(rng.random() < 0.4))
            beta = wdesc[1] if wdesc[0] == "power" else 0.0
            alpha = float(a) if finite else 1.0 + float(a) * (p - beta - 1.0)
            ops.append(_energy_op(lib, p, float(g), alpha, beta, w, wdesc))
    # each block takes two of the four triples, one on each side of alpha*
    triples = rng.strata(2, 0.0, len(HARDY_TRIPLES)).astype(int)
    for t, side, off in zip(triples, rng.permutation([-1, 1]), rng.strata(2, 0.1, 0.3)):
        ops.append(_hardy_op(lib, *HARDY_TRIPLES[t], int(side), float(off)))
    order = rng.permutation(len(ops) - len(POWER_FAMILY_REFERENCES)) + len(POWER_FAMILY_REFERENCES)
    return ops[:len(POWER_FAMILY_REFERENCES)] + [ops[i] for i in order]


# ---------------------------------------------------------------------------
# iteration: the sublinear fixed-point iteration
# ---------------------------------------------------------------------------

def _iterate_op(lib: Lib, kind: str, desc: tuple, p: float, w, sigma, q: float,
                gamma: float = 1.0, exact: Callable | None = None, tol: float = 0.0) -> Op:
    def check(tr):
        ok = tr.converged and tr.monotone and not tr.diverged
        if exact is None:
            return ok, None
        u = tr.solution
        err = float(np.max(np.abs(u.values - exact(u.x))))
        return ok and err <= tol, err

    def digest(tr):
        return tr.solution.values.tobytes() + str(tr.steps).encode()

    return Op(kind, desc,
              lambda: lib.sublinear.iterate(p, w, sigma, q, gamma=gamma, keep_iterates=False),
              check, digest,
              counts=lambda tr: {"iterate_steps": tr.steps, "iterate_ops": 1})


def _dirac_iterate_op(lib: Lib) -> Op:
    # u = c (1 - |x|) with the flux jump 2 c^(p-1) = u(0)^q, so c^(p-1-q) = 1/2
    p, q = 2.0, 0.5
    c = 0.5 ** (1.0 / (p - 1.0 - q))
    return _iterate_op(lib, "iterate_dirac", ("iterate_dirac", p, q), p,
                       lib.weights.constant_weight(), lib.measures.dirac(0.0), q,
                       exact=lambda x: c * (1.0 - np.abs(x)), tol=TOL_MANUFACTURED)


def _manufactured_iterate_op(lib: Lib) -> Op:
    p, q = 3.0, 0.5
    return _iterate_op(lib, "iterate_manufactured", ("iterate_manufactured", p, q), p,
                       lib.weights.constant_weight(), lib.measures.manufactured_measure(p, q),
                       q, exact=lambda x: 1.0 - x ** 2, tol=TOL_MANUFACTURED)


def _roadmap_iterate_op(lib: Lib) -> Op:
    p, q = 2.4, 0.5
    sigma = lib.measures.dirac(0.2).add(lib.measures.power_measure(0.6, 0.8))
    return _iterate_op(lib, "iterate_roadmap", ("iterate_roadmap", p, q), p,
                       lib.weights.power_weight(0.3), sigma, q)


def iterate_block(lib: Lib, rng: Draws) -> list[Op]:
    """criterion_5's chain instances, half of them atoms only (which that
    generator also draws).  Chains with a density cost about a second per
    unit of q/(p-1), so their ratio stays at or below 0.5."""
    chain = []
    for i, (p, qu, alpha, coef) in enumerate(zip(
            rng.strata(4, 1.7, 3.0), rng.strata(4, 0.1, 0.5),
            rng.strata(4, 0.0, 0.5), rng.strata(4, 0.2, 1.5))):
        p = float(p)
        with_density = i % 2 == 1
        q = float(qu if with_density else 0.1 + 1.5 * (qu - 0.1)) * (p - 1.0)
        gamma = float(rng.choice([0.7, 1.0, 1.5]))
        w, wdesc = _random_weight(lib, rng, p, bool(rng.random() < 0.4))
        mu, mdesc = _random_finite_measure(lib, rng, float(alpha), float(coef))
        if not with_density:
            mu, mdesc = lib.measures.RadonMeasure(atoms=mu.atoms), mdesc[:2]
        kind = "iterate_chain" if with_density else "iterate_chain_atoms"
        chain.append(_iterate_op(lib, kind, (kind, p, q, gamma) + wdesc + mdesc,
                                 p, w, mu, q, gamma))
    return [_dirac_iterate_op(lib), chain[0], _manufactured_iterate_op(lib), chain[1],
            _roadmap_iterate_op(lib), chain[2], chain[3]]


# ---------------------------------------------------------------------------
# Wolff: truncated Wolff potentials (no solves)
# ---------------------------------------------------------------------------

# (p, atom location, atom mass, x, R) with constant weight and R <= 1 - |x|:
# no ball is clipped, the integrand is the constant (m/2)^(1/(p-1)) beyond
# r = |x - a|, so W = (m/2)^(1/(p-1)) (R - |x - a|)
WOLFF_DIRAC_REFERENCES = ((2.0, 0.1, 1.0, -0.2, 0.7), (1.6, -0.3, 1.5, 0.0, 0.9),
                          (3.0, 0.4, 0.6, 0.25, 0.5))


def _wolff_dirac_op(lib: Lib, p: float, a: float, m: float, x: float, R: float) -> Op:
    exact = (m / 2.0) ** (1.0 / (p - 1.0)) * (R - abs(x - a))
    w = lib.weights.constant_weight()
    mu = lib.measures.dirac(a, m)

    def check(s):
        err = abs(s.value - exact)
        return err <= TOL_WOLFF_DIRAC, err

    return Op("wolff_dirac", ("wolff_dirac", p, a, m, x, R),
              lambda: lib.wolff.wolff_truncated(p, w, mu, x, R), check,
              lambda s: float(s.value).hex().encode())


def wolff_block(lib: Lib, rng: Draws) -> list[Op]:
    n = 4
    ps = rng.strata(n, 1.6, 3.2)
    xs = rng.strata(n, -0.6, 0.6)
    alphas = rng.strata(n, 0.0, 0.5)
    coefs = rng.strata(n, 0.2, 1.5)
    scales = rng.strata(n, 0.25, 4.0)
    constant = rng.permutation([True, False, False, False])
    refs = [_wolff_dirac_op(lib, *r) for r in WOLFF_DIRAC_REFERENCES]
    R = 2.0
    ops: list[Op] = []
    for i in range(n):
        p, x, a = float(ps[i]), float(xs[i]), float(scales[i])
        w, wdesc = _random_weight(lib, rng, p, bool(constant[i]))
        mu, mdesc = _random_finite_measure(lib, rng, float(alphas[i]), float(coefs[i]))
        twin_mu = mu.scale(a)
        first: dict = {}

        def check_draw(s, first=first):
            first["v"] = s.value
            return bool(math.isfinite(s.value) and s.value > 0.0), None

        def check_twin(s, p=p, a=a, first=first):
            if "v" not in first:
                return False, None
            rel = abs(s.value - a ** (1.0 / (p - 1.0)) * first["v"]) / max(s.value, 1e-300)
            return rel <= TOL_WOLFF_HOMOG, None

        desc = (p, x) + wdesc + mdesc
        ops.append(Op("wolff", ("wolff",) + desc,
                      lambda p=p, w=w, mu=mu, x=x: lib.wolff.wolff_truncated(p, w, mu, x, R),
                      check_draw, lambda s: float(s.value).hex().encode()))
        ops.append(Op("wolff_twin", ("wolff_twin", a) + desc,
                      lambda p=p, w=w, mu=twin_mu, x=x: lib.wolff.wolff_truncated(p, w, mu, x, R),
                      check_twin, lambda s: float(s.value).hex().encode()))
        if refs:
            ops.append(refs.pop(0))
    return ops


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

def solve_wolff_block(lib: Lib, rng: Draws) -> list[Op]:
    """Single calls with no truncation ladder: exact solves, then Wolff
    samples, which make no solves."""
    return solve_block(lib, rng) + wolff_block(lib, rng)


def ladder_iterate_block(lib: Lib, rng: Draws) -> list[Op]:
    """Calls that repeat solves: truncation ladders, then the fixed-point
    iteration."""
    return ladder_block(lib, rng) + iterate_block(lib, rng)


@dataclass(frozen=True)
class Workload:
    name: str
    index: int
    block: Callable[[Lib, Draws], list[Op]]
    # fixed per workload so that a faster program does not change which
    # percentile is read, and inside the costly kinds of the mix rather than
    # at the step between cheap and costly ones (see README)
    tail_percentile: float
    # blocks per stratification round; a run at the seed commit's speed
    # completes about one round or more
    round_blocks: int


# Two workloads, not one per part: on a shared 2-vCPU host the machine's own
# speed drifts by tens of percent over seconds, and only long runs average it
# out; two workloads leave room for them within the benchmark's time budget.
WORKLOADS = {
    "solve_wolff_mix": Workload("solve_wolff_mix", 1, solve_wolff_block, 99.0, 8),
    "ladder_iterate_mix": Workload("ladder_iterate_mix", 2, ladder_iterate_block, 85.0, 4),
}


def blocks(workload: Workload, seed: int, lib: Lib):
    """Endless, deterministic sequence of blocks for (workload, seed)."""
    draws = Draws(np.random.default_rng([int(seed), workload.index]), workload.round_blocks)
    while True:
        draws.next_block()
        yield workload.block(lib, draws)
