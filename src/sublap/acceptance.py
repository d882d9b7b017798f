"""Acceptance criteria: exact-oracle reproduction plus property batteries.

Each criterion is one function returning a CriterionResult; the registry is
shared by the pytest suite and by ``sublap verify``.  Tolerances are pinned
here and nowhere else.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .energy import energy, mee_bound, quasi_additivity_check
from .measures import (
    PowerDensity,
    RadonMeasure,
    dirac,
    lebesgue,
    manufactured_measure,
    power_measure,
)
from .params import hardy_threshold
from .solver import SolverOptions, check_comparison, potential, solve_dirichlet
from .sublinear import (
    finite_energy_check,
    hardy_sweep,
    iterate,
    iterated_inequality_check,
    lower_envelope,
    verify_equivalence,
)
from .trace import rayleigh_lower, trace_bracket
from .weights import Weight, constant_weight, power_weight
from .wolff import wolff_truncated

INF = math.inf
FAST_OPTIONS = SolverOptions(n_nodes=192)


@dataclass
class CriterionResult:
    ident: str
    passed: bool
    detail: str
    seconds: float = 0.0  # wall time, set by run_suite


def _result(ident: str, passed: bool, detail: str) -> CriterionResult:
    return CriterionResult(ident=ident, passed=bool(passed), detail=detail)


def _random_weight(rng: np.random.Generator, p: float) -> Weight:
    if rng.random() < 0.4:
        return constant_weight()
    beta = float(rng.uniform(-0.4, min(0.6 * (p - 1.0), 0.8)))
    return power_weight(beta)


def _random_finite_measure(rng: np.random.Generator, max_alpha: float = 0.7) -> RadonMeasure:
    atoms = []
    for _ in range(rng.integers(1, 3)):
        atoms.append((float(rng.uniform(-0.8, 0.8)), float(rng.uniform(0.3, 2.0))))
    mu = RadonMeasure(atoms=tuple(atoms))
    if rng.random() < 0.7:
        alpha = float(rng.uniform(0.0, max_alpha))
        coef = float(rng.uniform(0.2, 1.5))
        mu = mu.add(power_measure(alpha, coef))
    return mu


# --------------------------------------------------------------------------
# criteria
# --------------------------------------------------------------------------

def criterion_1() -> CriterionResult:
    """Green/Dirac family: u = (1/2)^(1/(p-1)) (1-|x|) to 1e-8 in max norm."""
    tol = 1e-8
    w = constant_weight()
    worst = 0.0
    for p in (1.5, 2.0, 3.0):
        res = solve_dirichlet(p, w, dirac(0.0))
        exact = 0.5 ** (1.0 / (p - 1.0)) * (1.0 - np.abs(res.u.x))
        worst = max(worst, float(np.max(np.abs(res.u.values - exact))))
    return _result("criterion_1_green_dirac", worst <= tol,
                   f"max_error={worst:.3e} tol={tol:.0e}")


def criterion_2() -> CriterionResult:
    """Exact power family (1-|x|)^A reproduced to 1e-6 over the admissible grid."""
    tol = 1e-6
    worst = 0.0
    cases = 0
    for p in (1.5, 2.0, 3.0):
        for beta in (-0.5, 0.0, 0.5):
            if not (-1.0 < beta < p - 1.0):
                continue
            window = 1.0 - beta / (p - 1.0)
            w = power_weight(beta) if beta != 0.0 else constant_weight()
            for frac in (0.45, 0.65, 0.85):
                A = frac * window
                m = (A - 1.0) * (p - 1.0) + beta
                coef = -A ** (p - 1.0) * m
                mu = RadonMeasure(
                    atoms=((0.0, 2.0 * A ** (p - 1.0)),),
                    density=PowerDensity(alpha=1.0 - m, coef=coef),
                )
                res = potential(p, w, mu)
                exact = (1.0 - np.abs(res.u.x)) ** A
                err = float(np.max(np.abs(res.u.values - exact)))
                worst = max(worst, err)
                cases += 1
    return _result("criterion_2_exact_power_family", worst <= tol,
                   f"max_error={worst:.3e} tol={tol:.0e} cases={cases}")


def criterion_3() -> CriterionResult:
    """Energy identity E_gamma = gamma*grad = v/c_E to 1e-5 relative,
    10 randomized finite instances, gamma in {0.5, 1, 2}."""
    tol = 1e-5
    rng = np.random.default_rng(301)
    worst = 0.0
    all_sandwich = True
    for _ in range(10):
        p = float(rng.uniform(1.6, 3.0))
        w = _random_weight(rng, p)
        mu = _random_finite_measure(rng)
        for gamma in (0.5, 1.0, 2.0):
            rep = energy(p, w, mu, gamma)
            worst = max(worst, rep.identity_gap)
            all_sandwich = all_sandwich and rep.sandwich_pass
    return _result("criterion_3_energy_identity",
                   worst <= tol and all_sandwich,
                   f"max_gap={worst:.3e} tol={tol:.0e} sandwich={all_sandwich}")


def criterion_4() -> CriterionResult:
    """Manufactured instance u* = 1 - x^2 (p=3, q=0.5): sandwich, weak-form
    identity to 1e-5 relative, iteration recovery to 1e-5 sup-norm."""
    tol = 1e-5
    p, q = 3.0, 0.5
    w = constant_weight()
    sigma = manufactured_measure(p, q)
    fe = finite_energy_check(p, w, sigma, q, tol=tol)
    tr = iterate(p, w, sigma, q, gamma=1.0, keep_iterates=False)
    u = tr.solution
    sup_err = float(np.max(np.abs(u.values - (1.0 - u.x ** 2))))
    ok = fe["pass"] and tr.converged and sup_err <= tol
    return _result("criterion_4_manufactured_sandwich", ok,
                   f"identity_gap={fe.get('identity_gap', INF):.3e} "
                   f"sup_err={sup_err:.3e} tol={tol:.0e}")


def _chain_instances(rng: np.random.Generator, n: int):
    out = []
    while len(out) < n:
        p = float(rng.uniform(1.7, 3.0))
        q = float(rng.uniform(0.1, 0.7)) * (p - 1.0)
        gamma = float(rng.choice([0.7, 1.0, 1.5]))
        w = _random_weight(rng, p)
        mu = _random_finite_measure(rng, max_alpha=0.5)
        out.append((p, q, gamma, w, mu))
    return out


def criterion_5() -> CriterionResult:
    """Equivalence chain links at 1e-6 for 10 finite-energy instances;
    3 divergent instances must blow the iteration norms past the cap."""
    tol = 1e-6
    rng = np.random.default_rng(502)
    all_pass = True
    details = []
    for (p, q, gamma, w, mu) in _chain_instances(rng, 10):
        rep = verify_equivalence(p, w, mu, q, gamma, tol=tol)
        all_pass = all_pass and rep.chain_pass and not rep.diverged
        details.append(f"{'ok' if rep.chain_pass else 'FAIL'}")
    # divergent instances: coefficient singularity above the threshold
    div_ok = 0
    for (p, beta, q) in ((2.0, 0.0, 0.5), (2.0, 0.5, 0.2), (3.0, 0.0, 0.5)):
        astar = hardy_threshold(p, q, beta)
        alpha = min(astar + 0.2, p - beta - 0.05)
        w = power_weight(beta) if beta != 0.0 else constant_weight()
        rep = verify_equivalence(p, w, power_measure(alpha), q, 1.0, tol=tol)
        if rep.diverged and rep.chain_pass:
            div_ok += 1
    ok = all_pass and div_ok == 3
    return _result("criterion_5_equivalence_chain", ok,
                   f"finite={''.join(d[0] for d in details)} divergent_ok={div_ok}/3")


def criterion_6() -> CriterionResult:
    """Converged solutions dominate the lower envelope at every node."""
    rng = np.random.default_rng(603)
    worst = -INF
    cases = 0
    instances = _chain_instances(rng, 5)
    instances.append((3.0, 0.5, 1.0, constant_weight(), manufactured_measure(3.0, 0.5)))
    instances.append((2.0, 0.5, 1.0, constant_weight(), dirac(0.0)))
    for (p, q, gamma, w, mu) in instances:
        tr = iterate(p, w, mu, q, gamma=gamma, keep_iterates=False)
        if not tr.converged:
            continue
        env = lower_envelope(p, w, mu, q)
        u = tr.solution
        env_at = env.u.values_at(u.grid)
        slack = 1e-9 * (1.0 + float(np.max(u.values)))
        worst = max(worst, float(np.max(env_at - u.values)) - slack)
        cases += 1
    return _result("criterion_6_lower_envelope", worst <= 0.0 and cases >= 6,
                   f"worst_violation_beyond_slack={worst:.3e} cases={cases}")


def criterion_7() -> CriterionResult:
    """Iterated pointwise inequality for beta in {1, 1.5, 2} on 5 instances."""
    rng = np.random.default_rng(704)
    ok = True
    worst = 0.0
    instances = [dirac(0.0), lebesgue(),
                 _random_finite_measure(rng), _random_finite_measure(rng),
                 _random_finite_measure(rng)]
    for i, mu in enumerate(instances):
        p = (1.5, 2.0, 2.5, 3.0, 2.0)[i]
        for beta in (1.0, 1.5, 2.0):
            rep = iterated_inequality_check(p, constant_weight(), mu, beta)
            ok = ok and rep["pass"]
            worst = max(worst, rep["max_violation"])
    return _result("criterion_7_iterated_inequality", ok,
                   f"max_violation={worst:.3e}")


def criterion_8() -> CriterionResult:
    """Coefficient-singularity sweep: classification flips at the closed-form
    threshold within one dead-band for 4 parameter triples."""
    triples = ((2.0, 0.0, 0.5), (2.0, 0.5, 0.0), (3.0, 1.0, 0.5), (1.5, -0.5, 0.25))
    n_disagree = 0
    n_rows = 0
    for (p, beta, q) in triples:
        astar = hardy_threshold(p, q, beta)
        lo = astar - 0.3
        hi = min(astar + 0.3, p - beta - 0.01)
        grid = np.round(np.arange(lo, hi, 0.05), 10)
        rows = hardy_sweep(p, beta, q, grid)
        n_rows += len(rows)
        n_disagree += sum(1 for r in rows if not r["agree"])
    return _result("criterion_8_hardy_threshold", n_disagree == 0,
                   f"rows={n_rows} disagreements={n_disagree}")


def criterion_9() -> CriterionResult:
    """Trace bracket: q=0 Dirac case collapses to sqrt(1/2) against the
    Rayleigh oracle to 1e-9; q=0.5 instances keep rayleigh <= upper."""
    tol = 1e-9
    w = constant_weight()
    d0 = dirac(0.0)
    tb = trace_bracket(2.0, w, d0, 0.0)
    exact = math.sqrt(0.5)
    tight = abs(tb.lower - exact) <= tol and abs(tb.upper - exact) <= tol
    ray = rayleigh_lower(2.0, w, d0, 0.0)
    oracle_ok = abs(ray["value"] - exact) <= 1e-6
    rng = np.random.default_rng(905)
    ineq_ok = True
    for _ in range(3):
        mu = _random_finite_measure(rng, max_alpha=0.4)
        tb2 = trace_bracket(2.0, w, mu, 0.5)
        ray2 = rayleigh_lower(2.0, w, mu, 0.5)
        ineq_ok = ineq_ok and ray2["value"] <= tb2.upper * (1.0 + 1e-6) \
            and tb2.lower <= tb2.upper * (1.0 + 1e-9)
    ok = tight and oracle_ok and ineq_ok
    return _result("criterion_9_trace_bracket", ok,
                   f"q0_gap={max(abs(tb.lower - exact), abs(tb.upper - exact)):.3e} "
                   f"rayleigh_ok={oracle_ok} q05_ok={ineq_ok}")


def criterion_10() -> CriterionResult:
    """Cross-energy bound achieves equality at mu = nu = delta_0, q = 0,
    gamma = 1 to 1e-6 relative."""
    tol = 1e-6
    w = constant_weight()
    d0 = dirac(0.0)
    rep = mee_bound(2.0, w, d0, d0, gamma=1.0, q=0.0)
    rel = abs(rep["lhs"] - rep["rhs"]) / max(rep["rhs"], 1e-300)
    return _result("criterion_10_mee_sharpness", rel <= tol and rep["pass"],
                   f"equality_gap={rel:.3e} tol={tol:.0e}")


def criterion_11() -> CriterionResult:
    """Property battery: 200 randomized cases of homogeneity (solver, Wolff,
    energy), comparison monotonicity, quasi-additivity and truncation
    monotonicity with zero violations."""
    rng = np.random.default_rng(1106)
    opts = FAST_OPTIONS
    failures = []
    cases = 0

    # solver homogeneity: 50 cases at 1e-9 relative
    for _ in range(50):
        cases += 1
        p = float(rng.uniform(1.6, 3.2))
        w = _random_weight(rng, p)
        mu = _random_finite_measure(rng, max_alpha=0.5)
        a = float(rng.uniform(0.25, 4.0))
        r1 = solve_dirichlet(p, w, mu, opts)
        r2 = solve_dirichlet(p, w, mu.scale(a), opts)
        scale = max(float(np.max(r2.u.values)), 1e-300)
        rel = float(np.max(np.abs(r2.u.values - a ** (1.0 / (p - 1.0)) * r1.u.values))) / scale
        if rel > 1e-9:
            failures.append(f"solver_homog rel={rel:.2e}")

    # Wolff homogeneity: 30 cases at 1e-10
    for _ in range(30):
        cases += 1
        p = float(rng.uniform(1.6, 3.2))
        w = _random_weight(rng, p)
        mu = _random_finite_measure(rng, max_alpha=0.5)
        a = float(rng.uniform(0.25, 4.0))
        x = float(rng.uniform(-0.6, 0.6))
        v1 = wolff_truncated(p, w, mu, x, 2.0).value
        v2 = wolff_truncated(p, w, mu.scale(a), x, 2.0).value
        rel = abs(v2 - a ** (1.0 / (p - 1.0)) * v1) / max(v2, 1e-300)
        if rel > 1e-10:
            failures.append(f"wolff_homog rel={rel:.2e}")

    # energy homogeneity: 30 cases at 1e-8 relative
    for _ in range(30):
        cases += 1
        p = float(rng.uniform(1.6, 3.0))
        gamma = float(rng.choice([0.5, 1.0, 2.0]))
        w = _random_weight(rng, p)
        mu = _random_finite_measure(rng, max_alpha=0.4)
        a = float(rng.uniform(0.3, 3.0))
        e1 = energy(p, w, mu, gamma, opts).e_gamma
        e2 = energy(p, w, mu.scale(a), gamma, opts).e_gamma
        expected = a ** ((p - 1.0 + gamma) / (p - 1.0)) * e1
        rel = abs(e2 - expected) / max(abs(expected), 1e-300)
        if rel > 1e-8:
            failures.append(f"energy_homog rel={rel:.2e}")

    # comparison monotonicity: 40 cases
    for _ in range(40):
        cases += 1
        p = float(rng.uniform(1.6, 3.0))
        w = _random_weight(rng, p)
        nu = _random_finite_measure(rng, max_alpha=0.5)
        mode = rng.integers(0, 3)
        if mode == 0:
            mu = nu.truncate(int(rng.integers(1, 6)))
        elif mode == 1:
            mu = nu.scale(float(rng.uniform(0.2, 0.95)))
        else:
            mu = nu.window(float(rng.uniform(0.1, 0.4)), float(rng.uniform(0.1, 0.4)))
        rep = check_comparison(p, w, mu, nu, opts)
        if not rep["pass"]:
            failures.append(f"comparison viol={rep['max_violation']:.2e}")

    # quasi-additivity: 20 cases
    for _ in range(20):
        cases += 1
        p = float(rng.uniform(1.6, 3.0))
        gamma = float(rng.choice([0.5, 1.0, 2.0]))
        w = _random_weight(rng, p)
        mu = _random_finite_measure(rng, max_alpha=0.4)
        nu = _random_finite_measure(rng, max_alpha=0.4)
        rep = quasi_additivity_check(p, w, mu, nu, gamma, opts)
        if not rep["pass"]:
            failures.append("quasi_additivity")

    # truncation monotonicity of the cdf: 30 cases
    for _ in range(30):
        cases += 1
        mu = _random_finite_measure(rng, max_alpha=0.9)
        x = float(rng.uniform(-0.95, 0.95))
        vals = [mu.truncate(k).cdf(x) for k in (1, 2, 4, 8)]
        vals.append(mu.cdf(x))
        diffs = np.diff(np.asarray(vals))
        if np.any(diffs < -1e-10 * (1.0 + abs(vals[-1]))):
            failures.append("truncation_monotonicity")

    return _result("criterion_11_property_battery",
                   len(failures) == 0 and cases == 200,
                   f"cases={cases} violations={len(failures)}"
                   + (" first=" + failures[0] if failures else ""))


ACCEPTANCE = [
    criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
    criterion_6, criterion_7, criterion_8, criterion_9, criterion_10,
    criterion_11,
]

SMOKE = [criterion_1, criterion_10]

SUITES = {"acceptance": ACCEPTANCE, "smoke": SMOKE}


def run_suite(name: str) -> list[CriterionResult]:
    from .errors import ValidationError

    if name not in SUITES:
        raise ValidationError(f"acceptance.run_suite: unknown suite {name!r}; "
                              f"choose from {sorted(SUITES)}")
    results = []
    for fn in SUITES[name]:
        t0 = time.perf_counter()
        results.append(fn())
        results[-1].seconds = time.perf_counter() - t0
    return results
