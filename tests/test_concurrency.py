"""The README's claim that operations are "safe to run concurrently": a fixed
mix of operations run from 4 threads at once gives, bit for bit, what one
serial run gives."""

import sys
import threading

import numpy as np

from sublap import solver
from sublap.energy import energy, mee_bound
from sublap.measures import dirac, lebesgue, power_measure
from sublap.solver import solve_dirichlet
from sublap.sublinear import iterate
from sublap.trace import rayleigh_lower
from sublap.weights import constant_weight, power_weight
from sublap.wolff import wolff_truncated

W1 = constant_weight()
WB = power_weight(0.3)
SIGMA = dirac(0.2).add(power_measure(0.6, 0.8))


def _bits(*values) -> bytes:
    return b"".join(np.asarray(v, dtype=float).tobytes() for v in values)


def _solve_density():
    res = solve_dirichlet(2.4, WB, SIGMA)
    return _bits(res.u.values, res.quad.u, res.flux_constant)


def _solve_atom_and_lebesgue():
    res = solve_dirichlet(2.0, W1, lebesgue().add(dirac(0.3, 0.5)))
    return _bits(res.u.values, res.quad.u, res.flux_constant)


def _energy():
    rep = energy(2.0, W1, power_measure(1.3), 0.5)
    return _bits(rep.e_gamma, rep.grad_energy)


def _mee_bound():
    rep = mee_bound(2.5, W1, lebesgue(0.5).add(dirac(0.3)), power_measure(0.5), 1.0, 0.5)
    return _bits(rep["lhs"], rep["rhs"])


def _rayleigh_lower():
    # two atoms: the hats of both share one quadrature of sigma
    rep = rayleigh_lower(2.4, WB, SIGMA.add(dirac(-0.5, 0.3)), 0.5, levels=(4, 24))
    return _bits([value for _, value in rep["candidates"]])


def _iterate():
    trace = iterate(2.4, WB, SIGMA, 0.5, keep_iterates=False)
    return _bits(trace.norms, trace.scales, trace.solution.values)


def _wolff():
    return _bits(wolff_truncated(2.4, WB, SIGMA, 0.3).value)


MIX = (_solve_density, _solve_atom_and_lebesgue, _energy, _mee_bound, _rayleigh_lower,
       _iterate, _wolff)


def test_a_mix_run_from_four_threads_matches_a_serial_run():
    serial = [op() for op in MIX]
    n_threads = 4
    results = [None] * n_threads
    start = threading.Barrier(n_threads, timeout=60.0)

    def run(k):
        try:
            start.wait()
            # each thread starts at another op, so different ops overlap
            order = [(k + i) % len(MIX) for i in range(len(MIX))]
            out = [None] * len(MIX)
            for i in order:
                out[i] = MIX[i]()
            results[k] = out
        except Exception as exc:  # reported below, with the thread that raised it
            results[k] = exc

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        # the threads race on building the panel structures too
        solver._PANEL_CACHE.clear()
        threads = [threading.Thread(target=run, args=(k,)) for k in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300.0)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    for k, out in enumerate(results):
        assert not isinstance(out, Exception), f"thread {k} raised {out!r}"
        for op, got, want in zip(MIX, out, serial):
            assert got == want, f"thread {k}: {op.__name__} differs from the serial run"
