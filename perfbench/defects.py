"""Known defects of sublap that the benchmark's workloads stay clear of.

    python3 perfbench/defects.py

A benchmark run must have no failed operation, so the ladders draw their
seeded instances only where the seed commit passes every check (see
``ladder_block``).  This script keeps the parts it leaves out in view: it runs
one reproducer per defect with the benchmark's own operations and checks and
prints, for each, whether it still fails.  It always exits 0; a reproducer
that passes means the defect is fixed and the domain in ``ladder_block`` can
be widened.
"""

from __future__ import annotations

import json
import sys

import run as bench


def reproducers(wl, lib) -> list:
    pw = lib.weights.power_weight
    return [
        # infinite mass, gamma = 0.5: identity missed after 40 unconverged levels
        wl._energy_op(lib, 1.6165100604565275, 0.5, 1.2781029919812883,
                      -0.2684139339666016, pw(-0.2684139339666016),
                      ("power", -0.2684139339666016)),
        # infinite mass, gamma = 0.5: InternalInvariantError (an energy level drops)
        wl._energy_op(lib, 1.9716376041262889, 0.5, 1.013094157639383,
                      -0.37665829891514135, pw(-0.37665829891514135),
                      ("power", -0.37665829891514135)),
        # finite mass near alpha = 1, gamma = 0.5: InternalInvariantError too
        wl._energy_op(lib, 1.7592528025219933, 0.5, 0.9951072656249652,
                      -0.31251642033733606, pw(-0.31251642033733606),
                      ("power", -0.31251642033733606)),
        # finite mass, alpha + beta ~1.58: the ladder stops unconverged
        wl._finite_potential_op(lib, 2.20388, 0.93938, 1.45256, pw(0.64273), ("power", 0.64273)),
        # criterion_2 family with beta/(p-1) ~0.71: error 8e-6 against 1e-6
        wl._power_family_op(lib, 1.555, 0.394, 0.544, reference=False),
    ]


def main() -> int:
    bench.import_sublap()
    import workloads as wl

    lib = wl.Lib()
    ops = reproducers(wl, lib)
    still = 0
    for op in ops:
        loop = bench.Loop(lib)
        loop.run(op)
        failed = loop.failed > 0
        still += failed
        print(f"{'still fails' if failed else 'passes now':12s} "
              f"{json.dumps(loop.failures)} {op.desc!r}")
    print(f"defects: {still} of {len(ops)} reproducers still fail")
    return 0


if __name__ == "__main__":
    sys.exit(main())
