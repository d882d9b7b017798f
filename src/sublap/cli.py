"""Command-line surface: config ingestion, subcommands, CSV/report emission.

Subcommands: solve | wolff | energy | iterate | trace | sweep | verify.

Configuration lives in one JSON file with four tables (problem, weight,
measure, solver) plus an optional output table; command-line flags override
file values.  All data files are deterministic: floats are written in their
shortest round-trip form and no timestamps are embedded.

Exit codes: 0 success, 1 validation failure, 2 numerical non-convergence,
3 acceptance failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .errors import ConvergenceError, QuadratureError, SublapError, ValidationError
from .measures import (
    ConstantDensity,
    ManufacturedDensity,
    PowerDensity,
    RadonMeasure,
    SumDensity,
    TabulatedDensity,
    ZeroDensity,
)
from .params import ProblemParams
from .solver import DEFAULT_OPTIONS, SolverOptions, potential
from .weights import Weight, constant_weight, power_weight

OUT_ENV = "SUBLAP_OUT"


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def load_config(path: str | None) -> dict:
    if path is None:
        return {}
    if not os.path.exists(path):
        raise ValidationError(f"cli: config file {path!r} does not exist")
    with open(path, "r", encoding="utf-8") as fh:
        try:
            cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"cli: config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ValidationError("cli: config root must be an object")
    return cfg


def _table(cfg: dict, key: str, name: str = "") -> dict:
    """A copy of the table ``cfg[key]``; empty when it is absent or null."""
    tbl = cfg.get(key) or {}
    if not isinstance(tbl, dict):
        raise ValidationError(f"cli: {name or key} must be an object, got {tbl!r}")
    return dict(tbl)


def _num(tbl: dict, name: str, key: str, default=None, kind=float):
    """``kind(tbl[key])``, or of ``default`` when the key is absent; an
    ``int`` must be whole, where int() would drop the fraction."""
    value = tbl.get(key, default)
    try:
        if kind is int and isinstance(value, float) and not value.is_integer():
            raise ValueError(value)
        return kind(value)
    except (TypeError, ValueError):
        raise ValidationError(f"cli: {name}.{key} must be a {'whole ' if kind is int else ''}"
                              f"number, got {tbl[key]!r}") from None


def _set_power(tbl: dict, name: str, key: str, value: float) -> dict:
    """``tbl`` with ``--key``'s value; the flag sets the power family where none is named."""
    if tbl.setdefault("family", "power") != "power":
        raise ValidationError(f"cli: --{key} needs the power family, but {name}.family is "
                              f"{tbl['family']!r}")
    tbl[key] = value
    return tbl


def effective_config(args: argparse.Namespace) -> dict:
    """Merge config file tables with command-line overrides (flags win)."""
    cfg = load_config(args.config)
    problem, weight, measure, solver, output = (
        _table(cfg, k) for k in ("problem", "weight", "measure", "solver", "output"))

    for key in ("p", "q", "gamma"):
        if getattr(args, key) is not None:
            problem[key] = getattr(args, key)
    if args.beta is not None:
        _set_power(weight, "weight", "beta", args.beta)
    if args.alpha is not None:
        measure["density"] = _set_power(_table(measure, "density", "measure.density"),
                                        "measure.density", "alpha", args.alpha)
    out_dir = args.out or output.get("directory") or os.environ.get(OUT_ENV) or "."
    output["directory"] = out_dir
    return {"problem": problem, "weight": weight, "measure": measure,
            "solver": solver, "output": output}


def build_problem(cfg: dict) -> ProblemParams:
    tbl = cfg["problem"]
    if "p" not in tbl:
        raise ValidationError("cli: problem.p is required")
    # float() reads "inf" and "infinity" in any case
    return ProblemParams(p=_num(tbl, "problem", "p"), q=_num(tbl, "problem", "q", 0.0),
                         gamma=_num(tbl, "problem", "gamma", 1.0))


def build_weight(cfg: dict) -> Weight:
    tbl = cfg["weight"]
    family = tbl.get("family", "constant")
    if family == "constant":
        return constant_weight(_num(tbl, "weight", "value", 1.0))
    if family == "power":
        return power_weight(_num(tbl, "weight", "beta", 0.0))
    raise ValidationError(f"cli: unsupported weight family {family!r} in config")


def build_measure(cfg: dict) -> RadonMeasure:
    tbl = cfg["measure"]
    try:
        atoms = tuple((float(x), float(m)) for x, m in tbl.get("atoms", []))
    except (TypeError, ValueError):
        raise ValidationError(
            f"cli: measure.atoms must be [x, mass] pairs, got {tbl['atoms']!r}") from None
    parts = []
    dens_tbl = _table(tbl, "density", "measure.density")
    if dens_tbl:
        family, name = dens_tbl.get("family", "constant"), "measure.density"
        if family == "power":
            parts.append(PowerDensity(alpha=_num(dens_tbl, name, "alpha", 0.0),
                                      coef=_num(dens_tbl, name, "coef", 1.0)))
        elif family == "constant":
            parts.append(ConstantDensity(_num(dens_tbl, name, "value", 1.0)))
        elif family == "manufactured":
            parts.append(ManufacturedDensity(p=_num(dens_tbl, name, "p", 3.0),
                                             q=_num(dens_tbl, name, "q", 0.5)))
        elif family in ("zero", "none"):
            pass
        else:
            raise ValidationError(f"cli: unknown density family {family!r}")
    tab_path = tbl.get("tabulated")
    if tab_path:
        if not os.path.exists(tab_path):
            raise ValidationError(f"cli: tabulated density file {tab_path!r} missing")
        xs, vals = [], []
        with open(tab_path, newline="", encoding="utf-8") as fh:
            for n, row in enumerate(csv.reader(fh), 1):
                if not row or row[0].lstrip().startswith("#"):
                    continue
                try:
                    x, v = (float(cell) for cell in row)
                except ValueError:
                    raise ValidationError(f"cli: tabulated density file {tab_path!r} row {n}: "
                                          f"want two numbers x,value, got {row!r}") from None
                xs.append(x)
                vals.append(v)
        parts.append(TabulatedDensity(xs=tuple(xs), vals=tuple(vals)))
    if not parts:
        density = ZeroDensity()
    elif len(parts) == 1:
        density = parts[0]
    else:
        density = SumDensity(tuple(parts))
    return RadonMeasure(atoms=atoms, density=density)


def build_options(cfg: dict) -> SolverOptions:
    """Solver options; the keys ``tolerance`` and ``truncation_max`` (and
    ``--tol``) configured the truncation ladder of earlier versions: ignored."""
    tbl = cfg["solver"]
    return SolverOptions(
        n_nodes=_num(tbl, "solver", "grid_nodes", DEFAULT_OPTIONS.n_nodes, int),
        grading_ratio=_num(tbl, "solver", "grading_ratio", DEFAULT_OPTIONS.grading_ratio),
        divergence_cap=_num(tbl, "solver", "divergence_cap", DEFAULT_OPTIONS.divergence_cap),
    )


# ---------------------------------------------------------------------------
# deterministic emission
# ---------------------------------------------------------------------------

def _fmt(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def write_csv(path: str, header: list[str], rows) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def write_report(path: str, items: dict) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for k, v in items.items():
            fh.write(f"{k} = {_fmt(v)}\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_solve(cfg: dict) -> int:
    prob = build_problem(cfg)
    w = build_weight(cfg)
    mu = build_measure(cfg)
    opts = build_options(cfg)
    out = cfg["output"]["directory"]
    res = potential(prob.p, w, mu, opts)
    rows = zip(res.u.x, res.u.values,
               res.u_prime if res.u_prime is not None else np.full(res.u.x.size, math.nan),
               res.flux_nodes if res.flux_nodes is not None else np.full(res.u.x.size, math.nan))
    write_csv(os.path.join(out, "solution.csv"), ["x", "u", "u_prime", "flux"], rows)
    write_report(os.path.join(out, "solve_report.txt"), {
        "p": prob.p,
        "flux_constant": res.flux_constant,
        "boundary_residual": res.boundary_residual,
        "truncation_levels_used": res.truncation_levels_used,
        "diverged": res.diverged,
        "sup_u": res.u.sup() if not res.diverged else math.inf,
    })
    print(f"solve: wrote solution.csv ({res.u.x.size} nodes), diverged={res.diverged}")
    return 0


def cmd_wolff(cfg: dict) -> int:
    from .wolff import DEFAULT_RADIUS, ratio_report, wolff_curve

    prob = build_problem(cfg)
    w = build_weight(cfg)
    mu = build_measure(cfg)
    out = cfg["output"]["directory"]
    margin = _num(cfg["solver"], "solver", "interior_margin", 0.25)
    radius = _num(cfg["solver"], "solver", "wolff_radius", DEFAULT_RADIUS)
    xs = np.linspace(-1.0 + margin, 1.0 - margin, 41)
    vals = wolff_curve(prob.p, w, mu, xs, radius)
    write_csv(os.path.join(out, "wolff.csv"), ["x", "wolff"], zip(xs, vals))
    rep = ratio_report(prob.p, w, mu, margin, radius, options=build_options(cfg))
    write_report(os.path.join(out, "wolff_report.txt"),
                 {"radius": radius, "interior_margin": margin, **rep})
    print(f"wolff: wrote wolff.csv, ratio report empty={rep.get('empty')}")
    return 0


def cmd_energy(cfg: dict) -> int:
    from .energy import energy

    prob = build_problem(cfg)
    if prob.gamma_is_infinite:
        raise ValidationError("cli energy: gamma must be finite (use trace/iterate for sup-norm data)")
    w = build_weight(cfg)
    mu = build_measure(cfg)
    opts = build_options(cfg)
    out = cfg["output"]["directory"]
    rep = energy(prob.p, w, mu, prob.gamma, opts)
    # |||mu|||_gamma = E_gamma^((p-1)/(p-1+gamma)), as ``energy.triple_norm``
    tn = math.inf if rep.diverged else \
        rep.e_gamma ** ((prob.p - 1.0) / (prob.p - 1.0 + prob.gamma))
    write_report(os.path.join(out, "energy_report.txt"), {
        "gamma": prob.gamma,
        "e_gamma": rep.e_gamma,
        "grad_energy": rep.grad_energy,
        "v_energy": rep.v_energy,
        "identity_gap": rep.identity_gap,
        "sandwich_pass": rep.sandwich_pass,
        "triple_norm": tn,
        "diverged": rep.diverged,
        "levels_used": rep.levels_used,
    })
    print(f"energy: E_gamma={rep.e_gamma!r} diverged={rep.diverged}")
    if rep.diverged:
        return 2
    return 0


def cmd_iterate(cfg: dict) -> int:
    from .sublinear import iterate

    prob = build_problem(cfg)
    w = build_weight(cfg)
    mu = build_measure(cfg)
    opts = build_options(cfg)
    out = cfg["output"]["directory"]
    tol = _num(cfg["solver"], "solver", "iteration_tol", 1e-8)
    trace = iterate(prob.p, w, mu, prob.q,
                    gamma=prob.gamma if not prob.gamma_is_infinite else 1.0,
                    tol=tol, options=opts, keep_iterates=False)
    u = trace.solution
    write_csv(os.path.join(out, "iterate.csv"), ["x", "u"], zip(u.x, u.values))
    write_csv(os.path.join(out, "iterate_norms.csv"), ["step", "norm"],
              ((i, n) for i, n in enumerate(trace.norms)))
    write_report(os.path.join(out, "iterate_report.txt"), {
        "steps": trace.steps,
        "converged": trace.converged,
        "diverged": trace.diverged,
        "monotone": trace.monotone,
        "final_residual": trace.final_residual,
        "final_norm": trace.norms[-1],
    })
    print(f"iterate: steps={trace.steps} converged={trace.converged} "
          f"diverged={trace.diverged}")
    if trace.diverged or not trace.converged:
        return 2
    return 0


def cmd_trace(cfg: dict) -> int:
    from .trace import rayleigh_lower, trace_bracket

    prob = build_problem(cfg)
    w = build_weight(cfg)
    mu = build_measure(cfg)
    opts = build_options(cfg)
    out = cfg["output"]["directory"]
    bracket = trace_bracket(prob.p, w, mu, prob.q, opts)
    ray = rayleigh_lower(prob.p, w, mu, prob.q, options=opts)
    write_report(os.path.join(out, "trace_report.txt"), {
        "lower": bracket.lower,
        "upper": bracket.upper,
        "energy_value": bracket.energy_value,
        "rayleigh_lower": ray["value"],
        "rayleigh_member": ray["best_member"],
    })
    print(f"trace: C_T in [{bracket.lower!r}, {bracket.upper!r}], "
          f"rayleigh={ray['value']!r}")
    return 0


def _parse_axis(spec: str) -> tuple[str, list[float]]:
    if "=" not in spec:
        raise ValidationError(f"cli sweep: bad axis spec {spec!r} (want name=start:stop:step)")
    name, rng = spec.split("=", 1)
    name = name.strip()
    if name not in ("alpha", "p", "q", "beta"):
        raise ValidationError(f"cli sweep: unknown axis {name!r}")
    parts = rng.split(":")
    try:
        nums = [float(v) for v in (rng.split(",") if len(parts) == 1 else parts)]
    except ValueError:
        nums = []
    if len(parts) == 1 and nums:
        return name, nums
    if len(parts) != 3 or not nums or not nums[2] > 0.0:
        raise ValidationError(f"cli sweep: bad axis range {rng!r} "
                              "(want numbers start:stop:step with step > 0, or v1,v2,...)")
    start, stop, step = nums
    n = int(round((stop - start) / step)) + 1
    return name, [round(start + i * step, 12) for i in range(n)
                  if start + i * step <= stop + 1e-12]


def _sweep_row(task) -> dict:
    from .sublinear import hardy_sweep

    p, beta, q, alpha, opts = task
    return hardy_sweep(p, beta, q, [alpha], options=opts)[0]


def cmd_sweep(cfg: dict, axes: list[str], jobs: int) -> int:
    prob = build_problem(cfg)
    w = build_weight(cfg)
    out = cfg["output"]["directory"]
    opts = build_options(cfg)
    axis_values = {"p": [prob.p], "q": [prob.q],
                   "beta": [w.beta if w.family == "power" else 0.0],
                   "alpha": [1.0]}
    for spec in axes:
        name, values = _parse_axis(spec)
        axis_values[name] = values
    tasks = []
    for p in axis_values["p"]:
        for beta in axis_values["beta"]:
            for q in axis_values["q"]:
                for alpha in axis_values["alpha"]:
                    tasks.append((p, beta, q, alpha, opts))
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_sweep_row, tasks))
    else:
        rows = [_sweep_row(t) for t in tasks]
    header = ["p", "beta", "q", "alpha", "alpha_star", "energy",
              "classification", "expected", "in_dead_band", "agree", "levels"]
    out_rows = []
    for task, row in zip(tasks, rows):
        p, beta, q, alpha, _ = task
        out_rows.append([p, beta, q, row["alpha"], row["alpha_star"], row["energy"],
                         row["classification"], row["expected"], row["in_dead_band"],
                         row["agree"], row["levels"]])
    write_csv(os.path.join(out, "sweep.csv"), header, out_rows)
    n_disagree = sum(1 for r in rows if not r["agree"])
    print(f"sweep: {len(rows)} rows, {n_disagree} disagreements -> sweep.csv")
    return 0 if n_disagree == 0 else 2


def cmd_verify(cfg: dict, suite: str) -> int:
    from .acceptance import run_suite

    out = cfg["output"]["directory"]
    results = run_suite(suite)
    lines = []
    n_fail = 0
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        if not res.passed:
            n_fail += 1
        line = f"{status} {res.ident} {res.detail}"
        print(line)
        # wall time goes to stdout only: verify.txt stays deterministic
        print(f"time {res.ident} {res.seconds:.2f} s")
        lines.append(line)
    summary = f"{'PASS' if n_fail == 0 else 'FAIL'} suite={suite} " \
              f"criteria={len(results)} failures={n_fail}"
    print(summary)
    os.makedirs(out or ".", exist_ok=True)
    with open(os.path.join(out, "verify.txt"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines + [summary]) + "\n")
    return 0 if n_fail == 0 else 3


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sublap",
        description="Minimal positive solutions of sublinear weighted "
                    "p-Laplace problems on (-1, 1)",
    )
    parser.add_argument("--config", help="JSON config file", default=None)
    parser.add_argument("--out", help="output directory (overrides config and "
                                      f"the {OUT_ENV} environment variable)")
    parser.add_argument("--jobs", type=int, default=1, help="sweep worker count")
    parser.add_argument("--tol", type=float, default=None,
                        help="solver.tolerance override (accepted and ignored)")
    parser.add_argument("--p", type=float, default=None)
    parser.add_argument("--q", type=float, default=None)
    parser.add_argument("--gamma", type=float, default=None)
    parser.add_argument("--beta", type=float, default=None)
    parser.add_argument("--alpha", type=float, default=None)
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("solve", help="solve the Dirichlet problem for the configured measure")
    sub.add_parser("wolff", help="sample the truncated Wolff potential and the ratio report")
    sub.add_parser("energy", help="generalized energy report")
    sub.add_parser("iterate", help="fixed-point iteration for the sublinear problem")
    sub.add_parser("trace", help="trace-constant bracket and Rayleigh lower bound")
    sweep = sub.add_parser("sweep", help="parameter sweep (rows in deterministic order)")
    sweep.add_argument("--axis", action="append", default=[],
                       help="axis spec name=start:stop:step or name=v1,v2,...")
    verify = sub.add_parser("verify", help="run a verification suite")
    verify.add_argument("--suite", default="acceptance",
                        help="suite name: acceptance | smoke")
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    commands = {"solve": cmd_solve, "wolff": cmd_wolff, "energy": cmd_energy,
                "iterate": cmd_iterate, "trace": cmd_trace,
                "sweep": lambda cfg: cmd_sweep(cfg, args.axis, args.jobs),
                "verify": lambda cfg: cmd_verify(cfg, args.suite)}
    try:
        return commands[args.command](effective_config(args))
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 1
    except (QuadratureError, ConvergenceError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2
    except SublapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
