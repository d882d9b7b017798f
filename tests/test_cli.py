import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sublap
from sublap import cli
from sublap.cli import main
from sublap.energy import triple_norm
from sublap.errors import ConvergenceError, QuadratureError
from sublap.measures import dirac
from sublap.weights import constant_weight


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


DIRAC_CFG = {
    "problem": {"p": 2.0, "q": 0.5, "gamma": 1.0},
    "weight": {"family": "constant"},
    "measure": {"atoms": [[0.0, 1.0]]},
    "solver": {},
}


def test_solve_writes_green_function(tmp_path):
    cfg = write_config(tmp_path, DIRAC_CFG)
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "solve"]) == 0
    rows = np.genfromtxt(out / "solution.csv", delimiter=",", names=True)
    err = np.abs(rows["u"] - (1.0 - np.abs(rows["x"])) / 2.0)
    assert np.max(err) < 1e-10
    report = (out / "solve_report.txt").read_text()
    assert "flux_constant = 0.5" in report


def test_solve_of_the_zero_measure_under_a_power_weight(tmp_path):
    # w(+-1) = 0 and the flux is 0 there: every column of the end rows is 0
    cfg = dict(DIRAC_CFG, weight={"family": "power", "beta": 0.5}, measure={})
    out = tmp_path / "out"
    assert main(["--config", write_config(tmp_path, cfg), "--out", str(out), "solve"]) == 0
    rows = (out / "solution.csv").read_text().splitlines()
    assert rows[1] == "-1.0,0.0,0.0,0.0" and rows[-1] == "1.0,0.0,0.0,0.0"


def test_solve_reports_no_truncation_levels(tmp_path):
    # finite and infinite mass alike are one solve
    out = tmp_path / "finite"
    assert main(["--config", write_config(tmp_path, DIRAC_CFG), "--out", str(out), "solve"]) == 0
    assert "truncation_levels_used = 0" in (out / "solve_report.txt").read_text().splitlines()
    cfg = dict(DIRAC_CFG, measure={"density": {"family": "power", "alpha": 1.2}})
    out = tmp_path / "infinite"
    assert main(["--config", write_config(tmp_path, cfg, "power.json"), "--out", str(out),
                 "solve"]) == 0
    report = dict(line.split(" = ") for line in
                  (out / "solve_report.txt").read_text().splitlines())
    assert int(report["truncation_levels_used"]) == 0
    assert report["diverged"] == "false" and report["flux_constant"] == "inf"


def test_energy_report_and_sweep_keep_their_zero_level_counts(tmp_path):
    for name, measure in (("finite", DIRAC_CFG["measure"]),
                          ("infinite", {"density": {"family": "power", "alpha": 1.2}})):
        cfg = write_config(tmp_path, dict(DIRAC_CFG, measure=measure), name + ".json")
        out = tmp_path / name
        assert main(["--config", cfg, "--out", str(out), "energy"]) == 0
        assert "levels_used = 0" in (out / "energy_report.txt").read_text().splitlines()
    out = tmp_path / "sweep"
    assert main(["--config", cfg, "--out", str(out), "sweep", "--axis", "alpha=1.2,1.9"]) == 0
    header, *rows = (out / "sweep.csv").read_text().splitlines()
    assert header.split(",")[-1] == "levels"
    assert len(rows) == 2 and all(row.split(",")[-1] == "0" for row in rows)


def test_config_with_truncation_ladder_keys_still_solves(tmp_path):
    # tolerance and truncation_max configured the truncation ladder; configs
    # that carry them keep loading
    cfg = dict(DIRAC_CFG, measure={"density": {"family": "power", "alpha": 1.2}},
               solver={"tolerance": 1e-9, "truncation_max": 40})
    out = tmp_path / "out"
    assert main(["--config", write_config(tmp_path, cfg), "--out", str(out), "solve"]) == 0
    assert "diverged = false" in (out / "solve_report.txt").read_text()


def test_solve_deterministic_output(tmp_path):
    cfg = write_config(tmp_path, DIRAC_CFG)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["--config", cfg, "--out", str(out1), "solve"]) == 0
    assert main(["--config", cfg, "--out", str(out2), "solve"]) == 0
    assert (out1 / "solution.csv").read_bytes() == (out2 / "solution.csv").read_bytes()


def test_flag_overrides_config(tmp_path):
    cfg = write_config(tmp_path, DIRAC_CFG)
    out = tmp_path / "out"
    # p = 3 via flag: flux constant stays 1/2 but u(0) = (1/2)^(1/2)
    assert main(["--config", cfg, "--out", str(out), "--p", "3.0", "solve"]) == 0
    rows = np.genfromtxt(out / "solution.csv", delimiter=",", names=True)
    i0 = np.argmin(np.abs(rows["x"]))
    assert rows["u"][i0] == pytest.approx(0.5 ** 0.5, rel=1e-10)


def test_env_var_output_dir(tmp_path, monkeypatch):
    cfg = write_config(tmp_path, DIRAC_CFG)
    target = tmp_path / "envout"
    monkeypatch.setenv("SUBLAP_OUT", str(target))
    monkeypatch.chdir(tmp_path)
    assert main(["--config", cfg, "solve"]) == 0
    assert (target / "solution.csv").exists()


def test_energy_and_trace_reports(tmp_path):
    cfg = write_config(tmp_path, DIRAC_CFG)
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "energy"]) == 0
    text = (out / "energy_report.txt").read_text()
    assert "e_gamma = 0.5" in text.splitlines()
    # from the energy, not from a second solve
    norm = triple_norm(2.0, constant_weight(), dirac(0.0), 1.0)
    assert f"triple_norm = {norm!r}" in text.splitlines()
    assert main(["--config", cfg, "--out", str(out), "--q", "0.0", "trace"]) == 0
    text = (out / "trace_report.txt").read_text()
    assert "rayleigh_lower" in text


def test_iterate_subcommand(tmp_path):
    cfg = write_config(tmp_path, DIRAC_CFG)
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "iterate"]) == 0
    rows = np.genfromtxt(out / "iterate.csv", delimiter=",", names=True)
    i0 = np.argmin(np.abs(rows["x"]))
    assert rows["u"][i0] == pytest.approx(0.25, rel=1e-6)
    # the per-step scale factors stay out of the artifacts
    report = dict(line.split(" = ") for line in
                  (out / "iterate_report.txt").read_text().splitlines())
    assert set(report) == {"steps", "converged", "diverged", "monotone",
                           "final_residual", "final_norm"}
    assert sorted(p.name for p in out.iterdir()) == [
        "iterate.csv", "iterate_norms.csv", "iterate_report.txt"]


def test_wolff_subcommand(tmp_path):
    cfg = write_config(tmp_path, DIRAC_CFG)
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "wolff"]) == 0
    assert (out / "wolff.csv").exists()
    assert (out / "wolff_report.txt").exists()


def test_sweep_classification_flip(tmp_path):
    cfg = write_config(tmp_path, {
        "problem": {"p": 2.0, "q": 0.5},
        "weight": {"family": "constant"},
        "measure": {},
        "solver": {},
    })
    out = tmp_path / "out"
    code = main(["--config", cfg, "--out", str(out), "sweep",
                 "--axis", "alpha=1.55:1.95:0.1"])
    assert code == 0
    lines = (out / "sweep.csv").read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
    # threshold alpha* = 1.75: classification flips across it
    classes = {float(r["alpha"]): r["classification"] for r in rows}
    assert classes[1.55] == "solvable"
    assert classes[1.95] == "not_solvable"


def test_sweep_parallel_matches_serial(tmp_path):
    cfg = write_config(tmp_path, {
        "problem": {"p": 2.0, "q": 0.5},
        "weight": {"family": "constant"},
        "measure": {},
        "solver": {"truncation_max": 12},
    })
    out1, out2 = tmp_path / "s", tmp_path / "pll"
    tail = ["sweep", "--axis", "alpha=1.0,1.2,1.9"]
    main(["--config", cfg, "--out", str(out1)] + tail)
    main(["--config", cfg, "--out", str(out2), "--jobs", "2"] + tail)
    assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()


def test_tabulated_density_ingestion(tmp_path):
    table = tmp_path / "dens.csv"
    table.write_text("-0.5,0.0\n0.0,2.0\n0.5,0.0\n")
    cfg = write_config(tmp_path, {
        "problem": {"p": 2.0, "q": 0.5},
        "weight": {"family": "constant"},
        "measure": {"tabulated": str(table)},
        "solver": {},
    })
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), "solve"]) == 0
    report = (out / "solve_report.txt").read_text()
    assert "diverged = false" in report


def test_validation_error_exit_code(tmp_path):
    cfg = write_config(tmp_path, {
        "problem": {"p": 0.5},  # outside 1 < p
        "weight": {"family": "constant"},
        "measure": {"atoms": [[0.0, 1.0]]},
        "solver": {},
    })
    assert main(["--config", cfg, "--out", str(tmp_path / "o"), "solve"]) == 1


def test_missing_config_is_validation_error(tmp_path):
    assert main(["--config", str(tmp_path / "nope.json"), "solve"]) == 1


def test_divergent_energy_exit_code(tmp_path):
    cfg = write_config(tmp_path, {
        "problem": {"p": 2.0, "q": 0.5, "gamma": 1.0},
        "weight": {"family": "constant"},
        "measure": {"density": {"family": "power", "alpha": 1.9}},
        "solver": {},
    })
    assert main(["--config", cfg, "--out", str(tmp_path / "o"), "energy"]) == 2


DIVERGENT_ITERATION_CFG = {
    # alpha = 1.9 lies above alpha* = 1.75 for p = 2, q = 0.5
    "problem": {"p": 2.0, "q": 0.5},
    "weight": {"family": "constant"},
    "measure": {"density": {"family": "power", "alpha": 1.9}},
    "solver": {},
}


def test_divergent_iteration_exit_code(tmp_path):
    cfg = write_config(tmp_path, DIVERGENT_ITERATION_CFG)
    out = tmp_path / "o"
    assert main(["--config", cfg, "--out", str(out), "iterate"]) == 2
    assert "diverged = true" in (out / "iterate_report.txt").read_text().splitlines()


def test_the_module_entry_point_exits_with_the_command_code(tmp_path):
    cfg = write_config(tmp_path, DIVERGENT_ITERATION_CFG)
    src = str(Path(sublap.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-m", "sublap.cli", "--config", cfg, "--out", str(tmp_path / "o"),
         "iterate"], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2
    assert "diverged=True" in proc.stdout


@pytest.mark.parametrize("error", [QuadratureError, ConvergenceError])
def test_numerical_errors_exit_with_code_2(tmp_path, capsys, monkeypatch, error):
    def fail(cfg):
        raise error("no root in the bracket")

    monkeypatch.setattr(cli, "cmd_solve", fail)
    cfg = write_config(tmp_path, DIRAC_CFG)
    assert main(["--config", cfg, "--out", str(tmp_path / "o"), "solve"]) == 2
    assert capsys.readouterr().err == "numerical error: no root in the bracket\n"


@pytest.mark.parametrize("p", [1.5, 2.5])
@pytest.mark.parametrize("alpha", [0.5, 1.5])
def test_a_power_density_with_coefficient_zero_solves_as_the_zero_measure(tmp_path, alpha, p):
    # the artifacts are those of the zero measure: no nan, no divergence
    texts = []
    for name, density in (("power", {"family": "power", "alpha": alpha, "coef": 0}),
                          ("zero", {"family": "zero"})):
        cfg = write_config(tmp_path, dict(DIRAC_CFG, problem={"p": p},
                                          measure={"density": density}), name + ".json")
        out = tmp_path / name
        assert main(["--config", cfg, "--out", str(out), "solve"]) == 0
        texts.append([(out / f).read_text() for f in ("solution.csv", "solve_report.txt")])
    assert texts[0] == texts[1]
    assert "nan" not in texts[0][0] and "diverged = false" in texts[0][1].splitlines()


@pytest.mark.parametrize("flag, table", [("--alpha", "measure.density"), ("--beta", "weight")])
def test_a_power_flag_on_another_configured_family_is_a_validation_error(tmp_path, capsys,
                                                                         flag, table):
    cfg = write_config(tmp_path, dict(DIRAC_CFG, weight={"family": "constant"},
                                      measure={"density": {"family": "constant"}}))
    assert main(["--config", cfg, "--out", str(tmp_path / "o"), flag, "0.5", "solve"]) == 1
    err = capsys.readouterr().err
    assert flag in err and f"{table}.family is 'constant'" in err


def test_power_flags_set_the_power_family_where_the_config_names_none(tmp_path):
    named = {"weight": {"family": "power", "beta": 0.3},
             "measure": {"density": {"family": "power", "alpha": 0.6}}}
    unnamed = {"weight": {}, "measure": {"density": {"coef": 1.0}}}
    solutions = []
    for name, tables, flags in (("named", named, []),
                                ("unnamed", unnamed, ["--alpha", "0.6", "--beta", "0.3"])):
        cfg = write_config(tmp_path, dict(DIRAC_CFG, **tables), name + ".json")
        out = tmp_path / name
        assert main(["--config", cfg, "--out", str(out)] + flags + ["solve"]) == 0
        solutions.append((out / "solution.csv").read_bytes())
    assert solutions[0] == solutions[1]


def test_verify_smoke_suite(tmp_path):
    out = tmp_path / "out"
    assert main(["--out", str(out), "verify", "--suite", "smoke"]) == 0
    text = (out / "verify.txt").read_text()
    assert "PASS criterion_1_green_dirac" in text
    assert text.strip().splitlines()[-1].startswith("PASS suite=smoke")


def test_verify_prints_wall_times_but_keeps_them_out_of_the_file(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["--out", str(out), "verify", "--suite", "smoke"]) == 0
    lines = capsys.readouterr().out.splitlines()
    times = [ln for ln in lines if ln.startswith("time ")]
    assert [ln.split()[1] for ln in times] == ["criterion_1_green_dirac",
                                               "criterion_10_mee_sharpness"]
    assert all(ln.endswith(" s") and float(ln.split()[2]) >= 0.0 for ln in times)
    # verify.txt holds exactly the other lines: one per criterion and the summary
    rest = [ln for ln in lines if not ln.startswith("time ")]
    assert (out / "verify.txt").read_text() == "\n".join(rest) + "\n"


def test_verify_unknown_suite(tmp_path):
    assert main(["--out", str(tmp_path / "o"), "verify", "--suite", "bogus"]) == 1


# -- malformed input is a validation error naming the key or the row -------------

@pytest.mark.parametrize("change, flags, key", [
    ({"problem": {"p": "two"}}, [], "problem.p"),
    ({"problem": 3}, [], "problem"),
    ({"solver": {"grid_nodes": "many"}}, [], "solver.grid_nodes"),
    ({"solver": {"grid_nodes": 64.9}}, [], "solver.grid_nodes"),
    ({"measure": {"atoms": [[0.1]]}}, [], "measure.atoms"),
    ({"measure": {"density": 3}}, ["--alpha", "0.5"], "measure.density"),
], ids=["non-numeric p", "table not an object", "grid_nodes many", "fractional grid_nodes",
        "atom without mass", "density not an object under --alpha"])
def test_malformed_config_is_a_validation_error(tmp_path, capsys, change, flags, key):
    cfg = write_config(tmp_path, dict(DIRAC_CFG, **change))
    assert main(["--config", cfg, "--out", str(tmp_path / "o")] + flags + ["solve"]) == 1
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("row", ["0.0", "0.0,lots", "0.0,1.0,junk"],
                         ids=["one column", "non-numeric cell", "three columns"])
def test_malformed_tabulated_row_is_a_validation_error(tmp_path, capsys, row):
    table = tmp_path / "dens.csv"
    table.write_text(f"# x,value\n-0.5,0.0\n{row}\n0.5,0.0\n")
    cfg = write_config(tmp_path, dict(DIRAC_CFG, measure={"tabulated": str(table)}))
    assert main(["--config", cfg, "--out", str(tmp_path / "o"), "solve"]) == 1
    assert "row 3" in capsys.readouterr().err


@pytest.mark.parametrize("axis", ["alpha=1:2:0", "alpha=1:x:0.1"], ids=["zero step", "non-numeric stop"])
def test_malformed_sweep_axis_is_a_validation_error(tmp_path, capsys, axis):
    cfg = write_config(tmp_path, DIRAC_CFG)
    assert main(["--config", cfg, "--out", str(tmp_path / "o"), "sweep", "--axis", axis]) == 1
    assert axis.split("=")[1] in capsys.readouterr().err
