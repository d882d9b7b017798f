import json

import numpy as np
import pytest

from sublap.cli import main


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
