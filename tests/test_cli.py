"""Command-line surface: subcommands, exit codes, config file, CSV output."""

import argparse
import ast
import builtins
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ergokit
from ergokit import (
    Bipartition,
    CapacityError,
    DensityMatrix,
    DomainError,
    NumericalError,
    ShapeError,
    StructuredUnitary,
    SystemSpec,
    UnsupportedError,
    ValidityError,
    apply_unitary,
    bath_extractable_work,
    beta_for_entropy,
    bias_after_inversion,
    cli,
    core,
    count_global_energies,
    diagonal_state_at_entropy,
    dicke_mixture_work_formula,
    entropy_constrained_bound,
    ergotropy,
    free_energy,
    inversion_sequence_to_bias,
    level_inversion_unitary,
    local_beta_for_bias,
    npt_witness_half_split,
    pair_rotation_unitary,
    prepare_locally_thermal,
    product_thermal_state,
    smallest_shell_for_entropy,
    thermal_params,
    verify,
)
from ergokit.cli import SweepConfig, load_config_file, main, sweep_rows
from ergokit.figures import figure1_rows
from ergokit.passivity import BETA_MAX_SCALE
from ergokit.verify import DEFAULT_SEED, CheckResult, run_suite
from ergokit.reporting import format_value
from decimal_oracle import qubit_entropy_bound
from golden_outputs import COMMANDS, parse_csv

P1 = math.exp(-1.0) / (1.0 + math.exp(-1.0))


# ---------------------------------------------------------------------------
# figure1
# ---------------------------------------------------------------------------

def test_figure1_rows_reference_points():
    rows = figure1_rows(1.0, 4)
    assert [r.n for r in rows] == [1, 2, 3, 4]
    assert abs(rows[3].separable_ratio - 0.75) <= 1e-10
    for row in rows:
        assert abs(row.entangled_ratio - 1.0) <= 1e-10
    assert abs(rows[1].entropy_bound_ratio - 0.683) <= 3e-3


def test_figure1_rows_build_no_state():
    # every column is a closed form: a 2^60-entry state would not fit in memory
    rows = figure1_rows(1.0, 60)
    assert rows[-1].n == 60 and rows[-1].entangled_ratio == 1.0


def test_figure1_domain_errors_exit_2(capsys):
    with pytest.raises(DomainError):
        figure1_rows(1.0, 0)
    # n E_beta underflows to 0, which leaves the ratios undefined
    with pytest.raises(DomainError):
        figure1_rows(1e6, 3)
    assert main(["figure1", "--n-max", "0"]) == 2
    assert main(["figure1", "--beta", "1e6", "--n-max", "3"]) == 2
    assert "underflows" in capsys.readouterr().err


def test_a_numerical_error_in_a_handler_exits_2(monkeypatch, capsys):
    def stalled(beta_e, n_max):
        raise NumericalError("entropy solve stalled at residual 1.000e-08")

    monkeypatch.setattr(cli, "figure1_rows", stalled)
    assert main(["figure1", "--n-max", "3"]) == 2
    assert capsys.readouterr().err == "error: entropy solve stalled at residual 1.000e-08\n"


def test_figure1_files(tmp_path, capsys):
    out = tmp_path / "fig.csv"
    assert main(["figure1", "--n-max", "5", "--out", str(out), "--format", "both"]) == 0
    assert out.exists()
    assert out.with_suffix(".svg").exists()
    _, rows = parse_csv(out)
    assert len(rows) == 5


# ---------------------------------------------------------------------------
# ergotropy
# ---------------------------------------------------------------------------

def test_ergotropy_entangled(capsys):
    assert main(["ergotropy", "--family", "entangled", "--n", "3"]) == 0
    out = capsys.readouterr().out
    values = dict(line.split(" = ") for line in out.strip().splitlines())
    assert float(values["ergotropy"]) == pytest.approx(3 * P1, abs=1e-9)
    assert float(values["ergotropy"]) == pytest.approx(0.806824, abs=1e-5)


def test_ergotropy_dicke(capsys):
    assert main(["ergotropy", "--family", "dicke", "--n", "2"]) == 0
    out = capsys.readouterr().out
    values = dict(line.split(" = ") for line in out.strip().splitlines())
    assert float(values["ergotropy"]) == pytest.approx(0.072329, abs=1e-6)


def test_ergotropy_separable_single_subsystem_usage_error(capsys):
    code = main(["ergotropy", "--family", "separable", "--n", "1"])
    assert code == 2
    assert "n >= 2" in capsys.readouterr().err


def test_ergotropy_non_finite_ladder_exit_2(capsys):
    code = main(["ergotropy", "--family", "separable", "--n", "2",
                 "--energy-ladder", "0,nan"])
    assert code == 2
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["--family", "entangled", "--n", "2"],
    ["--family", "separable", "--n", "3", "--beta", "0"],
])
def test_ergotropy_overflowing_ladder_exit_2(args, capsys):
    # n E_max = 2e308 or 3e308 is inf: the spec refuses it, so no NaN or overflow
    assert main(["ergotropy", *args, "--energy-ladder", "0,1e308"]) == 2
    out, err = capsys.readouterr()
    assert "overflows" in err and "nan" not in out


def test_ergotropy_infeasible_entropy_exit_code(capsys):
    # 2.0 lies below n S(tau_beta) = 2.33, but above ln C(4, 2)
    code = main(["ergotropy", "--family", "fixed-entropy", "--n", "4",
                 "--total-entropy", "2.0"])
    assert code == 3
    assert "infeasible" in capsys.readouterr().err


def test_ergotropy_entropy_above_n_thermal_entropies_exit_2(capsys):
    code = main(["ergotropy", "--family", "fixed-entropy", "--n", "4",
                 "--total-entropy", "5.0"])
    assert code == 2
    assert "outside the locally thermal range" in capsys.readouterr().err


def test_ergotropy_csv_row(tmp_path, capsys):
    out = tmp_path / "row.csv"
    assert main(["ergotropy", "--family", "separable", "--n", "4",
                 "--out", str(out)]) == 0
    _, rows = parse_csv(out)
    assert rows[0]["ergotropy"] == pytest.approx(3 * P1, abs=1e-9)


def test_ergotropy_accepts_qudit_ladder(capsys):
    assert main(["ergotropy", "--family", "separable", "--n", "3",
                 "--d", "3", "--energy-ladder", "0,1,2.5"]) == 0
    values = dict(line.split(" = ")
                  for line in capsys.readouterr().out.strip().splitlines())
    # W_sep = n E_beta - E_1 (1 - 1/Z) for the explicit three-level ladder
    z = 1 + math.exp(-1.0) + math.exp(-2.5)
    mean = (math.exp(-1.0) + 2.5 * math.exp(-2.5)) / z
    expected = 3 * mean - (1 - 1 / z)
    assert float(values["ergotropy"]) == pytest.approx(expected, abs=1e-9)


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def test_sweep_rows_contract():
    config = SweepConfig(family="separable", n_values=(2, 3, 4), include_ppt=True)
    rows = sweep_rows(config)
    assert [r["n"] for r in rows] == [2, 3, 4]
    for row in rows:
        assert row["status"] == "ok"
        assert row["ppt_min_eig"] >= -1e-10  # diagonal states stay PPT
        assert row["ergotropy"] <= row["bound_total_energy"] + 1e-9


def test_sweep_ppt_column_is_filled_beyond_n8(tmp_path, capsys):
    out = tmp_path / "ppt.csv"
    assert main(["sweep", "--family", "entangled", "--ppt", "--n", "9:12",
                 "--out", str(out)]) == 0
    _, rows = parse_csv(out)
    assert [r["n"] for r in rows] == [9, 10, 11, 12]
    for row in rows:
        assert row["status"] == "ok" and row["ppt_min_eig"] < 0.0


def test_sweep_infeasible_cells_are_recorded():
    config = SweepConfig(family="fixed-entropy", n_values=(2, 3, 8), total_entropy=2.0)
    rows = sweep_rows(config)
    assert [r["status"] for r in rows] == ["infeasible", "infeasible", "ok"]
    assert rows[0]["note"]


# the qubit family sweeps among the golden commands; the --ppt ones repeat
# the bound cells of the others
QUBIT_FAMILY_SWEEPS = sorted(name for name, argv in COMMANDS.items()
                             if argv[:1] == ["sweep"] and "protocol" not in argv
                             and "--d" not in argv and "--ppt" not in argv)


@pytest.mark.parametrize("name", QUBIT_FAMILY_SWEEPS)
def test_sweep_bound_entropy_cells_match_the_decimal_oracle(name):
    args = cli.build_parser().parse_args(COMMANDS[name])
    config = SweepConfig(family=args.family, n_values=cli._parse_n_range(args.n),
                         beta=args.beta, total_entropy=args.total_entropy)
    rows = [row for row in sweep_rows(config) if row["status"] == "ok"]
    assert rows
    for row in rows:
        # the bound at the row's own entropy, which the state's spectrum gives
        true = float(qubit_entropy_bound(args.beta, row["n"], row["entropy"]))
        value = row["bound_entropy"]
        assert abs(value - true) <= 1e-13 * true, (row["n"], value, true)
        assert format_value(value) == format_value(true), (row["n"], value, true)


def test_sweep_sizes_the_full_basis_in_bytes():
    # state-sized vectors cost 64 bytes an index: n = 22 fits 1 GiB, n = 25 does
    # not; 2^20006 and 16 C(16000, 8000), past 4300 decimal digits, still print
    ok, *refused = sweep_rows(SweepConfig(family="separable", n_values=(22, 25, 20000)))
    refused += sweep_rows(SweepConfig(family="dicke", n_values=(8000,)))
    assert ok["status"] == "ok" and ok["ergotropy"] > 0.0
    for row in refused:
        assert row["status"] == "infeasible" and "bytes" in row["note"]
    assert refused[1]["note"] == ("a state of dimension 2^20000 needs 2^20006 bytes; "
                                  "over the limit of 2^30")


def test_the_default_ladder_is_sized_before_it_is_built(monkeypatch, capsys):
    specs = []
    monkeypatch.setattr(cli, "SystemSpec", lambda **kw: specs.append(kw))
    monkeypatch.setattr(core, "DENSE_BYTES_MAX", 64 * 4 - 1)
    with pytest.raises(CapacityError, match="ladder"):
        cli._spec(2, 4, 1.0, None)
    assert main(["ergotropy", "--family", "dicke", "--n", "2", "--d", "4"]) == 2
    assert "ladder" in capsys.readouterr().err
    row, = sweep_rows(SweepConfig(family="dicke", n_values=(2,), d=4))
    assert row["status"] == "infeasible" and "ladder" in row["note"]
    assert specs == []
    cli._spec(2, 3, 1.0, None)
    assert specs[0]["local_energies"] == (0.0, 1.0, 2.0)


def test_sweep_protocol_residual_column():
    config = SweepConfig(family="protocol", n_values=(6, 8), beta_prime=1.0,
                         target_biases=(0.0, -0.3))
    rows = sweep_rows(config)
    assert len(rows) == 4
    for row in rows:
        assert row["status"] == "ok"
        assert row["residual"] is not None
        assert row["achieved_bias"] is not None


def test_sweep_deterministic_output(tmp_path, capsys):
    args = ["sweep", "--family", "dicke", "--n", "2:5", "--ppt",
            "--out", str(tmp_path / "a.csv")]
    assert main(args) == 0
    first = (tmp_path / "a.csv").read_bytes()
    args[-1] = str(tmp_path / "b.csv")
    assert main(args) == 0
    assert first == (tmp_path / "b.csv").read_bytes()


# ---------------------------------------------------------------------------
# protocol and verify subcommands
# ---------------------------------------------------------------------------

def test_protocol_rotate(capsys):
    assert main(["protocol", "--kind", "rotate", "--n", "3",
                 "--beta-prime", "2.0", "--target-bias", "0.3"]) == 0
    values = dict(line.split(" = ")
                  for line in capsys.readouterr().out.strip().splitlines())
    assert float(values["achieved_bias"]) == pytest.approx(0.3, abs=1e-10)
    assert float(values["residual"]) <= 1e-10


def test_protocol_invert(capsys):
    assert main(["protocol", "--kind", "invert", "--n", "8",
                 "--beta-prime", "1.0", "--target-bias", "-0.4"]) == 0
    values = dict(line.split(" = ")
                  for line in capsys.readouterr().out.strip().splitlines())
    assert values["levels"].strip()
    assert float(values["residual"]) >= 0.0


def test_protocol_unreachable_target(capsys):
    assert main(["protocol", "--kind", "rotate", "--n", "2",
                 "--beta-prime", "1.0", "--target-bias", "0.9"]) == 2
    for kind in ("rotate", "invert"):
        assert main(["protocol", "--kind", kind, "--n", "3",
                     "--beta-prime", "1.0", "--target-bias", "nan"]) == 2


def test_protocol_invert_over_the_byte_budget_exits_2(capsys):
    # the chain's state is sized before its bias is measured on the full basis
    assert main(["protocol", "--kind", "invert", "--n", "30", "--beta-prime", "1"]) == 2
    assert capsys.readouterr().err == (
        "error: a state of dimension 2^30 needs 2^36 bytes, over the limit of 2^30\n")


@pytest.mark.parametrize("kind", ["rotate", "invert"])
def test_protocol_pure_target_reports_beta_sentinel(kind, capsys):
    assert main(["protocol", "--kind", kind, "--n", "3",
                 "--beta-prime", "100", "--target-bias", "1.0"]) == 0
    values = dict(line.split(" = ")
                  for line in capsys.readouterr().out.strip().splitlines())
    assert float(values["beta_local"]) == BETA_MAX_SCALE


@pytest.mark.parametrize("kind", ["rotate", "invert"])
def test_protocol_zero_gap_ladder(kind, capsys):
    assert main(["protocol", "--kind", kind, "--n", "3", "--beta-prime", "1.0",
                 "--energy-ladder", "0,0"]) == 0
    values = dict(line.split(" = ")
                  for line in capsys.readouterr().out.strip().splitlines())
    assert float(values["beta_local"]) == 0.0


def test_verify_subcommand(monkeypatch, capsys, verify_all):
    # the checks themselves run once, in the session's shared verify run at
    # DEFAULT_SEED; the stub hands its entanglement results back as the seed 7
    # run's, and the test reads only how the report prints them
    calls = []

    def shared_run(suite, seed):
        calls.append((suite, seed))
        return verify_all.suite(suite)

    monkeypatch.setattr(cli, "run_suite", shared_run)
    assert main(["verify", "--suite", "entanglement", "--seed", "7"]) == 0
    assert calls == [("entanglement", 7)]
    out = capsys.readouterr().out
    assert "seed = 7" in out
    assert "[PASS] entanglement/witness-point-value" in out
    assert "0 failed" in out

    monkeypatch.setattr(cli, "run_suite", lambda suite, seed: [
        CheckResult(name="bounds/broken", passed=False, detail="boom", seconds=0.0)])
    assert main(["verify", "--suite", "bounds"]) == 1
    assert "[FAIL] bounds/broken (0.00 s)  boom" in capsys.readouterr().out


def test_verify_json_report(monkeypatch, capsys, verify_all):
    monkeypatch.setattr(cli, "run_suite", lambda suite, seed: verify_all.suite(suite))
    assert main(["verify", "--suite", "entanglement", "--seed", "7", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["seed"] == 7
    assert report["numpy"] == np.__version__
    assert set(report["blas"]) == {"name", "version"}
    assert [c["name"] for c in report["checks"]] == [
        "entanglement/witness-point-value", "entanglement/witness-sign-agreement",
        "entanglement/separable-mixtures-ppt"]
    for check in report["checks"]:
        assert set(check) == {"name", "passed", "detail", "seconds"}
        assert check["passed"] is True and check["seconds"] >= 0.0

    monkeypatch.setattr(cli, "run_suite", lambda suite, seed: [
        CheckResult(name="bounds/broken", passed=False, detail="boom", seconds=0.0)])
    assert main(["verify", "--suite", "bounds", "--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["checks"] == [
        {"name": "bounds/broken", "passed": False, "detail": "boom", "seconds": 0.0}]


def test_python_dash_m_ergokit_runs_the_cli():
    src = Path(cli.__file__).parents[1]
    done = subprocess.run([sys.executable, "-m", "ergokit", "verify", "--suite", "passivity"],
                          env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "[PASS] passivity/thermal-products-passive" in done.stdout


@pytest.mark.parametrize("seed", [7, DEFAULT_SEED])
@pytest.mark.parametrize("suite", list(verify.SUITES))
def test_a_check_draws_the_same_alone_as_under_all(suite, seed, monkeypatch):
    # every spy fails with its generator's first draw, so each report line
    # carries the draw its check was given
    def spy(rng):
        raise AssertionError(f"drew {rng.uniform()!r}")

    monkeypatch.setattr(verify, "SUITES", {
        group: tuple((name, spy) for name, _ in checks) for group, checks in verify.SUITES.items()})
    alone = run_suite(suite, seed)
    under_all = [r for r in run_suite("all", seed) if r.name.startswith(f"{suite}/")]
    assert [r.name for r in alone] == [f"{suite}/{name}" for name, _ in verify.SUITES[suite]]
    assert [r.detail for r in alone] == [r.detail for r in under_all]
    assert all(not r.passed and r.detail.startswith("AssertionError: drew ") for r in alone)


# ---------------------------------------------------------------------------
# config file
# ---------------------------------------------------------------------------

def test_config_file_sets_defaults(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# figure1 at half the default beta\n\nn-max = 3\nbeta = 0.5  # half the default\n",
                   encoding="utf-8")
    assert main(["figure1", "--config", str(cfg)]) == 0
    _, rows = parse_csv(capsys.readouterr().out)
    assert len(rows) == 3  # n-max from the config
    # the separable ratio is 1 - 1/n for qubits at any beta
    assert rows[1]["separable_ratio"] == pytest.approx(0.5, abs=1e-10)


def test_config_file_flag_overrides(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n-max = 3\n", encoding="utf-8")
    assert main(["figure1", "--config", str(cfg), "--n-max", "2"]) == 0
    _, rows = parse_csv(capsys.readouterr().out)
    assert len(rows) == 2


def test_config_file_rejects_unknown_keys(tmp_path, capsys):
    # keys are checked by the subcommand's parser, like the flags they become
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mystery = 1\n", encoding="utf-8")
    assert load_config_file(cfg) == ["--mystery=1"]
    assert main(["figure1", "--config", str(cfg)]) == 2
    assert "--mystery" in capsys.readouterr().err
    for text in ("n-max\n", f"config = {cfg}\n"):
        cfg.write_text(text, encoding="utf-8")
        assert main(["figure1", "--config", str(cfg)]) == 2


def test_a_config_file_that_is_not_utf8_exits_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"n-max = \xff\n")
    with pytest.raises(DomainError):
        load_config_file(cfg)
    assert main(["figure1", "--config", str(cfg)]) == 2
    assert "is not UTF-8 text" in capsys.readouterr().err


def test_config_values_take_the_flags_types(tmp_path, monkeypatch, capsys, verify_all):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("family = protocol\nn = 3:4\nbeta_prime = 1.0\n"
                   "target_bias = -0.3 0.1  # one flag a word\n", encoding="utf-8")
    assert main(["sweep", "--config", str(cfg)]) == 0
    _, rows = parse_csv(capsys.readouterr().out)
    assert [(r["n"], r["target_bias"]) for r in rows] == [
        (3, -0.3), (3, 0.1), (4, -0.3), (4, 0.1)]

    monkeypatch.setattr(cli, "run_suite", lambda suite, seed: verify_all.suite(suite))
    cfg.write_text("suite = entanglement\njson = true\n", encoding="utf-8")
    assert main(["verify", "--config", str(cfg)]) == 0
    assert len(json.loads(capsys.readouterr().out)["checks"]) == 3


PROTOCOL = ["protocol", "--n", "3", "--beta-prime", "1.0"]
ERGOTROPY = ["ergotropy", "--family", "entangled", "--n", "2"]


@pytest.mark.parametrize("argv, config, key", [
    # options a subcommand does not read
    (["figure1", "--energy-ladder", "0,5,9"], None, "--energy-ladder"),
    (["figure1", "--d", "3"], None, "--d"),
    (["figure1", "--seed", "3"], None, "--seed"),
    ([*ERGOTROPY, "--seed", "3"], None, "--seed"),
    ([*ERGOTROPY, "--format", "svg"], None, "--format"),
    (["verify", "--beta", "2"], None, "--beta"),
    (["verify", "--energy-ladder", "0,1"], None, "--energy-ladder"),
    (["verify", "--d", "2"], None, "--d"),
    (["verify", "--out", "x.csv"], None, "--out"),
    (["verify", "--format", "csv"], None, "--format"),
    (["sweep", "--family", "entangled", "--n", "2", "--seed", "3"], None, "--seed"),
    ([*PROTOCOL, "--beta", "2"], None, "--beta"),  # not an abbreviation of --beta-prime
    ([*PROTOCOL, "--seed", "3"], None, "--seed"),
    ([*PROTOCOL, "--out", "x.csv"], None, "--out"),
    ([*PROTOCOL, "--format", "csv"], None, "--format"),
    # config values are checked where the flags are
    (PROTOCOL, "kind = rotat", "--kind"),
    (["figure1"], "format = pdf", "--format"),
    (["figure1"], "seed = 3", "--seed"),
])
def test_inputs_a_subcommand_does_not_read_exit_2(argv, config, key, tmp_path, capsys):
    if config is not None:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config + "\n", encoding="utf-8")
        argv = [*argv, "--config", str(cfg)]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert key in err and not out


def test_readme_commands_parse():
    # every `ergokit ...` line of README.md is a valid command line
    readme = Path(__file__).resolve().parents[1] / "README.md"
    lines = [line.split("#", 1)[0] for line in readme.read_text(encoding="utf-8").splitlines()
             if line.startswith("ergokit ")]
    assert len(lines) >= 10
    for line in lines:
        cli.build_parser().parse_args(shlex.split(line)[1:])


# a command each subcommand with a float option runs without it
FLOAT_OPTION_BASES = {
    "figure1": ["figure1", "--n-max", "3"],
    "ergotropy": ["ergotropy", "--family", "fixed-entropy", "--n", "3", "--total-entropy", "1"],
    "sweep": ["sweep", "--family", "protocol", "--n", "3"],
    "protocol": PROTOCOL,
}


def _float_options():
    commands = next(a for a in cli.build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    return [(name, flag) for name, cmd in commands.items() for action in cmd._actions
            if action.type is float for flag in action.option_strings]


def test_every_float_option_has_a_base_command():
    assert {name for name, _ in _float_options()} == set(FLOAT_OPTION_BASES)
    assert len(_float_options()) == 9


@pytest.mark.parametrize("value", ["-1e-3", "-2E+1", "-.5e-1"])
@pytest.mark.parametrize("name, flag", _float_options())
def test_float_options_read_exponent_negatives(name, flag, value, capsys):
    # `--opt -1e-3` reads as `--opt=-1e-3`: same output, messages and exit code
    spaced = main([*FLOAT_OPTION_BASES[name], flag, value]), *capsys.readouterr()
    joined = main([*FLOAT_OPTION_BASES[name], f"{flag}={value}"]), *capsys.readouterr()
    assert spaced == joined
    if (name, flag, value) == ("protocol", "--target-bias", "-1e-3"):
        assert spaced[0] == 0 and "achieved_bias = -0.001" in spaced[1]


# ---------------------------------------------------------------------------
# typed errors
# ---------------------------------------------------------------------------

QUBITS = SystemSpec.qubits(4, 1.0)
QUTRITS = SystemSpec(n=2, d=3, local_energies=(0.0, 1.0, 2.0), beta=1.0)
# the smallest positive beta, where the entropy solve's slope beta' Var(E) is 0,
# and the same spec at a normal beta with the same Gibbs weights
SUBNORMAL_BETA = SystemSpec.qubits(2, 5e-324)
TINY_BETA = SystemSpec.qubits(2, 1e-300)
# qubits whose gap is the smallest positive float: 1 / gap overflows
SUBNORMAL_GAP = SystemSpec.qubits(2, 1.0, energy=5e-324)


def _same_figure1_rows(beta_e: float, n_max: int) -> bool:
    pairs = zip(figure1_rows(beta_e, n_max), figure1_rows(1e-300, n_max))
    return all(a.separable_ratio == b.separable_ratio
               and abs(a.entropy_bound_ratio - b.entropy_bound_ratio) <= 1e-15 for a, b in pairs)


# a call at each edge no other test reaches -> the error it raises, and the
# command line that reaches it, if any.  The error may be a pair (type, the
# start of its message); None marks an input that has an answer: the call
# checks it and returns True, and the command line exits 0.  A command line
# exits 2 with the error on stderr, unless given as (argv, 0): a sweep that
# exits 0 with the error as its row's note.
EDGE_INPUTS = {
    "witness-on-qutrits": (lambda: npt_witness_half_split(QUTRITS, 1.0, 0.3),
                           UnsupportedError, None),
    "bath-bound-at-beta-0": (lambda: bath_extractable_work(SystemSpec.qubits(2, 0.0), 0.0),
                             DomainError, None),
    "energy-count-negative-n": (lambda: count_global_energies(-1, 2), DomainError, None),
    "dicke-formula-on-qutrits": (lambda: dicke_mixture_work_formula(QUTRITS),
                                 UnsupportedError, None),
    "sweep-unknown-family": (lambda: SweepConfig(family="ghz", n_values=(2,)),
                             DomainError, None),
    "sweep-no-sizes": (lambda: SweepConfig(family="dicke", n_values=()), DomainError, None),
    "fixed-entropy-without-total": (lambda: cli.build_family_state(QUBITS, "fixed-entropy"),
                                    DomainError,
                                    ["ergotropy", "--family", "fixed-entropy", "--n", "3"]),
    "unknown-state-family": (lambda: cli.build_family_state(QUBITS, "ghz"), DomainError, None),
    "empty-n-range": (lambda: cli._parse_n_range("5:3"), DomainError,
                      ["sweep", "--family", "dicke", "--n", "5:3"]),
    "ladder-length": (lambda: SystemSpec(n=2, d=3, local_energies=(0.0, 1.0), beta=1.0),
                      DomainError, None),
    "state-not-square": (lambda: DensityMatrix(np.ones((2, 3)) / 2), ShapeError, None),
    "populations-not-a-vector": (lambda: DensityMatrix.from_diagonal([[1.0]]),
                                 ShapeError, None),
    "structured-unitary-dimension": (
        lambda: apply_unitary(product_thermal_state(QUBITS),
                              pair_rotation_unitary(SystemSpec.qubits(3, 1.0), 0.3)),
        ShapeError, None),
    "dense-unitary-not-square": (
        lambda: apply_unitary(DensityMatrix.from_diagonal([1.0, 0.0]), np.eye(2)[:1]),
        ShapeError, None),
    "bias-of-a-qutrit": (lambda: thermal_params(QUTRITS).bias, UnsupportedError, None),
    "hamiltonian-length": (lambda: ergotropy(product_thermal_state(QUBITS), [0.0, 1.0]),
                           ShapeError, None),
    "inversion-level-n-half": (lambda: bias_after_inversion(QUBITS, 0.2, 2), DomainError, None),
    "excitation-above-1": (lambda: bias_after_inversion(QUBITS, 1.5, 0), DomainError, None),
    "verify-unknown-suite": (lambda: run_suite("bogus"), DomainError, None),
    "verify-negative-seed": (lambda: run_suite(seed=-1), DomainError,
                             ["verify", "--seed", "-1"]),
    "spec-fractional-n": (lambda: SystemSpec(n=1.5, d=2, local_energies=(0.0, 1.0), beta=1.0),
                          DomainError, None),
    "spec-bool-n": (lambda: SystemSpec(n=True, d=2, local_energies=(0.0, 1.0), beta=1.0),
                    DomainError, None),
    "spec-float-d": (lambda: SystemSpec(n=2, d=2.0, local_energies=(0.0, 1.0), beta=1.0),
                     DomainError, None),
    "spec-string-beta": (lambda: SystemSpec(n=2, d=2, local_energies=(0.0, 1.0), beta="1"),
                         DomainError, None),
    "rotation-angle-inf": (lambda: pair_rotation_unitary(QUBITS, math.inf), DomainError, None),
    "rotation-angle-nan": (lambda: pair_rotation_unitary(QUBITS, math.nan), DomainError, None),
    "figure1-fractional-n-max": (lambda: figure1_rows(1.0, 2.5), DomainError, None),
    "negative-population": (lambda: DensityMatrix.from_diagonal([1.5, -0.5, 0.0, 0.0]),
                            ValidityError, None),
    "state-from-a-string": (lambda: DensityMatrix("ab"), ValidityError, None),
    "n-range-of-three-parts": (lambda: cli._parse_n_range("25:30:1"), DomainError,
                               ["sweep", "--family", "separable", "--n", "25:30:1"]),
    "ladder-not-numbers": (lambda: cli._parse_ladder("a,b"), DomainError,
                           ["sweep", "--family", "separable", "--n", "2",
                            "--energy-ladder", "a,b"]),
    "ergotropy-n-not-an-integer": (lambda: cli._parsed(int, "2.5", "subsystem count"),
                                   DomainError,
                                   ["ergotropy", "--family", "separable", "--n", "2.5"]),
    "protocol-n-not-an-integer": (lambda: cli._parsed(int, "x", "subsystem count"),
                                  DomainError, ["protocol", "--n", "x", "--beta-prime", "1"]),
    # a caller's array of non-numbers, through core's one conversion
    "populations-from-a-string": (lambda: DensityMatrix.from_diagonal("ab"), ValidityError, None),
    "amplitudes-from-a-string": (lambda: DensityMatrix.from_pure("ab"), ValidityError, None),
    "dense-unitary-from-a-string": (lambda: apply_unitary(product_thermal_state(QUBITS), "abc"),
                                    ValidityError, None),
    "hamiltonian-from-a-string": (lambda: ergotropy(product_thermal_state(QUBITS), "abc"),
                                  ValidityError, None),
    "rotation-pairs-from-strings": (lambda: StructuredUnitary.from_pairs(["a"], [1], 0.1, 4),
                                    ValidityError, None),
    "rotations-from-strings": (lambda: StructuredUnitary([("a", 1, 0.1)], 4), ValidityError, None),
    # integer parameters, through core._integer
    "inversion-level-fractional": (lambda: level_inversion_unitary(QUBITS, 0.5), DomainError, None),
    "inversion-level-bool": (lambda: level_inversion_unitary(QUBITS, True), DomainError, None),
    "bipartition-fractional-n": (lambda: Bipartition(side_a=frozenset({1}), n=2.5),
                                 DomainError, None),
    "bias-level-fractional": (lambda: bias_after_inversion(QUBITS, 0.3, 0.5), DomainError, None),
    "shell-search-fractional-n": (lambda: smallest_shell_for_entropy(2.5, 0.1), DomainError, None),
    "half-split-float-n": (lambda: Bipartition.half_split(4.0), DomainError, None),
    "energy-count-fractional-n": (lambda: count_global_energies(2.5, 2), DomainError, None),
    "verify-fractional-seed": (lambda: run_suite("bounds", 1.5), DomainError, None),
    # real parameters, through core._real
    "thermal-beta-a-string": (lambda: thermal_params(QUBITS, "x"), DomainError, None),
    "entropy-per-subsystem-a-string": (lambda: beta_for_entropy(QUBITS, "x"), DomainError, None),
    "entropy-bound-a-string": (lambda: entropy_constrained_bound(QUBITS, "x"), DomainError, None),
    "fixed-entropy-target-a-string": (lambda: diagonal_state_at_entropy(QUBITS, "x"),
                                      DomainError, None),
    "shell-search-entropy-a-string": (lambda: smallest_shell_for_entropy(4, "x"),
                                      DomainError, None),
    "bath-entropy-a-string": (lambda: bath_extractable_work(QUBITS, "x"), DomainError, None),
    "free-energy-beta-a-string": (lambda: free_energy(product_thermal_state(QUBITS),
                                                      [0.0] * 16, "x"), DomainError, None),
    "excitation-a-string": (lambda: bias_after_inversion(QUBITS, "x", 0), DomainError, None),
    "rotate-target-a-string": (lambda: prepare_locally_thermal(QUBITS, 1.0, "x"),
                               DomainError, None),
    # the rotated record is sized against the byte budget as a full-basis state,
    # as the inversion chain's is (test_protocol_invert_over_the_byte_budget_exits_2)
    "rotate-over-the-byte-budget": (
        lambda: prepare_locally_thermal(SystemSpec.qubits(30, 1.0), 1.0, 0.0),
        (CapacityError, "a state of dimension 2^30 needs 2^36 bytes, over the limit of 2^30"),
        ["protocol", "--kind", "rotate", "--n", "30", "--beta-prime", "1"]),
    "invert-target-a-string": (lambda: inversion_sequence_to_bias(QUBITS, 1.0, "x"),
                               DomainError, None),
    "local-beta-bias-a-string": (lambda: local_beta_for_bias(QUBITS, "x"), DomainError, None),
    "witness-beta-a-string": (lambda: npt_witness_half_split(QUBITS, "x", 0.3),
                              DomainError, None),
    "rotation-angle-a-numeric-string": (lambda: pair_rotation_unitary(QUBITS, "0.3"),
                                        DomainError, None),
    "local-energy-a-string": (lambda: SystemSpec.qubits(2, 1.0, energy="x"), DomainError, None),
    "unitary-dimension-fractional": (lambda: StructuredUnitary([], 4.5), DomainError, None),
    # a subnormal beta: the entropy solve bisects where its slope underflows
    "subnormal-beta-entropy-solve": (
        lambda: abs(beta_for_entropy(SUBNORMAL_BETA, 0.5).entropy - 0.5) <= 1e-12, None, None),
    "subnormal-beta-entropy-bound": (
        lambda: abs(entropy_constrained_bound(SUBNORMAL_BETA, 1.0)
                    - entropy_constrained_bound(TINY_BETA, 1.0)) <= 1e-15, None, None),
    "subnormal-beta-figure1": (lambda: _same_figure1_rows(5e-324, 3), None,
                               ["figure1", "--beta", "5e-324"]),
    "subnormal-beta-sweep": (
        lambda: [r["status"] for r in sweep_rows(SweepConfig("separable", (2, 3),
                                                              beta=5e-324))] == ["ok", "ok"],
        None, ["sweep", "--family", "separable", "--n", "2:3", "--beta", "5e-324"]),
    # a gap so small that the entropy solve's sentinel 1e6 / gap overflows
    "sentinel-of-a-subnormal-gap": (
        lambda: cli._family_values(cli._spec(2, 2, 1.0, (0.0, 5e-324)), "separable"),
        (DomainError, "energy gap 5e-324 is too small for the entropy solve"),
        (["sweep", "--family", "separable", "--n", "2:3", "--energy-ladder", "0,5e-324"], 0)),
    # constructors given the wrong kind of argument
    "rotation-pairs-not-triples": (lambda: StructuredUnitary([(1, 2)], 4), ShapeError, None),
    "rotation-index-past-int64": (lambda: StructuredUnitary.from_pairs([2 ** 70], [1], 0.1, 4),
                                  ValidityError, None),
    "bipartition-side-an-integer": (lambda: Bipartition(side_a=1, n=3), DomainError, None),
    "spec-ladder-none": (lambda: SystemSpec(n=2, d=2, local_energies=None, beta=1.0),
                         DomainError, None),
    "spec-ladder-a-0d-array": (
        lambda: SystemSpec(n=2, d=2, local_energies=np.array(0.0), beta=1.0), DomainError, None),
    "bipartition-side-a-0d-array": (lambda: Bipartition(side_a=np.array(1), n=3),
                                    DomainError, None),
    # the local beta of a bias on a subnormal gap: 0 at bias 0, else it overflows
    "local-beta-of-bias-0-on-a-subnormal-gap": (
        lambda: local_beta_for_bias(SUBNORMAL_GAP, 0.0) == 0.0, None,
        ["protocol", "--kind", "rotate", "--n", "2", "--beta-prime", "1",
         "--energy-ladder", "0,5e-324"]),
    "local-beta-overflows-on-a-subnormal-gap": (
        lambda: local_beta_for_bias(SUBNORMAL_GAP, 0.3),
        (DomainError, "energy gap 5e-324 is too small"), None),
    "local-beta-sentinel-overflows-on-a-subnormal-gap": (
        lambda: local_beta_for_bias(SUBNORMAL_GAP, 1.0),
        (DomainError, "energy gap 5e-324 is too small"), None),
    # the closed-form witness takes a finite beta' >= 0 and a finite angle
    "witness-beta-very-negative": (lambda: npt_witness_half_split(QUBITS, -1000.0, 0.3),
                                   DomainError, None),
    "witness-beta-negative": (lambda: npt_witness_half_split(QUBITS, -1.0, 0.3),
                              DomainError, None),
    "witness-beta-nan": (lambda: npt_witness_half_split(QUBITS, math.nan, 0.3),
                         DomainError, None),
    "witness-angle-inf": (lambda: npt_witness_half_split(QUBITS, 1.0, math.inf),
                          DomainError, None),
    "shell-search-negative-n": (lambda: smallest_shell_for_entropy(-5, 0.1), DomainError, None),
}


@pytest.mark.parametrize("call, error, argv", EDGE_INPUTS.values(), ids=EDGE_INPUTS)
def test_edge_inputs_raise_their_typed_error(call, error, argv, capsys):
    if error is None:
        assert call() is True
        assert argv is None or main(argv) == 0
        return
    error, start = error if isinstance(error, tuple) else (error, "")
    with pytest.raises(error) as raised:
        call()
    assert raised.type is error
    assert str(raised.value).startswith(start)
    if argv is None:
        return
    argv, code = argv if isinstance(argv, tuple) else (argv, 2)
    assert main(argv) == code
    out = capsys.readouterr()
    if code == 2:  # usage or domain error
        assert out.err == f"error: {raised.value}\n"
    else:  # a sweep cell: the error is its row's note
        assert f",infeasible,{',' * 10}{cli._note(raised.value)}\n" in out.out


# builtin exceptions that src/ may not raise: each input error has a typed ErgokitError
UNTYPED_RAISES = {"ValueError", "TypeError", "OverflowError"}
# the only functions that catch a conversion's TypeError or ValueError, to type it
CONVERSIONS = {("core.py", "_integer"), ("core.py", "_real"), ("core.py", "_array"),
               ("core.py", "_items"), ("cli.py", "_parsed")}


def _caught_names(handler: ast.ExceptHandler) -> list:
    caught = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return [getattr(node, "id", None) for node in caught]


def test_src_raises_no_builtin_error_and_main_catches_only_os_errors():
    src = Path(cli.__file__).parent
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                raised = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                assert getattr(raised, "id", None) not in UNTYPED_RAISES, \
                    f"{path.name}:{node.lineno} raises {raised.id}"
        allowed = {id(handler)
                   for func in ast.walk(tree)
                   if isinstance(func, ast.FunctionDef) and (path.name, func.name) in CONVERSIONS
                   for handler in ast.walk(func) if isinstance(handler, ast.ExceptHandler)}
        for handler in ast.walk(tree):
            if isinstance(handler, ast.ExceptHandler) and id(handler) not in allowed:
                assert handler.type is not None, f"{path.name}:{handler.lineno} has a bare except"
                conversion = {"TypeError", "ValueError"} & set(_caught_names(handler))
                assert not conversion, \
                    f"{path.name}:{handler.lineno} catches {conversion} outside the conversion helpers"
    tree = ast.parse((src / "cli.py").read_text(encoding="utf-8"))
    main_def = next(node for node in tree.body
                    if isinstance(node, ast.FunctionDef) and node.name == "main")
    for handler in (node for node in ast.walk(main_def) if isinstance(node, ast.ExceptHandler)):
        assert handler.type is not None, f"cli.py:{handler.lineno} has a bare except"
        for name in _caught_names(handler):
            builtin = getattr(builtins, str(name), None)
            # SystemExit is argparse's usage exit, not an Exception
            if isinstance(builtin, type) and issubclass(builtin, Exception):
                assert name == "OSError", f"cli.main catches {name} at line {handler.lineno}"


# helpers that returned 2^n basis arrays and left the public API
REMOVED_NAMES = ("gibbs_weighted_superposition", "product_thermal_diagonal", "dicke_index_set",
                 "hamming_weights")


def public_names() -> list:
    """Every name ergokit binds, without a leading _, to an object of an ergokit module."""
    return sorted(name for name, obj in vars(ergokit).items()
                  if not name.startswith("_")
                  and str(getattr(obj, "__module__", "")).split(".")[0] == "ergokit")


def test_readme_names_every_public_name():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    missing = [name for name in public_names() if not re.search(rf"\b{name}\b", readme)]
    assert not missing, f"public names missing from README: {missing}"
    assert not [name for name in REMOVED_NAMES if hasattr(ergokit, name)]
