"""End-to-end checks of the command line front end.

Every test drives ``cli.main`` in process and inspects the exit code plus
the bytes written to ``--out``.  Two closing tests run the entry points in a
subprocess: ``python -m wrapkit``, and the ``wrapkit`` console script as
declared under ``[project.scripts]`` in ``pyproject.toml``, launched the way
an installer's wrapper launches it (plus the installed executable itself,
when one is on ``PATH``).  Neither needs the package to be installed.
"""

import csv
import json
import shutil
import subprocess
import sys
from importlib.metadata import EntryPoint
from pathlib import Path

import pytest

import wrapkit
from wrapkit import SdeConfig, cli


def _run(argv, tmp_path, name="out.txt"):
    path = tmp_path / name
    code = cli.main([*argv, "--out", str(path)])
    text = path.read_text() if path.exists() else ""
    return code, text


def _split_csv(text):
    """Return (header, data_rows, footer_dict) from one CSV report."""
    header, rows, footer = None, [], {}
    for rec in csv.reader(text.splitlines()):
        if len(rec) == 1 and rec[0].startswith("# "):
            k, _, v = rec[0][2:].partition("=")
            footer[k] = v
        elif header is None:
            header = rec
        else:
            rows.append(rec)
    return header, rows, footer


# ---------------------------------------------------------------------------
# per-command happy paths
# ---------------------------------------------------------------------------

def test_kernel_csv_report(tmp_path):
    code, text = _run(
        ["kernel", "--group", "su2", "--grid", "6", "--t", "1.0"], tmp_path
    )
    assert code == 0
    header, rows, footer = _split_csv(text)
    assert header == ["H1", "spectral", "wrapped", "gap"]
    assert len(rows) == 6
    assert all(float(r[3]) < 1e-8 for r in rows)
    assert footer["command"] == "kernel"
    assert footer["group"] == "su2"
    assert footer["t"] == "1"
    assert footer["pass"] == "true"
    assert footer["route"] in ("spectral", "wrapped")
    # the three convention lines ride along in every report
    for key in ("inner_product", "fourier", "haar"):
        assert key in footer
    # plumbing keys never land in the output
    for key in ("out", "config", "threads"):
        assert key not in footer


def test_poisson_check_passes(tmp_path):
    code, text = _run(["poisson-check", "--group", "torus1"], tmp_path)
    assert code == 0
    header, rows, footer = _split_csv(text)
    assert header == ["H1", "spectral", "wrapped", "gap"]
    assert len(rows) == 20
    assert footer["pass"] == "true"
    assert float(footer["max_gap"]) < 1e-10


def test_poisson_check_json_shape(tmp_path):
    code, text = _run(
        ["poisson-check", "--group", "su2", "--grid", "5", "--format", "json"],
        tmp_path,
    )
    assert code == 0
    doc = json.loads(text)
    assert isinstance(doc, list) and len(doc) == 6
    for rec in doc[:-1]:
        assert set(rec) == {"H1", "spectral", "wrapped", "gap"}
        assert isinstance(rec["spectral"], float)
    footer = doc[-1]["footer"]
    assert footer["command"] == "poisson-check"
    assert footer["pass"] == "true"
    assert footer["format"] == "json"


def test_semigroup_check(tmp_path):
    code, text = _run(
        ["semigroup-check", "--group", "su2", "--t", "0.5", "--s", "0.5",
         "--grid", "8"],
        tmp_path,
    )
    assert code == 0
    header, rows, footer = _split_csv(text)
    assert header == ["t", "s", "coeff_gap", "quad_gap"]
    assert len(rows) == 1
    assert float(rows[0][2]) < 1e-12
    assert footer["pass"] == "true"


def test_wrap_lists_coefficients(tmp_path):
    code, text = _run(
        ["wrap", "--group", "su2", "--mixture", "0.6:0.5,0.4:0.8"], tmp_path
    )
    assert code == 0
    header, rows, footer = _split_csv(text)
    assert header == ["weight", "dimension", "coefficient"]
    assert rows[0][0] == "0" and rows[0][1] == "1"
    assert int(footer["terms"]) == len(rows)
    assert float(footer["effective_cutoff"]) > 0
    # quoted comma survives the CSV round trip
    assert footer["mixture"] == "0.6:0.5,0.4:0.8"


def test_wraplap_check(tmp_path):
    code, text = _run(["wraplap-check", "--group", "torus1"], tmp_path)
    assert code == 0
    header, rows, footer = _split_csv(text)
    assert header == ["t", "gap"]
    assert footer["pass"] == "true"


def test_simulate_report_and_rerun_identical(tmp_path):
    argv = ["simulate", "--group", "su2", "--t", "0.5", "--step", "5e-3",
            "--paths", "40000", "--seed", "9", "--bins", "8"]
    code1, text1 = _run(argv, tmp_path, "a.csv")
    code2, text2 = _run(argv, tmp_path, "b.csv")
    assert code1 == code2 == 0
    assert text1 == text2
    header, rows, footer = _split_csv(text1)
    assert header == ["bin_lo", "bin_hi", "expected", "observed", "rel_dev",
                      "threshold"]
    assert len(rows) == 8
    assert sum(int(float(r[3])) for r in rows) == 40000
    assert float(footer["score"]) < 1.0
    assert footer["pass"] == "true"


def test_wrap_bm_check_report(tmp_path):
    code, text = _run(
        ["wrap-bm-check", "--group", "su2", "--t", "0.5", "--step", "5e-3",
         "--paths", "30000", "--seed", "11"],
        tmp_path,
    )
    assert code == 0
    header, rows, footer = _split_csv(text)
    assert header == ["lhs_mean", "lhs_stderr", "rhs_mean", "rhs_stderr",
                      "gap", "z", "allowance"]
    assert len(rows) == 1
    assert float(rows[0][4]) <= float(rows[0][6])
    assert footer["effective_rep"] == "1"
    assert footer["pass"] == "true"


def test_bend_small_time(tmp_path):
    code, text = _run(
        ["bend", "--group", "su2", "--t", "1e-4", "--scale", "0.06",
         "--grid", "5"],
        tmp_path,
    )
    assert code == 0
    header, rows, footer = _split_csv(text)
    assert header == ["H1", "value", "ratio_to_flat", "inv_j", "gap"]
    assert footer["pass"] == "true"
    assert int(footer["compared"]) == 5


def test_catalog_all_groups(tmp_path):
    code, text = _run(["catalog"], tmp_path)
    assert code == 0
    header, rows, footer = _split_csv(text)
    assert header == ["name", "rank", "dim", "positive_roots", "weyl_order",
                      "abelian", "rho_norm_sq", "cell_volume", "volume"]
    assert [r[0] for r in rows] == ["torus1", "torus2", "su2", "so3",
                                    "su2xsu2", "su3"]
    assert rows[2][5] == "false" and rows[0][5] == "true"


def test_catalog_single_group(tmp_path):
    code, text = _run(["catalog", "--group", "su3"], tmp_path)
    assert code == 0
    _, rows, _ = _split_csv(text)
    assert len(rows) == 1 and rows[0][1] == "2"


def test_default_output_is_stdout(capsys):
    assert cli.main(["catalog", "--group", "torus1"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("name,")


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

def test_unknown_group_is_usage_error(tmp_path, capsys):
    code, _ = _run(["kernel", "--group", "sp4"], tmp_path)
    assert code == 2
    assert "wrapkit: error:" in capsys.readouterr().err


def test_missing_group_is_usage_error(tmp_path):
    code, _ = _run(["poisson-check"], tmp_path)
    assert code == 2


def test_unknown_flag_is_usage_error(capsys):
    assert cli.main(["kernel", "--group", "su2", "--frobnicate", "3"]) == 2
    capsys.readouterr()


def test_missing_subcommand_is_usage_error(capsys):
    assert cli.main([]) == 2
    capsys.readouterr()


def test_malformed_mixture_is_usage_error(tmp_path, capsys):
    code, _ = _run(["wrap", "--group", "su2", "--mixture", "1:2:3"], tmp_path)
    assert code == 2
    assert "not weight:variance" in capsys.readouterr().err


def test_wrap_without_mixture_is_usage_error(tmp_path, capsys):
    code, _ = _run(["wrap", "--group", "su2"], tmp_path)
    assert code == 2
    assert "--mixture" in capsys.readouterr().err


def test_bend_underflow_is_usage_error(tmp_path, capsys):
    code, _ = _run(["bend", "--group", "su2", "--t", "1e-4"], tmp_path)
    assert code == 2
    assert "underflow" in capsys.readouterr().err


def test_resource_cap_is_runtime_failure(tmp_path, capsys):
    # the spectral series at tiny t wants too many terms; deterministic exit 1
    code, _ = _run(["kernel", "--group", "su3", "--t", "1e-4"], tmp_path)
    assert code == 1
    assert "wrapped" in capsys.readouterr().err


@pytest.mark.parametrize("t", ["inf", "nan"])
def test_non_finite_horizon_is_usage_error(tmp_path, capsys, t):
    code, _ = _run(["wrap-bm-check", "--group", "su2", "--t", t], tmp_path)
    assert code == 2
    assert capsys.readouterr().err == "wrapkit: error: horizon t must be positive and finite\n"


@pytest.mark.parametrize("flag, value", [("t", "inf"), ("t", "nan"), ("tol", "nan")])
def test_non_finite_kernel_input_is_usage_error(tmp_path, capsys, flag, value):
    code, _ = _run(["kernel", "--group", "su2", f"--{flag}", value], tmp_path)
    assert code == 2
    assert capsys.readouterr().err == f"wrapkit: error: {flag} must be positive and finite\n"


@pytest.mark.parametrize("argv", [["wraplap-check", "--t", "inf"], ["wraplap-check", "--t", "nan"],
                                  ["wrap", "--mixture", "1:inf"], ["wrap", "--mixture", "nan:0.5"]])
def test_non_finite_variance_or_weight_is_usage_error(tmp_path, capsys, argv):
    code, _ = _run([argv[0], "--group", "su2", *argv[1:]], tmp_path)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("wrapkit: error:") and "finite" in err and err.count("\n") == 1


@pytest.mark.parametrize("t", ["inf", "nan"])
def test_bend_at_a_non_finite_time_is_usage_error(tmp_path, capsys, t):
    code, _ = _run(["bend", "--group", "su2", "--t", t], tmp_path)
    assert code == 2
    assert capsys.readouterr().err == "wrapkit: error: t must be positive and finite\n"


def test_step_count_past_any_float_is_runtime_failure(tmp_path, capsys):
    # t / h overflows to inf: the cost cap refuses it in one line
    code, _ = _run(["wrap-bm-check", "--group", "su2", "--t", "1e308"], tmp_path)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("wrapkit: error:") and "cost cap" in err and err.count("\n") == 1


def test_failed_check_still_writes_report(tmp_path):
    code, text = _run(
        ["poisson-check", "--group", "torus1", "--threshold", "1e-30"],
        tmp_path,
    )
    assert code == 1
    _, rows, footer = _split_csv(text)
    assert len(rows) == 20
    assert footer["pass"] == "false"


# ---------------------------------------------------------------------------
# config files
# ---------------------------------------------------------------------------

def test_config_file_supplies_defaults_and_flags_win(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment line\nt = 0.25\ngrid = 4\n")
    code, text = _run(
        ["poisson-check", "--group", "su2", "--t", "0.5",
         "--config", str(cfg)],
        tmp_path,
    )
    assert code == 0
    header, rows, footer = _split_csv(text)
    assert len(rows) == 4          # grid came from the file
    assert footer["t"] == "0.5"    # the flag beat the file
    assert footer["grid"] == "4"


def test_config_hyphen_keys_normalize(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("coeff-threshold = 1e-11\n")
    code, text = _run(
        ["semigroup-check", "--group", "su2", "--grid", "8",
         "--config", str(cfg)],
        tmp_path,
    )
    assert code == 0
    _, _, footer = _split_csv(text)
    assert float(footer["coeff_threshold"]) == 1e-11


def test_unknown_config_key_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("bogus = 3\n")
    code, _ = _run(
        ["poisson-check", "--group", "su2", "--config", str(cfg)], tmp_path
    )
    assert code == 2
    assert "bogus" in capsys.readouterr().err


def test_bad_config_value_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("t = lots\n")
    code, _ = _run(
        ["poisson-check", "--group", "su2", "--config", str(cfg)], tmp_path
    )
    assert code == 2
    assert "not a valid float" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# determinism across worker counts
# ---------------------------------------------------------------------------

def test_thread_count_never_changes_bytes(tmp_path, monkeypatch):
    argv = ["simulate", "--group", "su2", "--t", "0.5", "--step", "5e-3",
            "--paths", "40000", "--seed", "9", "--bins", "8"]
    monkeypatch.delenv("WRAPKIT_THREADS", raising=False)
    _, base = _run(argv, tmp_path, "t1.csv")
    _, four = _run([*argv, "--threads", "4"], tmp_path, "t4.csv")
    assert four == base
    monkeypatch.setenv("WRAPKIT_THREADS", "3")
    _, env3 = _run(argv, tmp_path, "t3.csv")
    assert env3 == base


def test_cli_chunk_defaults_are_the_config_default():
    for command in ("simulate", "wrap-bm-check"):
        ns = cli._parser().parse_args([command, "--group", "su2"])
        assert ns.chunk == SdeConfig.chunk


# ---------------------------------------------------------------------------
# installed entry points
# ---------------------------------------------------------------------------

def test_module_invocation():
    proc = subprocess.run(
        [sys.executable, "-m", "wrapkit", "catalog"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("name,")


def _declared_scripts():
    """``[project.scripts]`` of the pyproject.toml next to the imported package."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    # src/wrapkit/__init__.py -> the project root two levels above the package
    root = Path(wrapkit.__file__).resolve().parents[2]
    with open(root / "pyproject.toml", "rb") as fh:
        return tomllib.load(fh)["project"].get("scripts", {})


def test_console_script():
    scripts = _declared_scripts()
    assert "wrapkit" in scripts
    ep = EntryPoint(name="wrapkit", value=scripts["wrapkit"],
                    group="console_scripts")
    assert callable(ep.load())

    # the body of the wrapper an installer writes for a console script
    wrapper = (f"import sys; from {ep.module} import {ep.attr}; "
               f"sys.exit({ep.attr}())")
    argv = ["catalog", "--format", "json"]
    proc = subprocess.run(
        [sys.executable, "-c", wrapper, *argv],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc[-1]["footer"]["command"] == "catalog"

    # where an installer did put the executable on PATH, it must agree
    exe = shutil.which("wrapkit")
    if exe is not None:
        installed = subprocess.run(
            [exe, *argv], capture_output=True, text=True, timeout=120,
        )
        assert installed.returncode == 0, installed.stderr
        assert installed.stdout == proc.stdout
