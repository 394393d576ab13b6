"""Config files go through the one command-line parser.

Each ``key = value`` line becomes one ``--key=value`` token ahead of the
explicit flags, so a config value is typed, checked and reported exactly
like the same flag, and the parser (built once per process) carries no
state from one call to the next.
"""

import csv

import pytest

from wrapkit import cli

# one valid sample per parameter type; a choice takes its last choice
_SAMPLES = {str: "su2", int: "3", float: "0.25"}


def _run(argv, tmp_path, name):
    path = tmp_path / name
    code = cli.main([*argv, "--out", str(path)])
    return code, path.read_text() if path.exists() else ""


def _footer(text):
    return {rec[0][2:].partition("=")[0]: rec[0][2:].partition("=")[2]
            for rec in csv.reader(text.splitlines())
            if len(rec) == 1 and rec[0].startswith("# ")}


def _config(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return str(path)


@pytest.mark.parametrize("command, param", [
    (command, p) for command, (_, _, params) in cli._COMMANDS.items()
    for p in cli._COMMON + params
], ids=lambda x: x if isinstance(x, str) else x.name)
def test_every_parameter_reads_the_same_from_flag_and_file(tmp_path, command, param):
    value = param.choices[-1] if param.choices else _SAMPLES[param.type]
    flag = "--" + param.name.replace("_", "-")
    by_flag = cli._parser().parse_args([command, f"{flag}={value}"])
    path = _config(tmp_path, f"{param.name} = {value}\n")
    by_file = cli._parser().parse_args([command, *cli._config_flags(command, path)])
    assert vars(by_file) == vars(by_flag)
    assert getattr(by_file, param.name) == param.type(value)


def test_config_value_that_looks_like_a_flag(tmp_path, capsys):
    mixture = "-0.5:0.3,1.5:0.6"
    path = _config(tmp_path, f"mixture = {mixture}\n")
    code_flag, by_flag = _run(["wrap", "--group", "su2", f"--mixture={mixture}"],
                              tmp_path, "flag.csv")
    code_file, by_file = _run(["wrap", "--group", "su2", "--config", path],
                              tmp_path, "file.csv")
    assert code_flag == code_file == 0
    assert by_file == by_flag
    assert _footer(by_file)["mixture"] == mixture
    # split from its flag, the value would read as a flag of its own
    code, _ = _run(["wrap", "--group", "su2", "--mixture", mixture], tmp_path, "split.csv")
    assert code == 2
    assert "expected one argument" in capsys.readouterr().err


def test_cached_parser_keeps_no_config_between_calls(tmp_path):
    path = _config(tmp_path, "t = 0.25\ngrid = 3\n")
    code, text = _run(["poisson-check", "--group", "su2", "--config", path],
                      tmp_path, "with.csv")
    assert code == 0
    assert (_footer(text)["t"], _footer(text)["grid"]) == ("0.25", "3")
    code, text = _run(["poisson-check", "--group", "su2"], tmp_path, "without.csv")
    assert code == 0
    assert (_footer(text)["t"], _footer(text)["grid"]) == ("1", "20")
    assert cli._parser() is cli._parser()


def test_config_key_must_name_a_parameter_exactly(tmp_path, capsys):
    # a flag prefix (argparse abbreviation) is no config key
    path = _config(tmp_path, "thresh = 1e-9\n")
    code, _ = _run(["poisson-check", "--group", "su2", "--config", path],
                   tmp_path, "out.csv")
    assert code == 2
    assert "unknown config keys for poisson-check: thresh" in capsys.readouterr().err


def test_flag_prefix_is_no_flag(tmp_path, capsys):
    # the same prefix is refused as a flag, just as it is as a config key
    code, _ = _run(["poisson-check", "--group", "su2", "--thresh=1e-9"], tmp_path, "out.csv")
    assert code == 2
    assert "unrecognized arguments: --thresh=1e-9" in capsys.readouterr().err


def test_bad_config_choice_reads_like_a_bad_flag(tmp_path, capsys):
    path = _config(tmp_path, "format = xml\n")
    code, _ = _run(["catalog", "--config", path], tmp_path, "file.csv")
    from_file = capsys.readouterr().err
    code_flag, _ = _run(["catalog", "--format", "xml"], tmp_path, "flag.csv")
    assert code == code_flag == 2
    assert "invalid choice: 'xml'" in from_file
    assert from_file == capsys.readouterr().err
