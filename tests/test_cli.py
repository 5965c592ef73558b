"""Command-line interface: parsing, emission, determinism, exit codes."""

import contextlib
import copy
import importlib.util
import io
import json
import math
import os
import pickle
import re
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spinfridge.cli as cli
from spinfridge import FridgeConfig, carnot_limit
from spinfridge.cli import COMMANDS, RunConfig, main, parse_config

ROOT = Path(__file__).resolve().parents[1]


def run_cli(args, path):
    return main(args + ["--out", str(path)])


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return header, rows


def test_defaults_are_the_reference_operating_point():
    cfg = parse_config(["exchange"])
    assert (cfg.e1, cfg.e2, cfg.e3) == (1.0, 3.0, 2.0)
    assert (cfg.t1, cfg.t2, cfg.t3) == (2.0, 2.0, 10.0)
    assert cfg.theta == (math.pi / 2.0,)
    assert cfg.format == "csv"
    assert cfg.delta_scale == 1.0


def test_a_run_config_copies_and_pickles_equal():
    cfg = parse_config(["cycles", "--t1=3", "--theta=0.3,0.7"])
    for copied in (copy.copy(cfg), copy.deepcopy(cfg), pickle.loads(pickle.dumps(cfg))):
        assert type(copied) is RunConfig and copied == cfg and copied.fridge == cfg.fridge


def test_theta_list_parsing():
    cfg = parse_config(["cycles", "--theta", "0.3927,0.7854,1.1781,1.5708"])
    assert cfg.theta == (0.3927, 0.7854, 1.1781, 1.5708)
    assert parse_config(["cycles", "--theta= 0.3 , 0.5"]).theta == (0.3, 0.5)


@pytest.mark.parametrize("thetas", ["0.7", "0.1,0.2,0.3,0.4,0.5,0.6"])
def test_parse_config_checks_the_rules_across_keys_once_whatever_the_angle_count(thetas, monkeypatch, tmp_path):
    """One FridgeConfig validation in parse_config, whatever the angle count."""
    checks = []
    build = FridgeConfig.__init__  # which checks the values

    def counted(self, *args, **kwargs):
        checks.append(self)
        build(self, *args, **kwargs)

    monkeypatch.setattr(FridgeConfig, "__init__", counted)
    parse_config(["cycles", f"--theta={thetas}", "--t1=3"])
    assert len(checks) == 1
    assert run_cli(["cycles", f"--theta={thetas}", "--t1=3"], tmp_path / "cycles.csv") == 0
    assert len(checks) == 2  # the op's own parse_config, whose config the kernel call reuses


def test_invalid_gap_combination_is_rejected(capsys, tmp_path):
    assert main(["exchange", "--e3", "2.5"]) == 1
    err = capsys.readouterr().err
    assert "E2 must equal E1" in err


def test_config_file_roundtrip_and_flag_override(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("t3 = 8.0\ncycles = 12\n# comment line\ntheta = 0.5,0.9\n")
    cfg = parse_config(["cycles", "--config", str(config)])
    assert cfg.t3 == 8.0
    assert cfg.cycles == 12
    assert cfg.theta == (0.5, 0.9)
    # flags win over the file
    cfg = parse_config(["cycles", "--config", str(config), "--t3", "9.0"])
    assert cfg.t3 == 9.0


def test_config_file_unknown_key_names_the_key(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    # an unknown key, a key the command does not take, a line without '=', then
    # bad values of its keys: each error names line and key
    for text, lineno, key in [
        ("tee3 = 8.0\n", 1, "tee3"),
        ("t1 = 3\ncycles = 12\n", 2, "cycles"),
        ("t1 = 3\n\nt3 8.0\n", 3, "t3 8.0"),
        ("# cycles\ncycles = 1.5\n", 2, "cycles"),
        ("delta_scale = inf\n", 1, "delta_scale"),
    ]:
        config.write_text(text)
        assert main(["exchange", "--config", str(config)]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        prefix = f"error: {config}:{lineno}: "
        assert line.startswith(prefix) and key in line[len(prefix):]


# the keys of a FridgeConfig, which each command that builds one takes
FRIDGE_KEYS = ["e1", "e2", "e3", "t1", "t2", "t3", "theta"]
# the keys each command takes besides --config, in table order: those it
# reads, then out and format, then delta_scale where it has delta-unit columns
TAKEN = {
    "exchange": [*FRIDGE_KEYS, "out", "format", "delta_scale"],
    "ledger": [*FRIDGE_KEYS, "out", "format", "delta_scale"],
    "cycles": [*FRIDGE_KEYS, "cycles", "out", "format", "delta_scale"],
    "phase-diagram": [*FRIDGE_KEYS, "grid", "out", "format", "delta_scale"],
    "cop": [*FRIDGE_KEYS, "grid", "out", "format", "delta_scale"],
    "bcs": ["bits", "epsilon0", "rounds", "seed", "out", "format"],
    "verify-decomposition": ["theta", "out", "format"],
}


def taking(key):
    """The commands that take the key."""
    return [command for command, keys in TAKEN.items() if key in keys]


def test_each_command_takes_its_keys_in_table_order():
    for command, keys in TAKEN.items():
        assert cli._FLAGS[command] == {"--config": "config",
                                       **{"--" + key.replace("_", "-"): key for key in keys}}
        assert keys == [key for key in cli._KEYS if key in keys]
    # delta_scale goes exactly to the commands with delta-unit columns
    assert taking("delta_scale") == [command for command, row in cli._COMMANDS.items() if row[1]]


def test_the_readme_key_table_is_the_cli_table():
    """Each row of README's key table: its keys in table order, each key's
    default, and the commands that take it (notes in parentheses aside)."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    head = "| key | type | default | taken by |\n| --- | --- | --- | --- |\n"
    rows = text[text.index(head) + len(head):].split("\n\n", 1)[0].splitlines()
    keys = []
    for row in rows:
        names, _, defaults, commands = (cell.strip() for cell in row.strip("|").split(" | "))
        names = re.findall(r"`(\w+)`", names)
        keys += names
        commands = re.sub(r" \([^)]*\)", "", commands)
        commands = list(COMMANDS) if commands == "every command" else commands.split(", ")
        for name, default in zip(names, defaults.split(", ") if len(names) > 1 else [defaults]):
            value = {"pi/2": (math.pi / 2,), "stdout": None}.get(default, default)
            if value == default:
                value = cli._KEYS[name][1](default)
            assert (value, commands) == (cli._DEFAULTS[name], taking(name)), row
    assert keys == list(cli._KEYS)


def test_the_readme_examples_run(tmp_path, capsys):
    """Each spinfridge line of README's Examples block exits 0 through main, its
    --out in tmp_path, and the library example runs as written."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text[text.index("Examples:\n\n```\n"):].split("```")[1]
    examples = [line.split()[1:] for line in block.splitlines() if line.startswith("spinfridge ")]
    assert len(examples) == 5
    for argv in examples:
        argv = [str(tmp_path / arg) if flag == "--out" else arg
                for flag, arg in zip([None, *argv], argv)]
        assert main(argv) == 0, argv
    library = text[text.index("## Library example"):].split("```python\n", 1)[1].split("```")[0]
    exec(library, {})


def test_every_benchmark_op_parses(tmp_path, monkeypatch):
    """Every op of three passes of each benchmark workload at seeds 1-3 parses
    to the values it passes, so no command rejects a key the benchmark gives it."""
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "workloads", workloads)  # for its dataclass
    spec.loader.exec_module(workloads)
    for workload in workloads.WORKLOADS:
        for seed in (1, 2, 3):
            for block in range(3 * workloads.PASS_BLOCKS):
                for op in workloads.block_ops(workload, seed, block):
                    cfg = parse_config(op.argv(str(tmp_path / "artifact")))
                    assert cfg.command == op.command and cfg.format == op.fmt
                    assert {key: getattr(cfg, key) for key in op.params} == op.params, op


# two different non-default settings per config key; a gap key brings a second
# gap along so that E2 = E1 + E3 still holds
KEY_SETTINGS = {
    "e1": ("e1=0.5 e2=2.5", "e1=1.5 e2=3.5"),
    "e2": ("e2=4 e3=3", "e2=5 e3=4"),
    "e3": ("e3=1 e2=2", "e3=3 e2=4"),
    "t1": ("t1=3", "t1=1.5"),
    "t2": ("t2=2.5", "t2=3"),
    "t3": ("t3=8", "t3=12"),
    "theta": ("theta=0.3", "theta=1.1"),
    "cycles": ("cycles=12", "cycles=3"),
    "grid": ("grid=1,5,3,9,7", "grid=2,4,4,8,3"),
    "bits": ("bits=5000", "bits=800"),
    "epsilon0": ("epsilon0=0.25", "epsilon0=0.1"),
    "rounds": ("rounds=3", "rounds=2"),
    "seed": ("seed=9", "seed=4"),
    "out": ("out=a.csv", "out=b.csv"),
    "format": ("format=json", "format=csv"),
    "delta_scale": ("delta_scale=2.5", "delta_scale=0.5"),
}


def as_flags(setting):
    pairs = (item.partition("=") for item in setting.split())
    return [f"--{key.replace('_', '-')}={value}" for key, _, value in pairs]


def as_config_file(setting, path):
    pairs = (item.partition("=") for item in setting.split())
    path.write_text("".join(f"{key} = {value}\n" for key, _, value in pairs))
    return ["--config", str(path)]


@pytest.mark.parametrize("key", list(cli._KEYS))
def test_every_key_reads_alike_from_flag_and_file(key, tmp_path):
    first, second = KEY_SETTINGS[key]
    for command in taking(key):
        by_flag = parse_config([command, *as_flags(first)])
        assert getattr(by_flag, key) != getattr(parse_config([command]), key)
        assert parse_config([command, *as_config_file(first, tmp_path / "a.cfg")]) == by_flag
        # the flag wins when the file gives the key too
        both = parse_config([command, *as_config_file(first, tmp_path / "b.cfg"),
                             *as_flags(second)])
        assert both == parse_config([command, *as_flags(second)])
        assert getattr(both, key) != getattr(by_flag, key)


@pytest.mark.parametrize("command", COMMANDS)
def test_a_key_the_command_does_not_take_exits_1_by_flag_and_by_file_line(command, tmp_path,
                                                                        monkeypatch):
    """Each key of another command, and g, which no command takes: one stderr
    line, no stdout and no artifact, whether a flag or a file line gives it."""
    monkeypatch.chdir(tmp_path)
    config = tmp_path / "run.cfg"
    for key in [key for key in cli._KEYS if key not in TAKEN[command]] + ["g"]:
        value = KEY_SETTINGS[key][0].split()[0].partition("=")[2] if key != "g" else "2"
        flag = f"--{key.replace('_', '-')}={value}"
        code, out, err = outcome(lambda: main([command, flag, "--out=a.csv"]))
        assert (code, out, len(err.splitlines())) == (1, "", 1), (command, key, err)
        if key != "g" or "grid" not in TAKEN[command]:  # there --g abbreviates --grid
            assert err == f"error: unrecognized arguments: {flag}\n"
        config.write_text(f"# line 1\n{key} = {value}\n")
        assert outcome(lambda: main([command, "--config", str(config), "--out=a.csv"])) == (
            1, "", f"error: {config}:2: {command} takes no key {key!r}\n")
    assert sorted(path.name for path in tmp_path.iterdir()) == ["run.cfg"]


@pytest.mark.parametrize("command", ["exchange", "ledger", "phase-diagram", "cop"])
def test_a_command_that_reads_one_angle_rejects_a_list(command, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert outcome(lambda: main([command, "--theta=0.3,0.7", "--out=a.csv"])) == (
        1, "", f"error: argument --theta: {command} takes one angle, got 2\n")
    config = tmp_path / "run.cfg"
    config.write_text("theta = 0.3,0.7,1.1\n")
    assert outcome(lambda: main([command, "--config", str(config), "--out=a.csv"])) == (
        1, "", f"error: {config}:1: theta: {command} takes one angle, got 3\n")
    assert sorted(path.name for path in tmp_path.iterdir()) == ["run.cfg"]
    assert parse_config([command, "--theta=0.3"]).theta == (0.3,)


# each flag form, an abbreviation, a flag of some commands only, a missing
# value, an unknown flag, a stray argument and the command's help, with the exit
# code of the parse (None: it parses; a key: it parses on the commands that take
# that key, and exits 1 on the others)
PARSE_CASES = (
    ([], None), (["--t1=3"], "t1"), (["--t1", "3"], "t1"), (["--thet=0.5"], "theta"),
    (["--thet", "0.5,0.7"], "theta"), (["--theta=-2.4"], "theta"), (["--bits=4000"], "bits"),
    (["--epsilon0", "0.2", "--rounds=2"], "bits"), (["--t1"], 1), (["--t1=3", "--cycles"], 1),
    (["--nope"], 1), (["--nope=1", "--t1=3"], 1), (["stray"], 1),
    (["--", "stray"], 1), (["-h"], 0), (["--he"], 0), (["--t1=3", "-h"], 0), (["--config"], 1),
    (["--t3=8", "--t3=9", "--format", "json"], "t3"), (["--theta", "-2.4"], "theta"),
    (["--out="], None), (["--config="], None),
    # an abbreviation resolves against the command's own flags: --e is ambiguous
    # where e1, e2 and e3 are taken and --epsilon0 on bcs; --g, no flag, is --grid
    # where grid is taken
    (["--e=1"], "epsilon0"), (["--g=2"], "grid"),
    # a value after a space that reads as numbers, exponent form included, is
    # the flag's value on both paths; '-' and any value after '--' are not
    (["--theta", "-1e-3"], "theta"), (["--theta", "-0.5,0.7"], "theta"), (["--t1", "-1e300"], "t1"),
    (["--theta", "-1e-3", "--cyc=3"], "cycles"), (["--out", "-"], None),
    (["--", "--t1", "-1e300"], 1),
    # a theta list with an empty part parses, and its reader rejects it
    (["--theta=0.3,,0.5"], "theta"), (["--theta", "0.3,"], "theta"), (["--thet", ",0.3"], "theta"),
    # argparse reads --flag=-- as an empty list, for every key
    (["--config=--"], None), *(([f"--{key.replace('_', '-')}=--"], key) for key in cli._KEYS),
)


def outcome(parse):
    """What one parse returns or raises, with its stdout and stderr."""
    with contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()) as err:
        try:
            result = parse()
        except SystemExit as exc:
            result = ("exit", exc.code)
        except (ValueError, OSError) as exc:
            result = (type(exc).__name__, str(exc))
    return result, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("command", COMMANDS)
def test_each_command_parses_as_the_top_level_parser_would(command, monkeypatch):
    parser = cli._parser()
    for args, code in PARSE_CASES:
        argv = [command, *args]
        # the top-level parser, given the arguments after the command with their
        # values joined to their flags, as parse_config hands them over
        joined = [command, *cli._joined(command, args)]
        parsed = outcome(lambda: list(vars(parser.parse_args(joined)).items()))
        if isinstance(code, str):
            code = None if command in taking(code) else 1
        if code is None:
            assert parsed[0][0] != "exit", argv
        else:
            assert parsed[0] == ("exit", code), argv
        # parse_config reads exact flags itself and hands the rest to that
        # parser; with no exact-flag reader, every way it ends alike
        read = outcome(lambda: parse_config(argv))
        with monkeypatch.context() as patch:
            patch.setattr(cli, "_exact_flags", lambda command, args: None)
            assert outcome(lambda: parse_config(argv)) == read, argv
        if code is None and args and args[0].endswith("=--"):  # a flag of the command given no value
            flag = args[0][:-len("=--")]
            assert read == (("exit", 1), "", f"error: argument {flag}: expected one argument\n")
        elif code is None:  # parse_config hands argparse what it parses
            assert not isinstance(read[0], tuple) or read[0][0] != "exit", argv


@pytest.mark.parametrize("command", COMMANDS)
def test_a_flag_read_as_no_value_exits_1_with_one_line(command, tmp_path, monkeypatch):
    """--flag=-- fails as --flag with no value does, on the exact-flag path and
    the argparse path alike, and writes no artifact."""
    monkeypatch.chdir(tmp_path)
    for flag in cli._FLAGS[command]:
        other = "--out=a" if flag != "--out" else "--format=csv"  # an exact flag of another key
        want = outcome(lambda: main([command, flag]))
        assert want == (1, "", f"error: argument {flag}: expected one argument\n")
        assert outcome(lambda: main([command, other, f"{flag}=--"])) == want, flag
        with monkeypatch.context() as patch:
            patch.setattr(cli, "_exact_flags", lambda command, args: None)
            assert outcome(lambda: main([command, f"{flag}=--", other])) == want, flag
    assert list(tmp_path.iterdir()) == []


@pytest.fixture(scope="module")
def config_files(tmp_path_factory):
    """The paths of a config file of valid cycles keys, one with an invalid bcs
    key, and one that does not exist, by name."""
    folder = tmp_path_factory.mktemp("configs")
    (folder / "good.cfg").write_text("t3 = 8\ncycles = 5\nformat = json\n")
    (folder / "bad.cfg").write_text("seed = -1\n")
    return {name: str(folder / f"{name}.cfg") for name in ("good", "bad", "missing")}


# per flag, values that parse, values that the key's reader or rule rejects,
# and values that start with '-' (flag_args adds an empty value and '--')
FLAG_VALUES = {
    "--e1": ["1", "0.5", "-1"], "--e2": ["3", "2.5", "x"], "--e3": ["2", "0"],
    "--t1": ["3", "-3", "inf", "-1e300"], "--t2": ["2.5", "nan"], "--t3": ["8", "12", "-0.5"],
    "--theta": ["0.5", "0.3,1.1", "-2.4", "-2.4,0.7", "-1e-3", "-0.5,0.7", "inf", ","],
    "--cycles": ["3", "12", "0", "1.5"], "--grid": ["2,6,2,10,5", "1,5,3,9", "2,6,2,10,1"],
    "--seed": ["4", "-1"], "--out": ["a.csv", "-", "b c"], "--format": ["json", "csv", "xml"],
    "--delta-scale": ["2.5", "inf", "-2"], "--bits": ["4000", "3"], "--epsilon0": ["0.2", "1.0"],
    "--rounds": ["2", "-1"], "--config": ["good", "bad", "missing"],
}
# arguments that are no exact flag: an abbreviation, an unknown or a bare
# option, help, a stray word and the end of options
OTHER_ARGS = ["--thet=0.5", "--cyc", "--nope=1", "--e=1", "--g=2", "-h", "stray", "--", "--t1"]


@st.composite
def flag_args(draw, config_files):
    """0-4 flags, each --flag=value or --flag value, keys repeating and the
    flags of every command on any command, with now and then an argument of
    another form."""
    args = []
    for _ in range(draw(st.integers(0, 4))):
        flag = draw(st.sampled_from(list(FLAG_VALUES)))
        value = draw(st.sampled_from(FLAG_VALUES[flag] + ["", "--"]))
        if flag == "--config" and value in config_files:
            value = config_files[value]
        args += [f"{flag}={value}"] if draw(st.booleans()) else [flag, value]
        if draw(st.integers(0, 9)) == 0:
            args.append(draw(st.sampled_from(OTHER_ARGS)))
    return args


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(COMMANDS), st.data())
def test_exact_flags_parse_as_argparse_does(config_files, command, data):
    """Whatever the arguments, parse_config ends as it does on the argparse path:
    the same RunConfig or error, stdout, stderr and exit code."""
    argv = [command, *data.draw(flag_args(config_files))]
    read = outcome(lambda: parse_config(argv))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_exact_flags", lambda command, args: None)
        assert outcome(lambda: parse_config(argv)) == read, argv


def test_two_invalid_flags_report_the_first_key_in_argparse_order():
    # argparse fills the namespace in table order, whatever the argument order
    for argv, key in ((["bcs", "--seed=-1", "--bits=3"], "bits"),
                      (["bcs", "--seed=-1", "--rounds", "-1"], "rounds"),
                      (["cycles", "--cycles=0", "--e1=x"], "e1")):
        (kind, message), _, _ = outcome(lambda: parse_config(argv))
        assert kind == "ValueError" and message.startswith(f"argument --{key}: "), argv


def test_exact_flags_never_build_the_argparse_parser(monkeypatch):
    def no_parser():
        raise AssertionError("_parser() called")

    monkeypatch.setattr(cli, "_parser", no_parser)
    for argv in (["exchange"], ["cycles", "--cycles", "3", "--theta=0.3,0.7"],
                 ["ledger", "--theta", "-1e-3", "--t1", "2"],
                 ["verify-decomposition", "--theta", "-1e-3,-0.5"],
                 ["bcs", "--bits=4000", "--rounds", "2", "--seed=3", "--seed", "4"],
                 ["phase-diagram", "--grid=2,6,2,10,5", "--format", "json", "--out="],
                 ["cop", "--config=", "--delta-scale", "2.5"]):
        assert isinstance(parse_config(argv), RunConfig)
    with pytest.raises(AssertionError, match="_parser"):
        parse_config(["cycles", "--cyc=3"])  # an abbreviation is argparse's to read


def test_values_join_only_full_flags_of_the_command_before_the_end_of_options():
    args = ["--t1", "-1e300", "--theta", "-0.5,0.7", "--thet", "-1e-3", "--out", "-", "--bits", "-2",
            "--", "--t1", "-1"]
    assert cli._joined("cycles", args) == [
        "--t1=-1e300", "--theta=-0.5,0.7", "--thet", "-1e-3", "--out", "-", "--bits", "-2",
        "--", "--t1", "-1"]
    assert cli._joined("bcs", ["--bits", "-2"]) == ["--bits=-2"]
    for value in ("-", "-1,x", "-0.5,", "-x", "--"):  # no numbers
        assert cli._joined("ledger", ["--theta", value]) == ["--theta", value]
    # a value that does not start with '-' joins too, once, and only to a full
    # option string of the command
    assert cli._joined("cycles", ["--t1", "3"]) == ["--t1=3"]
    assert cli._joined("cycles", ["--t1=3", "4"]) == ["--t1=3", "4"]
    assert cli._joined("cycles", ["--out", "a", "b"]) == ["--out=a", "b"]
    assert cli._joined("cycles", ["--out", ""]) == ["--out="]
    assert cli._joined("cycles", ["--thet", "0.5", "--bits", "5", "--out", "-"]) == [
        "--thet", "0.5", "--bits", "5", "--out", "-"]
    assert cli._joined("bcs", ["--bits", "5"]) == ["--bits=5"]
    assert cli._joined("bcs", ["--t1", "3"]) == ["--t1", "3"]
    assert cli._joined("cycles", ["--", "--t1", "3", "--out", "a"]) == ["--", "--t1", "3", "--out", "a"]
    assert cli._joined("cycles", ["--t1", "3", "--", "--t1", "3"]) == ["--t1=3", "--", "--t1", "3"]


def test_exact_flags_read_only_flag_equals_value_arguments():
    assert cli._exact_flags("bcs", ["--bits=4", "--out=", "--seed=3", "--seed=4"]) == {
        "command": "bcs", **dict.fromkeys(cli._FLAGS["bcs"].values()), "bits": "4", "out": "",
        "seed": "4"}
    for args in (["--t1"], ["--t1", "3"], ["--t1=3", "4"], ["--out", "-"], ["stray"], ["--"],
                 ["-h"], ["--t1=3", "--"], ["--thet=0.5"], ["--bits=4"], ["--t1=--"]):
        assert cli._exact_flags("cycles", args) is None, args
    assert cli._exact_flags("bcs", ["--t1=3"]) is None


def test_equals_flags_never_read_a_value_as_numbers(monkeypatch):
    # --key=value argvs, the form the benchmark's ops use, read no value as numbers
    def no_numbers(text):
        raise AssertionError("_is_numbers called")

    monkeypatch.setattr(cli, "_is_numbers", no_numbers)
    for argv in (["bcs", "--bits=4000", "--epsilon0=0.2", "--rounds=2", "--seed=3", "--format=json"],
                 ["ledger", "--theta=-1e-3,0.5", "--t1=-1e300", "--out=-"]):
        outcome(lambda: parse_config(argv))  # lets the AssertionError through
    with pytest.raises(AssertionError, match="_is_numbers"):
        parse_config(["ledger", "--theta", "-1e-3"])


def test_exchange_csv_contract(tmp_path):
    out = tmp_path / "exchange.csv"
    assert run_cli(["exchange"], out) == 0
    header, rows = read_csv(out)
    assert header == [
        "P010_before", "P101_before", "P010_after", "P101_after",
        "dQ1", "dQ2", "dQ3", "T1_after", "T2_after", "T3_after",
    ]
    assert len(rows) == 1
    assert float(rows[0]["dQ1"]) < 0.0


def test_cycles_csv_contract_and_determinism(tmp_path):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    args = ["cycles", "--cycles", "10", "--theta", "1.5707963267948966"]
    assert run_cli(args, first) == 0
    assert run_cli(args, second) == 0
    assert first.read_bytes() == second.read_bytes()

    header, rows = read_csv(first)
    assert header == ["n", "theta", "T1", "entropy_q1", "energy_q1", "dQ1"]
    assert len(rows) == 11  # n = 0 plus ten cycles
    assert float(rows[-1]["T1"]) < float(rows[0]["T1"])


def test_ledger_csv_contract(tmp_path):
    out = tmp_path / "ledger.csv"
    assert run_cli(["ledger"], out) == 0
    header, rows = read_csv(out)
    assert header == ["step_index", "dW1", "dQ1", "dW2", "net_work", "cumulative_work"]
    assert len(rows) == 40
    assert abs(float(rows[-1]["cumulative_work"])) <= 1e-9


def test_phase_diagram_row_count(tmp_path):
    out = tmp_path / "phase.csv"
    assert run_cli(["phase-diagram", "--grid", "2,6,2,10,5"], out) == 0
    header, rows = read_csv(out)
    assert header == ["T2", "T3", "dQ1"]
    assert len(rows) == 25


def test_cop_sweep(tmp_path):
    out = tmp_path / "cop.csv"
    assert run_cli(["cop", "--grid", "2,6,2,10,9"], out) == 0
    header, rows = read_csv(out)
    assert header == ["T2", "cop", "carnot_limit", "dQ1", "dQ3"]
    assert len(rows) == 9
    assert all(float(r["cop"]) == 0.5 for r in rows)
    assert float(rows[0]["carnot_limit"]) == math.inf  # T2 = T1 endpoint


def test_cop_carnot_column_stays_in_range_where_only_a_product_overflows(tmp_path):
    out = tmp_path / "cop.csv"
    assert run_cli(["cop", "--t1=1", "--t3=1.7e308", "--grid=1e300,1e300,2,10,2"], out) == 0
    _, rows = read_csv(out)
    # (T3 - T2) T1 / (T3 (T2 - T1)) with T3 (T2 - T1) past the float range: about 1e-300
    assert [row["carnot_limit"] for row in rows] == [repr(carnot_limit(1.0, 1e300, 1.7e308))] * 2
    assert 9.9e-301 < carnot_limit(1.0, 1e300, 1.7e308) < 1e-300


def test_bcs_csv_contract(tmp_path):
    out = tmp_path / "bcs.csv"
    assert run_cli(["bcs", "--bits", "10000", "--rounds", "2", "--seed", "5"], out) == 0
    header, rows = read_csv(out)
    assert header == ["round", "analytic_bias", "empirical_bias", "retained_bits"]
    assert len(rows) == 3
    assert float(rows[1]["analytic_bias"]) == 0.8


def test_verify_decomposition_dump_and_gate(tmp_path):
    out = tmp_path / "seq.csv"
    assert run_cli(["verify-decomposition", "--theta", "0,1.5707963267948966"], out) == 0
    header, rows = read_csv(out)
    assert header == ["index", "label", "duration"]
    assert len(rows) == 40
    assert rows[0]["label"] == "H@1;H@2;H@3"


def test_verify_decomposition_checks_every_angle_before_output(tmp_path, capsys):
    out = tmp_path / "seq.csv"
    assert run_cli(["verify-decomposition", "--theta=0.5,inf"], out) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == ["error: argument --theta: theta must be finite, got inf"]
    assert captured.out == ""
    assert not out.exists()


def test_verify_decomposition_gate_trips_on_low_fidelity(tmp_path, monkeypatch):
    import spinfridge.cli as cli_module

    monkeypatch.setattr(cli_module, "verify", lambda sequences: [0.5] * len(sequences))
    assert run_cli(["verify-decomposition"], tmp_path / "seq.csv") == 1


def test_json_output_carries_metadata(tmp_path):
    out = tmp_path / "cycles.json"
    again = tmp_path / "again.json"
    assert run_cli(["cycles", "--cycles", "3", "--format", "json"], out) == 0
    assert run_cli(["cycles", "--cycles", "3", "--format", "json"], again) == 0
    assert out.read_bytes() == again.read_bytes()
    document = json.loads(out.read_text())
    assert document["meta"]["command"] == "cycles"
    assert document["meta"]["version"]
    assert document["meta"]["delta_scale"] == 1.0
    assert document["meta"]["config"]["E2"] == 3.0
    assert len(document["data"]) == 4


# a small run of each command
SMALL_RUNS = {"exchange": [], "ledger": [], "cycles": ["--cycles=1"],
              "phase-diagram": ["--grid=2,6,2,10,2"], "cop": ["--grid=2,6,2,10,2"],
              "bcs": ["--bits=1000"], "verify-decomposition": []}
# each command's JSON meta config at its small run: the keys of its _COMMANDS row,
# in table order, the physics keys under their FridgeConfig names
PHYSICS_META = {"E1": 1.0, "E2": 3.0, "E3": 2.0, "T1": 2.0, "T2": 2.0, "T3": 10.0,
                "theta": [math.pi / 2]}
META_CONFIG = {
    "exchange": PHYSICS_META,
    "ledger": PHYSICS_META,
    "cycles": {**PHYSICS_META, "cycles": 1},
    "phase-diagram": {**PHYSICS_META, "grid": [2.0, 6.0, 2.0, 10.0, 2]},
    "cop": {**PHYSICS_META, "grid": [2.0, 6.0, 2.0, 10.0, 2]},
    "bcs": {"bits": 1000, "epsilon0": 0.5, "rounds": 1, "seed": 0},
    "verify-decomposition": {"theta": [math.pi / 2]},
}


@pytest.mark.parametrize("command", COMMANDS)
def test_json_meta_echoes_the_config_keys_in_table_order(command, tmp_path):
    out = tmp_path / "run.json"
    assert run_cli([command, *SMALL_RUNS[command], "--format=json"], out) == 0
    meta = json.loads(out.read_text())["meta"]
    # delta_scale where the command takes it, and the PRNG of bcs
    scale = {"delta_scale": 1.0} if "delta_scale" in TAKEN[command] else {}
    prng = {"prng": "numpy-pcg64-byte-threshold"} if command == "bcs" else {}
    assert list(meta) == ["command", "version", *scale, "config", *prng]
    assert meta == {"command": command, "version": meta["version"], **scale,
                    "config": META_CONFIG[command], **prng}
    assert list(meta["config"]) == list(META_CONFIG[command])


@pytest.mark.parametrize("command", COMMANDS)
def test_each_command_help_lists_config_then_the_flags_it_takes(command, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    code, text, err = outcome(lambda: main([command, "-h"]))
    assert (code, err) == (0, "") and text.startswith(f"usage: spinfridge {command} ")
    listed = re.findall(r"^  (?:-h, )?(--[\w-]+)", text, flags=re.MULTILINE)
    flags = ["--" + key.replace("_", "-") for key in TAKEN[command]]
    assert listed == ["--help", "--config", *flags]
    assert re.search(r"^  --out OUT +output path \(default: stdout\)$", text, flags=re.MULTILINE)


def test_delta_scale_multiplies_energy_columns_only(tmp_path):
    plain = tmp_path / "plain.csv"
    scaled = tmp_path / "scaled.csv"
    args = ["cycles", "--cycles", "3"]
    assert run_cli(args, plain) == 0
    assert run_cli(args + ["--delta-scale", "2"], scaled) == 0
    _, rows_plain = read_csv(plain)
    _, rows_scaled = read_csv(scaled)
    for a, b in zip(rows_plain, rows_scaled):
        assert float(b["T1"]) == pytest.approx(2.0 * float(a["T1"]), rel=1e-12)
        assert float(b["entropy_q1"]) == pytest.approx(float(a["entropy_q1"]), rel=1e-12)


def test_exit_codes(capsys, tmp_path):
    assert main(["exchange", "--t1", "-3"]) == 1  # validation
    assert main(["exchange", "--out", "/nonexistent-dir/x.csv"]) == 2  # I/O
    assert main(["no-such-command"]) == 1  # parser error
    assert main(["cycles", "--cycles", "0"]) == 1
    assert main(["phase-diagram", "--grid", "2,6,2,10,1"]) == 1
    assert main(["cop", "--grid", "6,2,2,10,3"]) == 1  # the grid rule of phase-diagram
    assert main(["cycles", "--delta-scale", "inf"]) == 1
    assert main(["exchange", "--config", "/nonexistent-dir/run.cfg"]) == 2  # I/O
    # size caps: rejected at parse time, before anything is allocated
    capsys.readouterr()
    for args in (
        ["phase-diagram", "--grid", "2,6,2,10,1001"],
        ["cop", "--grid", "2,6,2,10,100000"],
        ["cycles", "--cycles", "100001"],
        # infinite or overflowing grid bounds: rejected before any axis is formed
        ["phase-diagram", "--grid", "2,inf,2,10,5"],
        ["cop", "--grid", "2,inf,2,10,5"],
        ["cop", "--grid", "2,1e308,2,10,5"],
        ["bcs", "--bits", "100000000000000"],
    ):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # outside pytest a warning prints its own lines
            assert main(args) == 1
        assert len(capsys.readouterr().err.splitlines()) == 1
    # a bit-pool key in the file of another command is rejected by its line,
    # whatever its value, and by its rule on bcs
    for command, line, reason in (
        ("cycles", "bits = 4", "cycles takes no key 'bits'"),
        ("exchange", "epsilon0 = 1.0", "exchange takes no key 'epsilon0'"),
        ("ledger", "rounds = -1", "ledger takes no key 'rounds'"),
        ("bcs", "bits = 3", "bits: bit count must be even and at least 2, got 3"),
    ):
        path = tmp_path / "pool.cfg"
        path.write_text(line + "\n")
        assert main([command, "--config", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {path}:1: {reason}\n"
    # a rule of one key names the flag or the file line its value came from
    config = tmp_path / "key.cfg"
    for key, text, reason in (
        ("t1", "-3", "T1 must be positive and finite, got -3.0"),
        ("theta", "0.5,inf", "theta must be finite, got inf"),
        ("theta", "0.3,,0.5", "theta list has an empty part: '0.3,,0.5'"),
        ("theta", "0.3,", "theta list has an empty part: '0.3,'"),
        ("theta", ",0.3", "theta list has an empty part: ',0.3'"),
        ("theta", ",", "theta list must not be empty"),
        ("cycles", "0", "cycles must lie in [1, 100000], got 0"),
        ("bits", "3", "bit count must be even and at least 2, got 3"),
        ("epsilon0", "1.0", "bias must lie in [0, 1), got 1.0"),
        ("rounds", "-1", "round count must be nonnegative, got -1"),
        ("seed", "-1", "seed must be a nonnegative integer, got -1"),
        ("bits", "100000000000000", "bit count must be at most 1000000000, got 100000000000000"),
    ):
        for command in taking(key):
            assert main([command, f"--{key}={text}"]) == 1
            assert capsys.readouterr().err == f"error: argument --{key}: {reason}\n"
            config.write_text(f"# line 1\n{key} = {text}\n")
            assert main([command, "--config", str(config)]) == 1
            assert capsys.readouterr().err == f"error: {config}:2: {key}: {reason}\n"
    # a command that does not read the seed does not take it either
    assert main(["exchange", "--seed=-1"]) == 1
    assert capsys.readouterr().err == "error: unrecognized arguments: --seed=-1\n"
    # a rule across keys reports no single source
    for args, reason in (
        (["exchange", "--e3", "2.5"], "E2 must equal E1 + E3 (self-contained condition): "
                                      "E2=3.0, E1+E3=3.5"),
        (["exchange", "--t1", "0.001"], "spin 1: E1/T1 = 1000.0 exceeds about 708.4, "
                                        "where e^(-E/T) underflows"),
    ):
        assert main(args) == 1
        assert capsys.readouterr().err == f"error: {reason}\n"


def test_boltzmann_factor_underflow_is_rejected(tmp_path, capsys):
    FridgeConfig(T1=1.0 / 700.0)  # E1/T1 = 700: e^(-700) is still a normal float
    with pytest.raises(ValueError, match=r"spin 1: E1/T1 = 71"):
        FridgeConfig(T1=1.0 / 710.0)

    out = tmp_path / "exchange.csv"
    assert run_cli(["exchange", f"--t3={2.0 / 700.0!r}"], out) == 0
    _, rows = read_csv(out)
    assert float(rows[0]["P101_before"]) > 0.0
    capsys.readouterr()
    assert main(["exchange", f"--t3={2.0 / 710.0!r}"]) == 1
    (line,) = capsys.readouterr().err.splitlines()
    assert "spin 3: E3/T3 = 71" in line
    # phase-diagram and cop check every grid temperature, on either axis
    for args, spin in (
        (["phase-diagram", "--grid=0.001,6,2,10,5"], "spin 2"),
        (["phase-diagram", "--grid=2,6,0.001,10,5"], "spin 3"),
        (["cop", "--grid=0.001,6,2,10,5"], "spin 2"),
    ):
        assert main(args) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(f"error: {spin}: ")


def test_bcs_pure_pools_follow_the_recursion(tmp_path):
    # at eps0 = 0.5 the pool turns pure in round 4 and the bias rounds to 1.0 in round 6
    for rounds in (4, 7):
        out = tmp_path / f"bcs{rounds}.csv"
        assert run_cli(["bcs", "--rounds", str(rounds)], out) == 0
        _, rows = read_csv(out)
        assert [int(row["round"]) for row in rows] == list(range(rounds + 1))
        eps = 0.5
        for index, row in enumerate(rows):
            if index:
                eps = 2.0 * eps / (1.0 + eps * eps)
            assert float(row["analytic_bias"]) == eps
        counts = [int(row["retained_bits"]) for row in rows]
        assert all(b <= a for a, b in zip(counts[:-1], counts[1:]))
        assert float(rows[-1]["empirical_bias"]) == 1.0


def test_bcs_all_ones_pool_reports_bias_minus_one(tmp_path):
    # seed 1 samples the 2-bit pool 11 at eps0 = 0: its bias is -1.0 in every round
    out = tmp_path / "ones.csv"
    assert run_cli(["bcs", "--bits", "2", "--epsilon0", "0", "--rounds", "1", "--seed", "1"],
                   out) == 0
    _, rows = read_csv(out)
    assert [row["retained_bits"] for row in rows] == ["2", "1"]
    assert [float(row["empirical_bias"]) for row in rows] == [-1.0, -1.0]


@pytest.mark.parametrize("args, column", [
    (["ledger", "--delta-scale=1e308"], "dW1"),  # overflowed to -inf and inf
    (["cycles", "--delta-scale=1.7976931348623157e308"], "T1"),  # overflowed to inf
    (["cycles", "--cycles=2", "--delta-scale=5e-324"], "T1"),  # underflowed, energy_q1 to 0.0
])
def test_a_delta_scale_that_takes_a_value_out_of_the_normal_range_is_rejected(args, column, capsys):
    assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith(f"error: delta-scale {float(args[-1].split('=')[1])!r} takes {column} = ")
    assert line.endswith(" out of the normal float range")


def test_a_delta_scale_inside_the_normal_range_passes(capsys):
    for args in (["ledger", "--delta-scale=1e290"], ["cycles", "--cycles=2", "--delta-scale=1e-290"]):
        assert main(args) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("command", ["phase-diagram", "cop"])
def test_an_overflowing_grid_ratio_prints_one_line(command, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # outside the test run a warning prints its own lines
        assert main([command, "--grid=5e-324,1e-12,0.5,0.6,2"]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: spin 2: E2/T2 = inf exceeds about 708.4, where e^(-E/T) underflows"]


def test_a_cycles_run_above_the_row_limit_is_rejected_before_it_runs(monkeypatch, capsys):
    # 10 angles x (100000 + 1) cycles is 1,000,010 rows; 99999 cycles make 10^6,
    # the rows of the largest phase diagram.  Neither is run.
    monkeypatch.setattr(cli, "run_cycles", None)
    thetas = "--theta=" + ",".join(["0.1"] * 10)
    assert main(["cycles", "--cycles=100000", thetas]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: 10 angles x (100000 + 1) cycles is 1000010 rows, above the row limit of 1000000"]
    assert parse_config(["cycles", "--cycles=99999", thetas]).cycles == 99999


CONTRACT_POSITIVE = ("5e-324", "1e-300", "1e-12", "0.5", "1", "2", "3", "1e12", "1e300", "1e308",
                     "1.7976931348623157e308", "1.8e308")
CONTRACT_VALUES = CONTRACT_POSITIVE + ("0", "-0.0", "inf", "-inf", "nan", "-1", "-1e300", "abc", "")
# the documented non-finite outputs: temperatures at +inf from spin_temperature
# (its 0.0 and -0.0 are finite), and the Carnot ceiling inf or nan outside T1 < T2 < T3
CONTRACT_MARKERS = {"T1_after": ("inf",), "T2_after": ("inf",), "T3_after": ("inf",),
                    "T1": ("inf",), "carnot_limit": ("inf", "nan")}


def contract_value(data, key):
    count = data.draw(st.integers(1, 3)) if key == "theta" else 5 if key == "grid" else 1
    # half the draws from the positive values, so that more runs get past parsing
    value = st.sampled_from(CONTRACT_POSITIVE) | st.sampled_from(CONTRACT_VALUES)
    return ",".join(data.draw(st.lists(value, min_size=count, max_size=count)))


def assert_finite(name, value):
    number = float(value)
    assert math.isfinite(number) or repr(number) in CONTRACT_MARKERS.get(name, ()), (name, value)


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(COMMANDS), st.sampled_from(["flags", "file"]),
       st.sampled_from(["csv", "json"]), st.data())
def test_the_cli_contract_holds_for_any_key_value(command, source, fmt, data):
    """Exit 0, 1 or 2; exit 1 with one error line (verify-decomposition's
    fidelity lines aside); an exit-0 artifact finite but for the documented
    markers; and no RuntimeWarning, which the test run turns into an error.
    The keys are those the command takes, but out."""
    keys = data.draw(st.lists(st.sampled_from([key for key in TAKEN[command] if key != "out"]),
                              min_size=1, max_size=3, unique=True))
    setting = {key: contract_value(data, key) for key in keys}
    setting.setdefault("format", fmt)
    with tempfile.TemporaryDirectory() as tmp:
        if source == "file":
            path = os.path.join(tmp, "run.cfg")
            with open(path, "w", encoding="utf-8") as handle:
                handle.writelines(f"{key} = {value}\n" for key, value in setting.items())
            argv = [command, "--config", path]
        else:
            argv = [command, *(f"--{key.replace('_', '-')}={value}" for key, value in setting.items())]
        with contextlib.redirect_stdout(io.StringIO()) as out, \
                contextlib.redirect_stderr(io.StringIO()) as err:
            code = main(argv)
    lines = err.getvalue().splitlines()
    fidelities = [line for line in lines if command == "verify-decomposition"
                  and line.startswith("theta=")]
    others = [line for line in lines if line not in fidelities]
    assert code in (0, 1, 2)
    if code == 1:
        assert (len(others) == 1 and others[0].startswith("error: ")) or (fidelities and not others)
    if code != 0:
        return
    assert others == []
    if setting["format"] == "json":
        rows = json.loads(out.getvalue())["data"]
    else:
        header, *body = out.getvalue().splitlines()
        rows = [dict(zip(header.split(","), line.split(","))) for line in body]
    for row in rows:
        for name, value in row.items():
            if name != "label":
                assert_finite(name, value)
