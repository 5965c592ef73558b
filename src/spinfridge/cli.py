"""Command-line front end emitting deterministic CSV/JSON artifacts.

Configuration comes from the defaults of the config-key table (the reference
operating point), overridden by a flat key=value config file, overridden by flags.
Each command takes the keys of its row of the command table, by flag and by
file line alike.  It reads each of them but for two cases, where a grid axis
replaces a key that is still checked: phase-diagram reads neither t2 nor t3,
and cop reads neither t2 nor the T3 fields of its grid.
All emitted numbers are in internal units (delta = k_B = 1) unless a
--delta-scale multiplier is given; the scale is recorded in JSON metadata.

Exit codes: 0 success, 1 validation failure (single-line diagnostic on
stderr), 2 I/O failure.
"""

from __future__ import annotations

import functools
import math
import sys
import types
from typing import Sequence

import numpy as np

from . import __version__
from .cooling import PRNG_ID, check_bias, check_bits, check_rounds, check_seed, simulate_bcs
from .compiler import compile_exchange, run_with_ledger, verify
from .cycles import check_cycles, check_grid, check_rows, run_cycles, scan_phase_diagram
from .fridge import (
    FridgeConfig, carnot_sweep, check_theta, cop, exchange, exchange_sweep, initial_state,
    system_hamiltonian,
)
from .thermo import check_positive

FIDELITY_GATE = 1.0 - 1e-8
# np.unique's table of distinct values and its take break even with one repr
# per row at about this many repeats plus a twelfth of the rows (measured on
# float64 columns of 17-digit texts whose repeats follow their twins, as in a
# converged cycle tail: 30 repeats of 40 rows, 33 of 61, 40 of 121, 46 of 201,
# 60 of 361, 100 of 841, 168 of 1681)
TABLE_REPEATS = 30

# an emit column: an array, a factored column (values, index), or strings
Column = np.ndarray | tuple[np.ndarray, np.ndarray] | list[str]
# the reference operating point, whose values are the physics keys' defaults
_REFERENCE = FridgeConfig()
# the six physics keys, each a FridgeConfig field: e1 is E1
_FRIDGE_KEYS = {name.lower(): name for name in FridgeConfig._fields[:6]}


def _checked(read, rule):
    """A key's reader: its text read by read, then its value checked by rule."""
    def reader(text: str):
        value = read(text)
        rule(value)
        return value
    return reader


def _parse_theta(text: str) -> tuple[float, ...]:
    parts = [part.strip() for part in text.split(",")]
    if not any(parts):
        raise ValueError("theta list must not be empty")
    if not all(parts):
        raise ValueError(f"theta list has an empty part: {text!r}")
    values = tuple(map(float, parts))
    for theta in values:
        check_theta(theta)
    return values


def _parse_grid(text: str) -> tuple[float, float, float, float, int]:
    parts = [part.strip() for part in text.split(",")]
    if len(parts) != 5:
        raise ValueError("grid must be 'T2_min,T2_max,T3_min,T3_max,steps'")
    t2_min, t2_max, t3_min, t3_max = (float(p) for p in parts[:4])
    steps = int(parts[4])
    check_grid((t2_min, t2_max), (t3_min, t3_max), steps)
    return (t2_min, t2_max, t3_min, t3_max, steps)


def _parse_format(text: str) -> str:
    if text not in ("csv", "json"):
        raise ValueError(f"format must be csv or json, got {text!r}")
    return text


# each config key once, as (default, reader, flag help): the reader applies the
# key's own rule, so that an error names its flag or file line.  A command's
# flags, help and JSON meta list the keys it takes in this order; the three
# output keys come last
_KEYS = {
    **{key: (getattr(_REFERENCE, name), _checked(float, functools.partial(check_positive, name)),
             None) for key, name in _FRIDGE_KEYS.items()},
    "theta": ((_REFERENCE.theta,), _parse_theta, "comma-separated angles in radians"),
    "cycles": (60, _checked(int, check_cycles), "number of refrigeration cycles"),
    "grid": ((2.0, 6.0, 2.0, 10.0, 41), _parse_grid, "T2_min,T2_max,T3_min,T3_max,steps"),
    "bits": (1_000_000, _checked(int, check_bits), "pool size (even)"),
    "epsilon0": (0.5, _checked(float, check_bias), "bath bias"),
    "rounds": (1, _checked(int, check_rounds), "compression rounds"),
    "seed": (0, _checked(int, check_seed), "PRNG seed"),
    "out": (None, str, "output path (default: stdout)"),
    "format": ("csv", _parse_format, "output format: csv or json"),
    "delta_scale": (1.0, _checked(float, functools.partial(check_positive, "delta-scale")),
                    "display multiplier for delta-unit columns"),
}
_DEFAULTS = {key: default for key, (default, *_) in _KEYS.items()}


class RunConfig(types.SimpleNamespace):
    """The resolved configuration: ``command``, each config key (its default
    unless given), and ``fridge``, the physics keys and the first angle as a
    FridgeConfig, built here, so that the rules across keys
    (E2 = E1 + E3, the E/T underflow) are checked once; the builders reuse it."""

    def __init__(self, command: str, **values) -> None:
        super().__init__(command=command, **(_DEFAULTS | values))
        physics = {name: getattr(self, key) for key, name in _FRIDGE_KEYS.items()}
        self.fridge = FridgeConfig(**physics, theta=self.theta[0])

    def __reduce__(self):  # a copy or an unpickled config: built for its command, then filled in
        return type(self), (self.command,), vars(self)


def _read_config_file(path: str, command: str) -> list[tuple[str, str, str]]:
    """(key, source, text) of each key = value line, in file order; a key the
    command does not take is an error that names its line."""
    entries = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip().lower()
            if key not in _KEYS or key not in _FLAGS[command].values():
                raise ValueError(f"{path}:{lineno}: {command} takes no key {key!r}")
            entries.append((key, f"{path}:{lineno}: {key}", value.strip()))
    return entries


def _is_numbers(text: str) -> bool:
    """Whether float() reads text, or each comma-separated part of it."""
    try:
        for part in text.split(","):
            float(part)
    except ValueError:
        return False
    return True


def _joined(command: str, args: list[str]) -> list[str]:
    """args with each full option string of the command joined to the value
    after it as --flag=value, when that value does not start with '-' or reads
    as numbers, up to any '--': the one rule for a flag's value after a space.

    argparse reads a value that does not start with '-' as the flag's either
    way; one that does it takes for an option unless it looks like -N or -N.N,
    so it would report --theta -1e-3 as a flag given none."""
    flags = _FLAGS[command]
    joined = []
    for index, arg in enumerate(args):
        if arg == "--":
            return joined + args[index:]
        if joined and joined[-1] in flags and (not arg.startswith("-") or _is_numbers(arg)):
            joined[-1] += "=" + arg
        else:
            joined.append(arg)
    return joined


def _exact_flags(command: str, args: list[str]) -> dict[str, str | None] | None:
    """The namespace the command's parser would fill from args, read without
    argparse when every argument is --flag=value for a full option string of
    the command (the last repeat of a flag wins, as in argparse); None for any
    other args."""
    flags = _FLAGS[command]
    namespace = {"command": command} | dict.fromkeys(flags.values())
    for arg in args:
        option, equals, text = arg.partition("=")
        if not equals or option not in flags or text == "--":  # argparse reads --flag=-- as no value
            return None
        namespace[flags[option]] = text
    return namespace


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of the args that _exact_flags does not read, with one
    subparser per command built from its _FLAGS row and the helps of _KEYS,
    once per process; argparse loads here, on first use."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        # keep exit code 1 for all validation problems (argparse defaults to 2)
        def error(self, message: str) -> None:  # type: ignore[override]
            print(f"error: {message}", file=sys.stderr)
            raise SystemExit(1)

    helps = {"config": "flat key=value config file"} | {key: row[2] for key, row in _KEYS.items()}
    parser = _Parser(prog="spinfridge",
                     description="three-spin self-contained refrigerator simulator")
    sub = parser.add_subparsers(dest="command", required=True)
    for command in COMMANDS:
        own = sub.add_parser(command)
        for option, key in _FLAGS[command].items():
            own.add_argument(option, help=helps[key])
    return parser


def parse_config(argv: list[str] | None = None) -> RunConfig:
    """Resolve defaults, config file, and flags into a validated RunConfig."""
    argv = sys.argv[1:] if argv is None else argv
    namespace = None
    if argv and argv[0] in _COMMANDS:
        argv = [argv[0], *_joined(argv[0], argv[1:])]
        namespace = _exact_flags(argv[0], argv[1:])
    if namespace is None:
        namespace = vars(_parser().parse_args(argv))
    command = namespace["command"]
    # argparse reads --flag=-- as an empty list, not a value: report it as
    # argparse reports a flag given none
    empty = [key for key, text in namespace.items() if isinstance(text, list)]
    if empty:
        option = next(flag for flag, key in _FLAGS[command].items() if key == empty[0])
        _parser().error(f"argument {option}: expected one argument")
    entries = _read_config_file(namespace["config"], command) if namespace["config"] else []
    entries += [(key, "argument --" + key.replace("_", "-"), text)
                for key, text in namespace.items() if key in _KEYS and text is not None]
    values = {}
    for key, source, text in entries:  # flags come last, so they win
        try:
            values[key] = _KEYS[key][1](text)
            if key == "theta" and len(values[key]) > 1 and command not in _ANGLE_LISTS:
                raise ValueError(f"{command} takes one angle, got {len(values[key])}")
        except ValueError as exc:
            raise ValueError(f"{source}: {exc}") from None
    # RunConfig checks the rules across keys, which do not depend on theta, and
    # _parse_theta has checked every angle
    cfg = RunConfig(command, **values)
    if cfg.command == "cycles":  # one row per angle and cycle, from cycle 0
        check_rows(len(cfg.theta), cfg.cycles)
    return cfg


def _scaled(columns: dict[str, Column], names: set[str], scale: float) -> dict[str, Column]:
    """The columns, those in ``names`` times scale, which must keep every value of
    the normal float range inside it (zeros, markers and subnormals pass); the
    error names the value of the first row that leaves it."""
    if scale == 1.0:
        return columns
    scaled = dict(columns)
    for name in (k for k in columns if k in names):
        column = columns[name]
        values = column[0] if isinstance(column, tuple) else column
        with np.errstate(over="ignore", under="ignore"):
            product = np.multiply(values, scale)
        scaled[name] = (product, column[1]) if isinstance(column, tuple) else product
        magnitude = np.abs([values, product])
        normal = (magnitude >= sys.float_info.min) & (magnitude <= sys.float_info.max)
        left = normal[0] & ~normal[1]
        if isinstance(column, tuple) and left.any():  # the rows' values, in row order
            values, left = values[column[1]], left[column[1]]
        if left.any():
            value = float(values[np.argmax(left)])
            raise ValueError(f"delta-scale {scale!r} takes {name} = {value!r} out of the "
                             "normal float range")
    return scaled


def _json_text(value, indent: str, escape) -> str:
    """value as json.dumps(indent=2) lays it out at indent: a string escaped to
    ASCII by escape (json.encoder's encode_basestring_ascii), an int or a float
    as its repr ('inf', '-inf' and 'nan' as strings), and each item of a
    non-empty dict (str keys) or list or tuple on a line of its own.  Its type
    must be one of these exactly: any other, None, a bool and a numpy scalar
    among them, raises TypeError."""
    kind = type(value)
    if kind is str:
        return escape(value)
    if kind is int:
        return int.__repr__(value)
    if kind is float:
        text = float.__repr__(value)
        return text if math.isfinite(value) else f'"{text}"'
    inner = indent + "  "
    if kind is dict:
        items = [f"{escape(key)}: {_json_text(item, inner, escape)}" for key, item in value.items()]
        brackets = "{}"
    elif kind is list or kind is tuple:
        items = [_json_text(item, inner, escape) for item in value]
        brackets = "[]"
    else:
        raise TypeError(f"JSON meta holds a {kind.__name__}: {value!r}")
    if not items:
        return brackets
    return f"{brackets[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}{brackets[1]}"


def _table_pays(values: np.ndarray) -> bool:
    """Whether np.unique's table of distinct values surely costs less than it
    saves: it costs about the repr of TABLE_REPEATS values plus a twelfth of the
    rows, so a column needs more repeats than that.  Its equal neighbours in row
    order, never more than its repeats, must show them, so no sort runs."""
    needed = TABLE_REPEATS + len(values) // 12
    return len(values) > needed and int(np.count_nonzero(values[1:] == values[:-1])) > needed


def _column_texts(column: Column, escape) -> list[str]:
    """The text of each value of one column, in JSON given JSON's string escaper
    and in CSV given None, where a string is its own text.  A number's text is
    its repr, a non-finite float's in quotes in JSON.  A numeric column is
    (values, index), index None for a plain array, which is factored by
    np.unique where the table pays; each value is formatted once and, given an
    index, taken into row order."""
    if isinstance(column, list):
        return column if escape is None else list(map(escape, column))
    values, index = column if isinstance(column, tuple) else (column, None)
    array = values if index is None and _table_pays(values) else None  # factored here
    if array is not None:
        values, index = np.unique(array, return_inverse=True)
    floats = values.dtype == np.float64
    texts = list(map(float.__repr__ if floats else int.__repr__, values.tolist()))
    if escape is not None and floats:
        for row in np.flatnonzero(~np.isfinite(values)).tolist():
            texts[row] = f'"{texts[row]}"'
    if index is not None:
        texts = np.array(texts, dtype=object)[index].tolist()
    if array is not None and floats:  # -0.0 and 0.0 are one value of the table
        for row in np.flatnonzero(array == 0.0).tolist():
            texts[row] = float.__repr__(array[row])
    return texts


def _rows(column: Column) -> int:
    return len(column[1]) if isinstance(column, tuple) else len(column)


def emit(columns: dict[str, Column], fmt: str, path: str | None, meta: dict) -> int:
    """Write equal-length columns as CSV or JSON rows; byte-identical for
    identical inputs.  A column is a float64 or int64 array, a factored column
    (values, index) whose row i holds values[index[i]], or a list of strings.
    The names and the strings are non-empty and hold no comma, double quote, CR
    or LF, so that no CSV field needs quoting.  JSON meta holds strs, ints and
    floats in dicts, lists and tuples (see _json_text).

    A float's text is repr(float(v)); JSON writes 'inf', '-inf' and 'nan' as
    strings.  Each column is formatted as a whole.  CSV is the header and the
    rows joined with commas, and JSON rows, after the meta, are laid out in one
    join, as csv.writer and json.dumps(indent=2) would write them.
    """
    if len(set(map(_rows, columns.values()))) > 1:
        raise ValueError("columns must have equal lengths")
    escape = None
    if fmt == "json":  # its string escaper, imported once per emit and passed down
        from json.encoder import encode_basestring_ascii as escape
    texts = [_column_texts(col, escape) for col in columns.values()]
    has_rows = bool(texts and texts[0])
    names = list(columns)
    if fmt == "csv":
        payload = "\n".join(map(",".join, [names, *zip(*texts)])) + "\n" if has_rows else ""
    else:
        head = f'{{\n  "meta": {_json_text(meta, "  ", escape)},\n  "data": '
        if not has_rows:
            payload = head + "[]\n}\n"
        else:
            # each row as json.dumps(indent=2) lays out a dict inside the data
            # list: every text after its key's prefix, all in one join
            keys = list(map(escape, names))
            prefixes = [f"\n    }},\n    {{\n      {keys[0]}: "]
            prefixes += [f",\n      {key}: " for key in keys[1:]]
            width = 2 * len(keys)
            parts = [""] * (width * len(texts[0]))
            for index, (prefix, column_texts) in enumerate(zip(prefixes, texts)):
                parts[2 * index::width] = [prefix] * len(column_texts)
                parts[2 * index + 1::width] = column_texts
            parts[0] = f"{head}[\n    {{\n      {keys[0]}: "  # the first row follows no row
            parts.append("\n    }\n  ]\n}\n")
            payload = "".join(parts)
    if path is None or path == "-":
        sys.stdout.write(payload)
    else:
        with open(path, "wb") as handle:
            handle.write(payload.encode())
    return 0


def _meta(cfg: RunConfig) -> dict:
    _, scaled, reads = _COMMANDS[cfg.command]
    meta = {"command": cfg.command, "version": __version__}
    if scaled:
        meta["delta_scale"] = cfg.delta_scale
    # the physics keys under FridgeConfig's names
    meta["config"] = {_FRIDGE_KEYS.get(key, key): getattr(cfg, key) for key in reads}
    if cfg.command == "bcs":
        meta["prng"] = PRNG_ID
    return meta


def _record_columns(records: Sequence[tuple]) -> dict[str, np.ndarray]:
    """One array column per field of the NamedTuple records (at least one)."""
    return dict(zip(records[0]._fields, map(np.array, zip(*records))))


def _columns_exchange(cfg: RunConfig) -> dict[str, np.ndarray]:
    return _record_columns([exchange(cfg.fridge)])


def _columns_ledger(cfg: RunConfig) -> dict[str, np.ndarray]:
    fridge_cfg = cfg.fridge
    sequence = compile_exchange(cfg.theta[0])
    _, ledger = run_with_ledger(sequence, initial_state(fridge_cfg), system_hamiltonian(fridge_cfg))
    return ledger._asdict()


def _columns_cycles(cfg: RunConfig) -> dict[str, Column]:
    columns = run_cycles(cfg.fridge, cfg.cycles, cfg.theta)._asdict()
    n, rows = columns.pop("n"), cfg.cycles + 1
    # n is 0..cycles once per angle, so it indexes its own first block of rows
    return {"n": (n[:rows], n),
            "theta": (np.array(cfg.theta), np.arange(len(cfg.theta)).repeat(rows)), **columns}


def _columns_phase_diagram(cfg: RunConfig) -> dict[str, Column]:
    t2_min, t2_max, t3_min, t3_max, steps = cfg.grid
    t2s, t3s, dq1 = scan_phase_diagram((t2_min, t2_max), (t3_min, t3_max), steps,
                                       base=cfg.fridge)
    # cells run by T2 then T3: each T2 holds for a block of steps rows, and the
    # T3 axis repeats once per block
    axis = np.arange(steps)
    return {"T2": (t2s[::steps], axis.repeat(steps)), "T3": (t3s[:steps], np.tile(axis, steps)),
            "dQ1": dq1}


def _columns_cop(cfg: RunConfig) -> dict[str, Column]:
    t2_min, t2_max, _, _, steps = cfg.grid
    base = cfg.fridge
    t2s = t2_min + (t2_max - t2_min) * np.arange(steps) / (steps - 1)
    flow = exchange_sweep(base, t2s, base.T3)
    return {"T2": t2s, "cop": (np.array([cop(base)]), np.zeros(steps, dtype=np.intp)),
            "carnot_limit": carnot_sweep(base.T1, t2s, base.T3),
            "dQ1": base.E1 * flow, "dQ3": base.E3 * flow}


def _columns_bcs(cfg: RunConfig) -> dict[str, np.ndarray]:
    columns = _record_columns(simulate_bcs(cfg.bits, cfg.epsilon0, cfg.rounds, cfg.seed).rounds)
    return {"round": columns.pop("round_index"), **columns}


# the keys of a FridgeConfig, which each command that builds one takes: the six
# physics keys and the angles
_FRIDGE = (*_FRIDGE_KEYS, "theta")
# per command: its column builder, its columns in delta (or delta/k_B) units,
# and the config keys it takes but the output keys, in _KEYS order; run()
# writes the verify-decomposition rows itself
_COMMANDS = {
    "exchange": (_columns_exchange, {"dQ1", "dQ2", "dQ3", "T1_after", "T2_after", "T3_after"},
                 _FRIDGE),
    "ledger": (_columns_ledger, {"dW1", "dQ1", "dW2", "net_work", "cumulative_work"}, _FRIDGE),
    "cycles": (_columns_cycles, {"T1", "energy_q1", "dQ1"}, (*_FRIDGE, "cycles")),
    "phase-diagram": (_columns_phase_diagram, {"T2", "T3", "dQ1"}, (*_FRIDGE, "grid")),
    "cop": (_columns_cop, {"T2", "dQ1", "dQ3"}, (*_FRIDGE, "grid")),
    "bcs": (_columns_bcs, set(), ("bits", "epsilon0", "rounds", "seed")),
    "verify-decomposition": (None, set(), ("theta",)),
}
COMMANDS = tuple(_COMMANDS)
# the commands that read every angle; the others read one
_ANGLE_LISTS = ("cycles", "verify-decomposition")
# each command's full option strings and the namespace key of each: --config,
# then the keys it takes in _KEYS order: those of its _COMMANDS row, out,
# format, and delta_scale where it has delta-unit columns.  _parser() adds them in this
# order, which is the order argparse fills the namespace in, so _exact_flags
# reads the keys, and reports a first error, alike
_FLAGS = {command: {"--config": "config"} | {"--" + key.replace("_", "-"): key for key in _KEYS
                                             if key in (*reads, "out", "format")
                                             or key == "delta_scale" and scaled}
          for command, (_, scaled, reads) in _COMMANDS.items()}


def run(cfg: RunConfig) -> int:
    """Dispatch one command; returns the process exit code."""
    if cfg.command == "verify-decomposition":
        sequences = compile_exchange(cfg.theta)
        fidelities = verify(sequences)
        for theta, fidelity in zip(cfg.theta, fidelities):
            print(f"theta={theta!r} fidelity={fidelity!r}", file=sys.stderr)
        seq = sequences[0]
        # every pulse runs for the unit time
        listing = {"index": np.arange(1, len(seq.labels) + 1), "label": list(seq.labels),
                   "duration": (np.array([1.0]), np.zeros(len(seq.labels), dtype=np.intp))}
        emit(listing, cfg.format, cfg.out, _meta(cfg))
        return 0 if min(fidelities) >= FIDELITY_GATE else 1

    build, scaled_columns, _ = _COMMANDS[cfg.command]
    columns = _scaled(build(cfg), scaled_columns, cfg.delta_scale)
    return emit(columns, cfg.format, cfg.out, _meta(cfg))


def main(argv: list[str] | None = None) -> int:
    try:
        return run(parse_config(argv))
    except SystemExit as exc:  # argparse help/usage paths
        code = exc.code
        return int(code) if isinstance(code, int) else 0
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
