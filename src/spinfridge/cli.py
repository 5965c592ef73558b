"""Command-line front end emitting deterministic CSV/JSON artifacts.

Configuration comes from the RunConfig defaults (the reference operating
point), overridden by a flat key=value config file, overridden by flags.
All emitted numbers are in internal units (delta = k_B = 1) unless a
--delta-scale multiplier is given; the scale is recorded in JSON metadata.

Exit codes: 0 success, 1 validation failure (single-line diagnostic on
stderr), 2 I/O failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
from dataclasses import asdict, dataclass, field, fields
from typing import get_type_hints

from . import __version__
from .cooling import PRNG_ID, check_pool, simulate_bcs
from .compiler import compile_exchange, run_with_ledger, verify
from .cycles import check_grid, run_cycles, scan_phase_diagram
from .fridge import (
    FridgeConfig, carnot_limit, cop, exchange, exchange_sweep, initial_state, system_hamiltonian,
)

FIDELITY_GATE = 1.0 - 1e-8
MAX_CYCLES = 100_000


def _key(default, help: str, bcs_only: bool = False):
    """A config key with the help text of its flag, which bcs_only keeps to bcs."""
    return field(default=default, metadata={"help": help, "bcs_only": bcs_only})


@dataclass
class RunConfig:
    """The resolved configuration; each field after ``command`` is one config
    key, with its type (read by ``_READERS``), its default and its flag help."""

    command: str
    e1: float = FridgeConfig.E1
    e2: float = FridgeConfig.E2
    e3: float = FridgeConfig.E3
    t1: float = FridgeConfig.T1
    t2: float = FridgeConfig.T2
    t3: float = FridgeConfig.T3
    g: float = FridgeConfig.g
    theta: tuple[float, ...] = _key((FridgeConfig.theta,), "comma-separated angles in radians")
    cycles: int = _key(60, "number of refrigeration cycles")
    grid: tuple[float, float, float, float, int] = _key(
        (2.0, 6.0, 2.0, 10.0, 41), "T2_min,T2_max,T3_min,T3_max,steps"
    )
    bits: int = _key(1_000_000, "pool size (even)", bcs_only=True)
    epsilon0: float = _key(0.5, "bath bias", bcs_only=True)
    rounds: int = _key(1, "compression rounds", bcs_only=True)
    seed: int = _key(0, "PRNG seed")
    out: str | None = _key(None, "output path (default: stdout)")
    format: str = _key("csv", "output format: csv or json")
    delta_scale: float = _key(1.0, "display multiplier for delta-unit columns")

    def fridge(self, theta: float | None = None) -> FridgeConfig:
        return FridgeConfig(
            E1=self.e1,
            E2=self.e2,
            E3=self.e3,
            T1=self.t1,
            T2=self.t2,
            T3=self.t3,
            g=self.g,
            theta=self.theta[0] if theta is None else theta,
        )


class _Parser(argparse.ArgumentParser):
    # keep exit code 1 for all validation problems (argparse defaults to 2)
    def error(self, message: str) -> None:  # type: ignore[override]
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _parse_theta(text: str) -> tuple[float, ...]:
    values = tuple(float(part) for part in text.split(",") if part.strip())
    if not values:
        raise ValueError("theta list must not be empty")
    return values


def _parse_grid(text: str) -> tuple[float, float, float, float, int]:
    parts = [part.strip() for part in text.split(",")]
    if len(parts) != 5:
        raise ValueError("grid must be 'T2_min,T2_max,T3_min,T3_max,steps'")
    t2_min, t2_max, t3_min, t3_max = (float(p) for p in parts[:4])
    steps = int(parts[4])
    check_grid((t2_min, t2_max), (t3_min, t3_max), steps, steps)
    return (t2_min, t2_max, t3_min, t3_max, steps)


def _parse_format(text: str) -> str:
    if text not in ("csv", "json"):
        raise ValueError(f"format must be csv or json, got {text!r}")
    return text


def _parse_delta_scale(text: str) -> float:
    value = float(text)
    if not (value > 0.0 and math.isfinite(value)):
        raise ValueError(f"delta-scale must be positive and finite, got {value}")
    return value


_PARSERS = {
    "theta": _parse_theta,
    "grid": _parse_grid,
    "format": _parse_format,
    "delta_scale": _parse_delta_scale,
    "out": str,
}
# every key reads its text with its _PARSERS entry, else with its annotated type
_READERS = {name: _PARSERS.get(name, hint)
            for name, hint in get_type_hints(RunConfig).items() if name != "command"}


def _read_config_file(path: str) -> list[tuple[str, str, str]]:
    """(key, source, text) of each key = value line, in file order."""
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
            if key not in _READERS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            entries.append((key, f"{path}:{lineno}: {key}", value.strip()))
    return entries


@functools.cache
def _parser() -> _Parser:
    """The flags of every command, generated from RunConfig once per process."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat key=value config file")
    bcs = argparse.ArgumentParser(add_help=False)
    for key in fields(RunConfig)[1:]:  # the keys, after the command
        owner = bcs if key.metadata.get("bcs_only") else common
        owner.add_argument("--" + key.name.replace("_", "-"), help=key.metadata.get("help"))

    parser = _Parser(prog="spinfridge",
                     description="three-spin self-contained refrigerator simulator")
    sub = parser.add_subparsers(dest="command", required=True)
    for command in COMMANDS:
        sub.add_parser(command, parents=[common, bcs] if command == "bcs" else [common])
    return parser


def parse_config(argv: list[str] | None = None) -> RunConfig:
    """Resolve defaults, config file, and flags into a validated RunConfig."""
    namespace = _parser().parse_args(argv)
    entries = _read_config_file(namespace.config) if namespace.config else []
    entries += [(key, "argument --" + key.replace("_", "-"), text)
                for key, text in vars(namespace).items() if key in _READERS and text is not None]
    values = {}
    for key, source, text in entries:  # flags come last, so they win
        try:
            values[key] = _READERS[key](text)
        except ValueError as exc:
            raise ValueError(f"{source}: {exc}") from None
    cfg = RunConfig(command=namespace.command, **values)

    for theta in cfg.theta:
        cfg.fridge(theta)  # validates gaps, temperatures (E2 = E1 + E3) and each angle
    if not 1 <= cfg.cycles <= MAX_CYCLES:
        raise ValueError(f"cycles must lie in [1, {MAX_CYCLES}], got {cfg.cycles}")
    check_pool(cfg.bits, cfg.epsilon0, cfg.rounds)
    return cfg


def _scaled(rows: list[dict], columns: set[str], scale: float) -> list[dict]:
    if scale == 1.0 or not columns:
        return rows
    return [
        {k: (v * scale if k in columns else v) for k, v in row.items()}
        for row in rows
    ]


def _json_value(value):
    if isinstance(value, float):
        value = float(value)
        if not math.isfinite(value):
            return repr(value)  # 'inf', '-inf', 'nan'
        return value
    if isinstance(value, dict):
        return {k: _json_value(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_value(v) for v in value]
    if isinstance(value, (int, str)) or value is None:
        return value
    return str(value)


def emit(rows: list[dict], fmt: str, path: str | None, meta: dict) -> int:
    """Write rows as CSV or JSON; byte-identical for identical inputs."""
    if fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        if rows:
            writer.writerow(list(rows[0].keys()))
            for row in rows:
                writer.writerow(
                    [repr(float(v)) if isinstance(v, float) else str(v) for v in row.values()]
                )
        payload = buffer.getvalue()
    else:
        document = {
            "meta": {k: _json_value(v) for k, v in meta.items()},
            "data": [{k: _json_value(v) for k, v in row.items()} for row in rows],
        }
        payload = json.dumps(document, indent=2) + "\n"
    if path is None or path == "-":
        sys.stdout.write(payload)
    else:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(payload)
    return 0


def _meta(cfg: RunConfig) -> dict:
    meta = {
        "command": cfg.command,
        "version": __version__,
        "delta_scale": cfg.delta_scale,
        # the physics keys under FridgeConfig's names, then the run keys
        "config": {**asdict(cfg.fridge()), "theta": list(cfg.theta), "cycles": cfg.cycles,
                   "grid": list(cfg.grid), "bits": cfg.bits, "epsilon0": cfg.epsilon0,
                   "rounds": cfg.rounds, "seed": cfg.seed},
    }
    if cfg.command == "bcs":
        meta["prng"] = PRNG_ID
    return meta


def _rows_exchange(cfg: RunConfig) -> list[dict]:
    report = exchange(cfg.fridge())
    return [asdict(report)]


def _rows_ledger(cfg: RunConfig) -> list[dict]:
    fridge_cfg = cfg.fridge()
    sequence = compile_exchange(cfg.theta[0], fridge_cfg.g)
    _, entries = run_with_ledger(sequence, initial_state(fridge_cfg), system_hamiltonian(fridge_cfg))
    return [dict(vars(entry)) for entry in entries]


def _rows_cycles(cfg: RunConfig) -> list[dict]:
    rows: list[dict] = []
    for theta in cfg.theta:
        for record in run_cycles(cfg.fridge(theta), cfg.cycles):
            row = dict(vars(record))
            rows.append({"n": row.pop("n"), "theta": theta, **row})
    return rows


def _rows_phase_diagram(cfg: RunConfig) -> list[dict]:
    t2_min, t2_max, t3_min, t3_max, steps = cfg.grid
    points = scan_phase_diagram((t2_min, t2_max), (t3_min, t3_max), steps, cfg.t1,
                                cfg.theta[0], base=cfg.fridge())
    return [dict(vars(point)) for point in points]


def _rows_cop(cfg: RunConfig) -> list[dict]:
    t2_min, t2_max, _, _, steps = cfg.grid
    base = cfg.fridge()
    t2s = [t2_min + (t2_max - t2_min) * index / (steps - 1) for index in range(steps)]
    rows = []
    for t2, flow in zip(t2s, exchange_sweep(base, t2s, base.T3).tolist()):
        # nan outside the engine+fridge ordering
        limit = carnot_limit(base.T1, t2, base.T3) if base.T1 <= t2 < base.T3 else math.nan
        rows.append({"T2": t2, "cop": cop(base), "carnot_limit": limit,
                     "dQ1": base.E1 * flow, "dQ3": base.E3 * flow})
    return rows


def _rows_bcs(cfg: RunConfig) -> list[dict]:
    result = simulate_bcs(cfg.bits, cfg.epsilon0, cfg.rounds, cfg.seed)
    rows = [asdict(r) for r in result.rounds]
    return [{"round": row.pop("round_index"), **row} for row in rows]


# per command: its row builder and its columns in delta (or delta/k_B) units;
# run() writes the verify-decomposition rows itself
_COMMANDS = {
    "exchange": (_rows_exchange, {"dQ1", "dQ2", "dQ3", "T1_after", "T2_after", "T3_after"}),
    "ledger": (_rows_ledger, {"dW1", "dQ1", "dW2", "net_work", "cumulative_work"}),
    "cycles": (_rows_cycles, {"T1", "energy_q1", "dQ1"}),
    "phase-diagram": (_rows_phase_diagram, {"T2", "T3", "dQ1"}),
    "cop": (_rows_cop, {"T2", "dQ1", "dQ3"}),
    "bcs": (_rows_bcs, set()),
    "verify-decomposition": (None, set()),
}
COMMANDS = tuple(_COMMANDS)


def run(cfg: RunConfig) -> int:
    """Dispatch one command; returns the process exit code."""
    if cfg.command == "verify-decomposition":
        fidelities = []
        dump_rows: list[dict] = []
        for position, theta in enumerate(cfg.theta):
            sequence = compile_exchange(theta, cfg.g)
            fidelity = verify(sequence)
            fidelities.append(fidelity)
            print(f"theta={theta!r} fidelity={fidelity!r}", file=sys.stderr)
            if position == 0:
                dump_rows = [
                    {"index": i, "label": s.label, "duration": s.duration}
                    for i, s in enumerate(sequence.steps, start=1)
                ]
        emit(dump_rows, cfg.format, cfg.out, _meta(cfg))
        return 0 if min(fidelities) >= FIDELITY_GATE else 1

    build, scaled_columns = _COMMANDS[cfg.command]
    rows = _scaled(build(cfg), scaled_columns, cfg.delta_scale)
    return emit(rows, cfg.format, cfg.out, _meta(cfg))


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
