"""Command-line front end emitting plot-ready CSV or JSON data.

Exit codes: 0 success, 2 usage or configuration error, 3 I/O error,
4 numerical invariant violation.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import random
import sys
import warnings
from itertools import chain

from . import __version__
from .dynamics import (
    SUPERPOSITION_MINUS,
    SUPERPOSITION_PLUS,
    InvariantViolationError,
    markovian_trajectory,
    orbit_sweep,
    random_schedule,
    repeated_schedule,
    run_trajectory,
)
from .metrics import BACKFLOW_TOL, backflow_events
from .model import ThermalAncilla

MAX_GRID_POINTS = 10**6  # parse_grid rejects a grid of more points
MAX_COLLISIONS = 10**6  # main rejects a longer run, _grid_or_ps more steps over all p
# A command returns its rows as blocks, one cell per column: a range is an
# integer column, a number a constant column, any other sequence a float column.
_CONSTANT = (int, float)
_EPILOG = {
    "trajectory": (
        "Columns with one ancilla: n,coherence_A,coherence_env,negativity,"
        "trace_distance. Columns with two or three ancillas: n,coherence_A,"
        "trace_distance. Both system copies start in the orthogonal "
        "equal-weight superpositions and share the collision schedule."
    ),
    "orbit": (
        "Columns: p,value. One row per windowed coherence value of the "
        "single-ancilla repeated-collision run at each grid point."
    ),
    "markovian": (
        "Columns: n,p,trace_distance,coherence, sorted by (p, n). A footer "
        "comment reports monotonicity of each trace-distance column."
    ),
}


class ConfigError(ValueError):
    pass


def _grid_span(spec: str) -> tuple[float, float, float, int]:
    """(start, stop, step, point count) of a 'start:stop:step' grid, checked but not built."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise ConfigError(f"grid must look like start:stop:step, got {spec!r}")
    try:
        start, stop, step = (float(x) for x in parts)
    except ValueError:
        raise ConfigError(f"non-numeric grid specification {spec!r}") from None
    if not all(map(math.isfinite, (start, stop, step))):
        raise ConfigError(f"grid {spec!r} must have finite start, stop and step")
    if step <= 0:
        raise ConfigError(f"grid step must be positive, got {step}")
    if stop < start:
        raise ConfigError(f"grid {spec!r} is empty")
    # A float first: a huge span over a tiny step overflows int() or the memory.
    count = (stop - start) / step + 1e-9
    if not count < MAX_GRID_POINTS:
        raise ConfigError(f"grid {spec!r} has more than {MAX_GRID_POINTS} points")
    return start, stop, step, int(count) + 1


def parse_grid(spec: str) -> list[float]:
    """Parse 'start:stop:step' into an inclusive ascending grid; no point passes stop."""
    start, stop, step, count = _grid_span(spec)
    return [min(start + k * step, stop) for k in range(count)]


def parse_window(spec: str) -> tuple[int, int]:
    """Parse 'a:b' into a half-open integer range of collision indices."""
    parts = spec.split(":")
    try:
        a, b = (int(x) for x in parts)
    except ValueError:
        raise ConfigError(f"window must look like a:b with integers, got {spec!r}") from None
    if a < 0 or b <= a:
        raise ConfigError(f"window {spec!r} is empty or negative")
    return a, b


def _fmt(x, /) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return f"{x:.17g}"
    if x is None:
        return "none"
    return str(x)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcollide",
        description="Simulate qubit collision dynamics and emit metric series.",
    )
    parser.add_argument("--version", action="version", version=f"qcollide {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, run, help_text, p_help in (
        ("trajectory", _cmd_trajectory, "metric series of one collision run",
         "interaction probability"),
        ("orbit", _cmd_orbit, "long-term coherence values over a probability grid",
         "one interaction probability, in place of --p-grid"),
        ("markovian", _cmd_markovian, "fresh-ancilla (infinite bath) evolution",
         "interaction probability (repeatable)"),
    ):
        cmd = sub.add_parser(name, help=help_text, epilog=_EPILOG[name])
        cmd.set_defaults(run=run)
        cmd.add_argument("--p", action="append", type=float, metavar="X", help=p_help)
        cmd.add_argument("--wg", type=float, default=0.8, metavar="X",
                         help="ancilla ground-state weight (default 0.8)")
        cmd.add_argument("--collisions", type=int, default=100, metavar="N",
                         help="number of collisions (default 100)")
        cmd.add_argument("--window", metavar="A:B", help="emit only collision indices in [A, B)")
        cmd.add_argument("--format", choices=("csv", "json"), default="csv",
                         help="output format (default csv)")
        cmd.add_argument("--out", metavar="PATH", help="output file (default: standard output)")
    trajectory, orbit, markovian = sub.choices.values()
    for cmd in (orbit, markovian):
        cmd.add_argument("--p-grid", metavar="A:B:STEP", help="inclusive probability grid")
    for cmd in (trajectory, markovian):
        cmd.add_argument("--backflow-tol", type=float, default=BACKFLOW_TOL, metavar="X",
                         help=f"revival detection tolerance (default {BACKFLOW_TOL})")
    trajectory.add_argument("--ancillas", type=int, default=1, metavar="N",
                            help="number of thermal ancillas, 1..3 (default 1)")
    trajectory.add_argument("--seed", type=int, metavar="N",
                            help="seed for the random collision schedule of 2 or 3 ancillas")
    trajectory.add_argument("--restrict-system-ancilla", action="store_true",
                            help="draw only system-ancilla pairs in the random schedule")
    orbit.add_argument("--ancillas", type=int, default=1, metavar="N",
                       help="only 1: the orbit diagram is the single-ancilla scenario")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def _backflow_tol(args) -> float:
    if not (math.isfinite(args.backflow_tol) and args.backflow_tol >= 0):
        raise ConfigError(f"--backflow-tol must be finite and >= 0, got {args.backflow_tol}")
    return args.backflow_tol


def _ancilla(args) -> ThermalAncilla:
    if not 0.0 <= args.wg <= 1.0:
        raise ConfigError(f"--wg must lie in [0, 1], got {args.wg}")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ancilla = ThermalAncilla(args.wg, 1.0 - args.wg)
    for warning in caught:
        print(f"qcollide: warning: {warning.message}", file=sys.stderr)
    return ancilla


def _window_or_none(args) -> tuple[int, int] | None:
    """The --window range, which must end by the last collision index, or None."""
    if args.window is None:
        return None
    a, b = parse_window(args.window)
    if b > args.collisions + 1:
        raise ConfigError(
            f"window {args.window!r} ends past collision {args.collisions}; "
            f"it must lie within 0:{args.collisions + 1}"
        )
    return a, b


def _grid_or_ps(args) -> list[float] | None:
    """The --p-grid points, else the --p values (None when neither is given).

    Their runs together may take no more collision steps than one trajectory;
    a grid is counted before it is built.
    """
    if args.p_grid is not None and args.p is not None:
        raise ConfigError("give either --p or --p-grid, not both")
    count = len(args.p or ()) if args.p_grid is None else _grid_span(args.p_grid)[3]
    if count * args.collisions > MAX_COLLISIONS:
        raise ConfigError(
            f"{count} probabilities x --collisions {args.collisions} is more than "
            f"{MAX_COLLISIONS} collision steps"
        )
    return args.p if args.p_grid is None else parse_grid(args.p_grid)


def _cmd_trajectory(args) -> tuple[dict, list[str], list[tuple], list[str]]:
    if args.p is None or len(args.p) != 1:
        raise ConfigError("this command needs exactly one --p value")
    p = args.p[0]
    if not 1 <= args.ancillas <= 3:
        raise ConfigError(f"--ancillas must be 1..3, got {args.ancillas}")
    tol = _backflow_tol(args)
    ancilla = _ancilla(args)
    window = slice(*(_window_or_none(args) or (0, None)))
    if args.ancillas == 1:
        if args.seed is not None or args.restrict_system_ancilla:
            raise ConfigError("--seed and --restrict-system-ancilla need --ancillas 2 or 3")
        seed = None
        schedule = repeated_schedule(2, (0, 1), args.collisions)
    else:
        seed = args.seed if args.seed is not None else random.SystemRandom().getrandbits(63)
        if seed < 0:
            raise ConfigError(f"--seed must be >= 0, got {seed}")
        schedule = random_schedule(1 + args.ancillas, args.collisions, seed,
                                   system_ancilla_only=args.restrict_system_ancilla)
    traj = run_trajectory(
        (SUPERPOSITION_PLUS, SUPERPOSITION_MINUS),
        [ancilla] * args.ancillas, p, schedule,
    )
    header = {
        "command": "trajectory",
        "scenario": "single" if args.ancillas == 1 else "multi",
        "p": p,
        "w_g": args.wg,
        "n_ancillas": args.ancillas,
        "n_collisions": args.collisions,
        "seed": seed,
        "window": args.window,
        "restrict_system_ancilla": bool(args.restrict_system_ancilla),
        "format": args.format,
        "backflow_tol": tol,
    }
    if args.ancillas > 1:
        labels = [f"{i}-{j}" for i, j in schedule.pairs]
        header["schedule"] = " ".join(map(labels.__getitem__, schedule.index.tolist()))
    columns = {name: column.tolist() for name, column in traj.columns.items()}
    block = (range(args.collisions + 1)[window], *(cells[window] for cells in columns.values()))
    report = backflow_events(columns["trace_distance"], tol=tol)
    footer = [
        f"backflow_events = {len(report.events)}, total_backflow = "
        f"{_fmt(report.total_backflow)}, max_distance = {_fmt(report.max_distance)} "
        f"(backflow_tol = {_fmt(tol)})"
    ]
    return header, ["n", "coherence_A", *list(traj.columns)[1:]], [block], footer


def _cmd_orbit(args) -> tuple[dict, list[str], list[tuple], list[str]]:
    grid = _grid_or_ps(args)
    if args.p_grid is None and (grid is None or len(grid) != 1):
        raise ConfigError("orbit needs --p-grid or a single --p")
    if args.ancillas != 1:
        raise ConfigError(f"orbit has one ancilla; --ancillas must be 1, got {args.ancillas}")
    diagram = orbit_sweep(grid, args.collisions, _window_or_none(args), ancilla=_ancilla(args))
    header = {
        "command": "orbit",
        "scenario": "orbit",
        "w_g": args.wg,
        "n_collisions": args.collisions,
        "window": f"{diagram.window[0]}:{diagram.window[1]}",
        "format": args.format,
    }
    if args.p_grid is not None:
        header["p_grid"] = args.p_grid
    else:
        header["p"] = grid[0]
    return header, ["p", "value"], list(zip(diagram.p_grid, diagram.values)), []


def _cmd_markovian(args) -> tuple[dict, list[str], list[tuple], list[str]]:
    ps = _grid_or_ps(args)
    if not ps:
        raise ConfigError("markovian needs one or more --p values or --p-grid")
    ps = sorted(ps)
    tol = _backflow_tol(args)
    ancilla = _ancilla(args)
    window = slice(*(_window_or_none(args) or (0, None)))
    blocks = []
    footer = []
    for p in ps:
        traj = markovian_trajectory(
            (SUPERPOSITION_PLUS, SUPERPOSITION_MINUS), p, ancilla, args.collisions,
        )
        columns = {name: column.tolist() for name, column in traj.columns.items()}
        blocks.append((range(args.collisions + 1)[window], p,
                       *(cells[window] for cells in columns.values())))
        report = backflow_events(columns["trace_distance"], tol=tol)
        footer.append(
            f"monotone_nonincreasing p = {_fmt(p)}: {_fmt(not report.events)} "
            f"(backflow_events = {len(report.events)}, backflow_tol = {_fmt(tol)})"
        )
    header = {
        "command": "markovian",
        "scenario": "markovian",
        "p": ",".join(_fmt(p) for p in ps),
        "w_g": args.wg,
        "n_collisions": args.collisions,
        "window": args.window,
        "format": args.format,
        "backflow_tol": tol,
    }
    return header, ["n", "p", "trace_distance", "coherence"], blocks, footer


def _csv_block(block: tuple) -> str:
    """The CSV rows of one block, formatted by one '%' call."""
    template = ",".join(
        "%d" if isinstance(cell, range) else _fmt(cell) if isinstance(cell, _CONSTANT)
        else "%.17g" for cell in block
    ) + "\n"
    series = [cell for cell in block if not isinstance(cell, _CONSTANT)]
    return template * len(series[0]) % tuple(chain.from_iterable(zip(*series)))


def render_csv(header: dict, columns: list[str], blocks: list[tuple], footer: list[str]) -> str:
    lines = [f"# {key} = {_fmt(value)}\n" for key, value in header.items()]
    lines.append(",".join(columns) + "\n")
    lines.extend(map(_csv_block, blocks))
    lines.extend(f"# {text}\n" for text in footer)
    return "".join(lines)


def _json_block(columns: list[str], block: tuple) -> str:
    """The JSON rows of one block, each ending in a comma and a newline, from one '%' call."""
    fields = ",\n".join(
        f"      {json.dumps(key)}: ".replace("%", "%%")
        + (json.dumps(cell) if isinstance(cell, _CONSTANT) else "%s")
        for key, cell in zip(columns, block)
    )
    # Each value of a column as json.dumps writes it, from one encoder call per column.
    series = [json.dumps(list(cell))[1:-1].split(", ") if len(cell) else []
              for cell in block if not isinstance(cell, _CONSTANT)]
    return f"    {{\n{fields}\n    }},\n" * len(series[0]) % tuple(chain.from_iterable(zip(*series)))


def render_json(header: dict, columns: list[str], blocks: list[tuple], footer: list[str]) -> str:
    """``json.dumps(doc, indent=2)`` of the config, one object per row and the notes,
    with the rows formatted a block at a time."""
    doc = {"config": dict(header), "rows": []}
    if footer:
        doc["notes"] = footer
    text = json.dumps(doc, indent=2)
    rows = "".join(_json_block(columns, block) for block in blocks)[:-2]
    if rows:
        text = text.replace('\n  "rows": []', f'\n  "rows": [\n{rows}\n  ]', 1)
    return text + "\n"


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if not 1 <= args.collisions <= MAX_COLLISIONS:
            raise ConfigError(f"--collisions must be 1..{MAX_COLLISIONS}, got {args.collisions}")
        header, columns, blocks, footer = args.run(args)
    except InvariantViolationError as exc:
        print(f"qcollide: numerical invariant violated: {exc}", file=sys.stderr)
        return 4
    except (ConfigError, ValueError) as exc:
        print(f"qcollide: {exc}", file=sys.stderr)
        return 2
    render = render_csv if args.format == "csv" else render_json
    text = render(header, columns, blocks, footer)
    try:
        if args.out is None:
            sys.stdout.write(text)
        else:
            with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
    except OSError as exc:
        print(f"qcollide: cannot write output: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
