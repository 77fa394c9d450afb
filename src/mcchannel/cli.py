"""Command-line front end.

Five batch subcommands, each reading one YAML scenario/survey file and
writing CSV/JSON results into an output directory:

* analyze   distortion report plus gain/phase-delay curves for the
            diffusion stage, the reception stage, and their sum
* design    distance bound meeting the configured distortion budgets
* sweep     normalized-index maps on an (omega1', omega2') log grid
* simulate  time-domain traces (frequency and/or direct route) with
            activation timings
* table     highest-clean-band survey over a list of species rows

Exit codes: 0 success (including a structurally infeasible design),
2 configuration error, 3 numerical failure; a failed run leaves no files.
Outputs embed the resolved parameter set.  With one numpy build, reruns
are byte-identical except for the generated_at timestamp in JSON
metadata, whatever the BLAS thread count.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from contextlib import ExitStack, contextmanager, suppress
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .config import (
    MAX_CURVE_POINTS,
    MAX_SWEEP_POINTS,
    ConfigError,
    _parameter_errors,
    check_points,
    check_solve_sizes,
    load_scenario,
    load_table,
)
from .design import (
    distance_bound,
    highest_clean_band,
)
from .distortion import (
    NormalizedBand,
    channel_report,
    diffusion_amplitude_distortion_normalized,
    diffusion_delay_distortion_normalized,
    log_grid,
    normalize,
    reception_amplitude_distortion_normalized,
    reception_delay_distortion_normalized,
)
from .systems import (
    FrequencyBand,
    diffusion_gain_db,
    diffusion_phase_delay,
    reception_gain_db,
    reception_phase_delay,
)
from .timedomain import (
    SimulationTrace,
    activation_time,
    simulate_fdm,
    synthesize_fourier,
)


def _fmt(x: float) -> str:
    return f"{x:.9g}"


def _csv_field(text: str) -> str:
    """text as a CSV field, quoted as RFC 4180 says if it needs quotes."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _metadata(parameters: dict) -> dict:
    return {
        "tool": "mcchannel",
        "version": __version__,
        "generated_at": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "parameters": parameters,
    }


def _write_json(path: Path, payload: dict) -> None:
    # One write: json.dump would call write once per encoder chunk.
    with open(path, "w") as fh:
        fh.write(json.dumps(payload, indent=2) + "\n")


def _csv_header(fh, parameters: dict) -> None:
    fh.write(f"# tool: mcchannel {__version__}\n")
    fh.write("# parameters: "
             + json.dumps(parameters, separators=(",", ":")) + "\n")


# Rows formatted per write: bounds the text held at once.
_CSV_CHUNK = 4096

# A column whose runs of bit-equal values average at least this many rows
# is written as text once per run instead of formatted on every row.
_MIN_RUN = 64


def _lead_text(column) -> list[str]:
    """Each cell of column as '%.9g,' text: a leading CSV column, formatted
    once and passed to _write_rows for every file that starts with it."""
    text = []
    for lo in range(0, len(column), _CSV_CHUNK):
        block = column[lo:lo + _CSV_CHUNK].tolist()
        text += (("%.9g,\n" * len(block)) % tuple(block)).splitlines()
    return text


def _write_rows(fh, columns, lead=()) -> None:
    """Write equal-length float columns as CSV rows of %.9g cells, each row
    after its text in lead, if given (see _lead_text).

    Doubles are compared by their bits, so -0.0 and 0.0 differ, and the
    file is byte for byte the one that formatting every cell gives.  When
    every column repeats at a lag m (a tiled periodic trace), only the
    first m rows are formatted and their text is reused; otherwise rows
    are formatted _CSV_CHUNK at a time.  Either way at most that period
    and one chunk of text are held.
    """
    n = len(columns[0])
    bits = [column.view(np.int64) for column in columns]
    m = _lag(bits)
    if m is None:
        fh.writelines(_row_chunks(columns, bits, lead))
        return
    period = []
    for text in _row_chunks([c[:m] for c in columns], [b[:m] for b in bits]):
        period += text.splitlines(keepends=True)
    for lo in range(0, n, _CSV_CHUNK):
        hi = min(lo + _CSV_CHUNK, n)
        rows = period[lo % m:lo % m + hi - lo]
        while len(rows) < hi - lo:
            rows += period[:hi - lo - len(rows)]
        fh.write("".join(_after(lead[lo:hi], rows)))


def _lag(bits) -> int | None:
    """The lag m at which every column repeats bit for bit, if the first
    later row that equals row 0 in every column gives one."""
    same = np.ones(max(len(bits[0]) - 1, 0), dtype=bool)
    for column in bits:
        same &= column[1:] == column[:1]
    hits = np.flatnonzero(same)
    if hits.size == 0:
        return None
    m = int(hits[0]) + 1
    return m if all(np.array_equal(column[m:], column[:-m])
                    for column in bits) else None


def _after(lead, rows: list) -> list:
    """Each of rows after its item of lead; rows alone if lead is empty."""
    if not lead:
        return rows
    pieces = [None] * (2 * len(rows))
    pieces[::2], pieces[1::2] = lead, rows
    return pieces


def _row_chunks(columns, bits, lead=()):
    """The text of each chunk of _CSV_CHUNK rows, each row after its lead.

    A column that holds the same value over long runs (the input of a
    square wave, the received column of the direct route's reception
    arm) is formatted once per run and put into the chunk's %-template as
    text, as is the lead, so % formats only the other columns.
    """
    n = len(columns[0])
    starts = np.zeros(max(n - 1, 0), dtype=bool)
    constant = []
    for column in bits:
        changed = column[1:] != column[:-1]
        constant.append((1 + np.count_nonzero(changed)) * _MIN_RUN <= n)
        if constant[-1]:
            starts |= changed
    run_starts = np.flatnonzero(starts) + 1
    varying = [c for c, fixed in zip(columns, constant) if not fixed]
    for lo in range(0, n, _CSV_CHUNK):
        hi = min(lo + _CSV_CHUNK, n)
        inner = run_starts[(run_starts > lo) & (run_starts < hi)]
        edges = [lo, *inner.tolist(), hi]
        templates = []
        for a, b in zip(edges, edges[1:]):
            templates += [_row_template(columns, a, constant)] * (b - a)
        block = [c[lo:hi] for c in varying]
        cells = np.column_stack(block).ravel().tolist() if block else []
        yield "".join(_after(lead[lo:hi], templates)) % tuple(cells)


def _row_template(columns, row: int, constant: list) -> str:
    """One CSV line: the text of row's constant cells, %.9g for the rest."""
    return ",".join("%.9g" % float(c[row]) if fixed else "%.9g"
                    for c, fixed in zip(columns, constant)) + "\n"


def write_trace_csv(trace: SimulationTrace, path, time_text=None) -> None:
    """Write the trace as CSV with columns t_s, v_uM, u_xr_uM, c_uM.

    time_text, if given, is _lead_text(trace.times), formatted once for
    every trace on the same grid."""
    with open(path, "w", newline="") as fh:
        fh.write(f"# route: {trace.route}\n")
        fh.write("t_s,v_uM,u_xr_uM,c_uM\n")
        _write_rows(fh, (trace.input, trace.received, trace.complex_conc),
                    time_text or _lead_text(trace.times))


def cmd_analyze(args, out: Path) -> None:
    points = check_points(args.points, "--points", MAX_CURVE_POINTS)
    scenario = load_scenario(args.config)
    ch, rs, band = scenario.channel, scenario.reception, scenario.band
    report = channel_report(ch, rs, band)
    nb = normalize(ch, rs, band)
    grid = log_grid(band, points)
    # x_r^2 w / (2 mu) can overflow where lam and w' do not.  The
    # channel's columns are the stage sums (see systems).
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        gain_g = diffusion_gain_db(ch, grid)
        gain_h = reception_gain_db(rs, grid)
        delay_g = diffusion_phase_delay(ch, grid)
        delay_h = reception_phase_delay(rs, grid)
        columns = (grid, gain_g, gain_h, gain_g + gain_h,
                   delay_g, delay_h, delay_g + delay_h)
    if not all(np.isfinite(column).all() for column in columns):
        raise FloatingPointError("the response curves leave the float range "
                                 "on the band")
    _write_json(out / "report.json", {
        "metadata": _metadata(scenario.parameters),
        "band": {"omega1": band.omega1, "omega2": band.omega2},
        "indices": {"q_g": report.q_g, "r_g": report.r_g,
                    "q_h": report.q_h, "r_h": report.r_h,
                    "q_m": report.q_m, "r_m": report.r_m},
        "normalized": {"omega1p": nb.omega1p, "omega2p": nb.omega2p,
                       "lam": nb.lam},
    })
    with open(out / "curves.csv", "w", newline="") as fh:
        _csv_header(fh, scenario.parameters)
        fh.write("omega_rad_per_s,gain_g_db,gain_h_db,gain_m_db,"
                 "delay_g_s,delay_h_s,delay_m_s\n")
        _write_rows(fh, columns)


def cmd_design(args, out: Path) -> None:
    scenario = load_scenario(args.config)
    if scenario.q0 is None:
        raise ConfigError(f"{args.config}: design requires a thresholds "
                          "section (q0/r0 or q_factor/r_factor)")
    result = distance_bound(scenario.q0, scenario.r0, scenario.band,
                            scenario.channel.mu, scenario.reception)
    _write_json(out / "design.json", {
        "metadata": _metadata(scenario.parameters),
        "budgets": {"q0": scenario.q0, "r0": scenario.r0},
        # The reception share alone: design.json holds no diffusion index.
        "reception_indices": {"q_h": result.q_h, "r_h": result.r_h},
        "result": {"x_q": result.x_q, "x_r_delay": result.x_r_delay,
                   "x_r_limit": result.x_r_limit, "feasible": result.feasible},
    })


# Cells per sweep block, in whole rows: 0.5 MB of each surface.
_SWEEP_BLOCK_CELLS = 2**16


def _sweep_blocks(grid: np.ndarray, lam: float, surfaces):
    """Per block of rows: w1, the cells where w1 < w2 (by value: a grid a
    few ulps wide repeats values), and each surface, checked finite, by row."""
    rows_per_block = max(1, _SWEEP_BLOCK_CELLS // grid.size)
    for lo in range(0, grid.size, rows_per_block):
        w1 = grid[lo:lo + rows_per_block]
        later = w1[:, None] < grid
        rows, cols = np.nonzero(later)
        nb = NormalizedBand(w1[rows], grid[cols], lam)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            values = [fn(nb) for fn in surfaces]
        if not all(np.isfinite(v).all() for v in values):
            raise FloatingPointError("a sweep surface leaves the float range "
                                     "on the grid")
        yield w1.tolist(), later.tolist(), values


def cmd_sweep(args, out: Path) -> None:
    scenario = load_scenario(args.config)
    points = (scenario.sweep["points"] if args.points is None
              else check_points(args.points, "--points", MAX_SWEEP_POINTS))
    # Every artifact echoes the grid size used, not the file's.
    sweep = {**scenario.sweep, "points": points}
    parameters = {**scenario.parameters, "sweep": sweep}
    lam = normalize(scenario.channel, scenario.reception, scenario.band).lam
    grid = log_grid(FrequencyBand(sweep["omega_min"], sweep["omega_max"]),
                    points)

    surfaces = {
        "q_g": diffusion_amplitude_distortion_normalized,
        "r_g": diffusion_delay_distortion_normalized,
        "q_h": reception_amplitude_distortion_normalized,
        "r_h": reception_delay_distortion_normalized,
    }
    with ExitStack() as stack:
        files = [stack.enter_context(open(out / f"{name}.csv", "w", newline=""))
                 for name in surfaces]
        header = "omega1p," + ",".join(_fmt(w2) for w2 in grid) + "\n"
        for fh in files:
            _csv_header(fh, parameters)
            fh.write(header)
        for w1, later, values in _sweep_blocks(grid, lam, surfaces.values()):
            # w1 heads each row; cells with w1 >= w2 stay blank.
            template = "".join(_fmt(w) + "," + ",".join(
                ["%.9g" if cell else "" for cell in row]) + "\n"
                for w, row in zip(w1, later))
            for fh, cells in zip(files, values):
                fh.write(template % tuple(cells.tolist()))

    _write_json(out / "sweep.json", {
        "metadata": _metadata(parameters),
        "lam": lam,
        "grid": sweep,
        "files": [f"{name}.csv" for name in surfaces],
    })


def _timing_entry(trace, threshold: float | None) -> dict | None:
    if threshold is None:
        return None
    t_on = activation_time(trace, threshold)
    window = trace.wave.pulse_window
    return {"threshold": threshold, "t_on": t_on,
            "latency": None if t_on is None else t_on - window[0],
            "pulse_window": list(window), "activated": t_on is not None}


def cmd_simulate(args, out: Path) -> None:
    scenario = load_scenario(args.config)
    routes = ("fourier", "fdm") if args.route == "both" else (args.route,)
    check_solve_sizes(scenario, routes, args.config)
    ch, rs, wave = scenario.channel, scenario.reception, scenario.wave
    timings = dict.fromkeys(f"{arm}_{route}" for route in routes
                            for arm in ("reception", "channel"))

    # FDM first: its grid, which can be refused, is checked before any solve,
    # and the job peaks lower (baseline: 40 MiB, 44 with Fourier first).
    # Every trace samples one grid, whose t_s text is formatted once, after
    # the first solve.
    time_text = None
    for route in reversed(routes):
        arms = (synthesize_fourier(ch, rs, wave, scenario.n_harmonics,
                                   scenario.solver.time_grid)
                if route == "fourier" else
                simulate_fdm(ch, rs, wave, scenario.solver))
        time_text = time_text or _lead_text(arms[0].times)
        for arm, trace in zip(("reception", "channel"), arms):
            write_trace_csv(trace, out / f"trace_{arm}_{route}.csv", time_text)
            timings[f"{arm}_{route}"] = _timing_entry(trace, scenario.threshold)
        del arms, trace     # before the next route's solve

    _write_json(out / "simulate.json", {
        "metadata": _metadata(scenario.parameters),
        "routes": list(routes),
        "files": [f"trace_{name}.csv" for name in timings],
        "activation": timings,
    })


def cmd_table(args, out: Path) -> None:
    table = load_table(args.config)
    # One search for every row that has a distance; the rows without one
    # keep the no-distance status.
    banded = [row for row in table.species if row["x_r"] is not None]
    found = highest_clean_band(
        np.array([row["mu_lo"] for row in banded]),
        np.array([row["x_r"] for row in banded]), table.reception,
        decade_width=table.decade_width,
        q_fraction=table.q_fraction, r_fraction=table.r_fraction)
    bands = iter(zip(found.omega1.tolist(), found.omega2.tolist(),
                     found.status.tolist()))
    rows_out = []
    for row in table.species:
        entry = {**row, "omega1": None, "omega2": None, "status": "no-distance"}
        if row["x_r"] is not None:
            omega1, omega2, status = next(bands)
            entry["status"] = status
            if status != "infeasible":
                entry.update(omega1=omega1, omega2=omega2)
        rows_out.append(entry)

    with open(out / "table.csv", "w", newline="") as fh:
        _csv_header(fh, table.parameters)
        fh.write("name,mu_lo_um2_per_s,mu_hi_um2_per_s,x_r_um,"
                 "omega1_rad_per_s,omega2_rad_per_s,status\n")
        for entry in rows_out:
            cells = [_csv_field(entry["name"]), _fmt(entry["mu_lo"]),
                     _fmt(entry["mu_hi"]),
                     "" if entry["x_r"] is None else _fmt(entry["x_r"]),
                     "" if entry["omega1"] is None else _fmt(entry["omega1"]),
                     "" if entry["omega2"] is None else _fmt(entry["omega2"]),
                     entry["status"]]
            fh.write(",".join(cells) + "\n")

    _write_json(out / "table.json", {
        "metadata": _metadata(table.parameters),
        "rows": rows_out,
    })


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mcchannel",
        description="Distortion analysis and design of diffusive "
                    "molecular communication channels.")
    parser.add_argument("--version", action="version",
                        version=f"mcchannel {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, route=False, points=False,
            default_points=None):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="scenario YAML file")
        p.add_argument("--out", required=True, help="output directory")
        if route:
            p.add_argument("--route", choices=("fourier", "fdm", "both"),
                           default="both", help="time-domain solver route(s)")
        if points:
            p.add_argument("--points", type=int, default=default_points,
                           help=f"number of grid points (default: "
                                f"{default_points or 'the scenario sweep.points'})")
        p.set_defaults(func=func)

    add("analyze", cmd_analyze,
        "distortion indices and response curves over the band",
        points=True, default_points=512)
    add("design", cmd_design,
        "distance bound for the configured distortion budgets")
    add("sweep", cmd_sweep,
        "normalized-index maps over an (omega1', omega2') grid", points=True)
    add("simulate", cmd_simulate,
        "time-domain traces and activation timings", route=True)
    add("table", cmd_table, "highest-clean-band survey over species rows")
    return parser


@contextmanager
def _out_errors(out: str):
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"--out {out}: {exc.strerror or exc}") from None


@contextmanager
def _staging(out: str):
    """A fresh directory on out's filesystem whose files reach out only if
    the block returns.  A new out is staged beside itself and renamed into
    place whole.  An existing one keeps its other files: the staged ones
    replace their namesakes from a hidden directory inside it.  The name
    is unique, so a stray from a killed run is never published."""
    target = Path(out).resolve()
    lineage = (target, *target.parents)
    found = next(path for path in lineage if path.exists())
    if not found.is_dir():
        raise ConfigError(f"--out {out}: {found} is not a directory")
    fresh = found != target
    tag = f"staging-{os.getpid()}-{os.urandom(4).hex()}"
    stage = (target.with_name(f".{target.name}.{tag}") if fresh
             else target / f".mcchannel-{tag}")
    try:
        with _out_errors(out):
            stage.mkdir(parents=True)
        yield stage
        with _out_errors(out):
            staged = [] if fresh else list(stage.iterdir())
            in_way = [path.name for path in staged
                      if (target / path.name).is_dir()]
            if in_way:     # refused before any file moves
                raise ConfigError(f"--out {out}: {in_way[0]} is a directory")
            for path in staged:
                path.replace(target / path.name)
            if fresh:
                stage.rename(target)
    finally:
        # Best effort, so as not to hide the error on its way out.  After
        # a rename stage is gone, and each parent made for out holds it.
        with suppress(OSError):
            for path in stage.iterdir():
                path.unlink()
            stage.rmdir()
        for path in lineage[1:lineage.index(found)]:    # deepest first
            with suppress(OSError):
                path.rmdir()


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with _staging(args.out) as stage, _parameter_errors(args.config):
            args.func(args, stage)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (FloatingPointError, RuntimeError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


def run() -> int:
    """Entry point of `python -m mcchannel.cli` and the mcchannel script.

    Everything alive once the imports are done (numpy, yaml, this
    package: about 22,000 objects the collector tracks) lives until the
    process ends.  Freezing it keeps every collection, including the ones
    at interpreter exit, from walking those objects again; that saves
    8-12 ms per full collection.  main() called in-process leaves the
    collector of its host alone.
    """
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(run())
