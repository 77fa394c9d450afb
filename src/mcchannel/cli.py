"""Command-line front end.

Five batch subcommands, each reading one YAML scenario/survey file and
writing CSV/JSON results into an output directory:

* analyze   distortion report plus gain/phase-delay curves for the
            diffusion stage, the reception stage, and their cascade
* design    distance bound meeting the configured distortion budgets
* sweep     normalized-index maps on an (omega1', omega2') log grid
* simulate  time-domain traces (frequency and/or direct route) with
            activation timings
* table     highest-clean-band survey over a list of species rows

Exit codes: 0 success (including a structurally infeasible design),
2 configuration error, 3 numerical failure.  Outputs embed the resolved
parameter set; reruns are byte-identical except for the generated_at
timestamp in JSON metadata.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import ExitStack
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .config import (
    ConfigError,
    Scenario,
    check_sweep_points,
    load_scenario,
    load_table,
)
from .design import (
    DesignSpec,
    distance_bound,
    highest_clean_band,
)
from .distortion import (
    DistortionReport,
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
    DiffusionChannel,
    ParameterError,
    cascade_gain_db,
    cascade_phase_delay,
    diffusion_gain_db,
    diffusion_phase_delay,
    reception_gain_db,
    reception_phase_delay,
)
from .timedomain import (
    activation_time,
    simulate_fdm,
    synthesize_fourier,
    write_trace_csv,
)


def _fmt(x: float) -> str:
    return f"{x:.9g}"


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


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_analyze(args) -> int:
    scenario = load_scenario(args.config)
    out = _out_dir(args)
    ch, rs, band = scenario.channel, scenario.reception, scenario.band
    report = channel_report(ch, rs, band)
    nb = normalize(ch, rs, band)

    _write_json(out / "report.json", {
        "metadata": _metadata(scenario.parameters),
        "band": {"omega1": band.omega1, "omega2": band.omega2},
        "indices": {"q_g": report.q_g, "r_g": report.r_g,
                    "q_h": report.q_h, "r_h": report.r_h,
                    "q_m": report.q_m, "r_m": report.r_m},
        "normalized": {"omega1p": nb.omega1p, "omega2p": nb.omega2p,
                       "lam": nb.lam},
    })

    grid = log_grid(band, args.points)
    columns = (
        diffusion_gain_db(ch, grid), reception_gain_db(rs, grid),
        cascade_gain_db(ch, rs, grid),
        diffusion_phase_delay(ch, grid), reception_phase_delay(rs, grid),
        cascade_phase_delay(ch, rs, grid),
    )
    with open(out / "curves.csv", "w", newline="") as fh:
        _csv_header(fh, scenario.parameters)
        fh.write("omega_rad_per_s,gain_g_db,gain_h_db,gain_m_db,"
                 "delay_g_s,delay_h_s,delay_m_s\n")
        for i, w in enumerate(grid):
            fh.write(",".join(_fmt(col[i]) for col in (grid, *columns)) + "\n")
    return 0


def _resolved_budgets(scenario: Scenario,
                      report: DistortionReport) -> tuple[float, float]:
    if scenario.q0 is not None:
        return scenario.q0, scenario.r0
    if scenario.q_factor is not None:
        return scenario.q_factor * report.q_h, scenario.r_factor * report.r_h
    raise ConfigError("design requires a thresholds section "
                      "(q0/r0 or q_factor/r_factor)")


def cmd_design(args) -> int:
    scenario = load_scenario(args.config)
    out = _out_dir(args)
    report = channel_report(scenario.channel, scenario.reception, scenario.band)
    q0, r0 = _resolved_budgets(scenario, report)
    spec = DesignSpec(q0=q0, r0=r0, band=scenario.band, mu=scenario.channel.mu,
                      rs=scenario.reception)
    result = distance_bound(spec)
    _write_json(out / "design.json", {
        "metadata": _metadata(scenario.parameters),
        "budgets": {"q0": q0, "r0": r0},
        "reception_indices": {"q_h": report.q_h, "r_h": report.r_h},
        "result": {"x_q": result.x_q, "x_r_delay": result.x_r_delay,
                   "x_r_limit": result.x_r_limit, "feasible": result.feasible},
    })
    return 0


def cmd_sweep(args) -> int:
    scenario = load_scenario(args.config)
    sw = scenario.sweep
    points = (sw.points if args.points is None
              else check_sweep_points(args.points, "--points"))
    out = _out_dir(args)
    lam = normalize(scenario.channel, scenario.reception, scenario.band).lam
    grid = np.logspace(np.log10(sw.omega_min), np.log10(sw.omega_max), points)
    grid[0], grid[-1] = sw.omega_min, sw.omega_max

    surfaces = {
        "q_g": diffusion_amplitude_distortion_normalized,
        "r_g": diffusion_delay_distortion_normalized,
        "q_h": reception_amplitude_distortion_normalized,
        "r_h": reception_delay_distortion_normalized,
    }
    # Rows are evaluated and written one at a time, to all four files at
    # once, so memory stays at one row of cells per surface.
    with ExitStack() as stack:
        files = [stack.enter_context(open(out / f"{name}.csv", "w", newline=""))
                 for name in surfaces]
        header = "omega1p," + ",".join(_fmt(w2) for w2 in grid) + "\n"
        for fh in files:
            _csv_header(fh, scenario.parameters)
            fh.write(header)
        for w1 in grid:
            # Cells with w1 >= w2 stay blank.  Select them by value: on a
            # grid a few ulps wide, neighbouring values can be equal.
            later = w1 < grid
            nb = NormalizedBand(w1, grid[later], lam)
            row = "%.9g," + ",".join(["%.9g" if cell else ""
                                      for cell in later.tolist()]) + "\n"
            for fh, fn in zip(files, surfaces.values()):
                fh.write(row % (w1, *fn(nb).tolist()))

    _write_json(out / "sweep.json", {
        "metadata": _metadata(scenario.parameters),
        "lam": lam,
        "grid": {"omega_min": sw.omega_min, "omega_max": sw.omega_max,
                 "points": points},
        "files": [f"{name}.csv" for name in surfaces],
    })
    return 0


def _timing_entry(trace, threshold: float | None) -> dict | None:
    if threshold is None:
        return None
    timing = activation_time(trace, threshold, pulse_index=0)
    return {
        "threshold": timing.threshold,
        "t_on": timing.t_on,
        "latency": timing.latency,
        "pulse_window": list(timing.pulse_window),
        "activated": timing.activated,
    }


def cmd_simulate(args) -> int:
    scenario = load_scenario(args.config)
    out = _out_dir(args)
    routes = ("fourier", "fdm") if args.route == "both" else (args.route,)
    wave = scenario.wave
    cfg = scenario.solver
    threshold = scenario.threshold
    reception_only = DiffusionChannel(mu=scenario.channel.mu, x_r=0.0)

    n_steps = int(round(cfg.duration / cfg.dt))
    t_grid = np.arange(n_steps + 1) * cfg.dt

    timings: dict = {}
    written: list[Path] = []
    try:
        for route in routes:
            for arm, ch in (("reception", reception_only),
                            ("channel", scenario.channel)):
                if route == "fourier":
                    trace = synthesize_fourier(ch, scenario.reception, wave,
                                               scenario.n_harmonics, t_grid)
                else:
                    trace = simulate_fdm(ch, scenario.reception, wave, cfg)
                path = out / f"trace_{arm}_{route}.csv"
                written.append(path)
                write_trace_csv(trace, path)
                timings[f"{arm}_{route}"] = _timing_entry(trace, threshold)
    except BaseException:
        # A failed run leaves no traces without the simulate.json that
        # describes them.
        for path in written:
            path.unlink(missing_ok=True)
        raise

    _write_json(out / "simulate.json", {
        "metadata": _metadata(scenario.parameters),
        "routes": list(routes),
        "files": [f"trace_{arm}_{route}.csv"
                  for route in routes for arm in ("reception", "channel")],
        "activation": timings,
    })
    return 0


def cmd_table(args) -> int:
    table = load_table(args.config)
    out = _out_dir(args)
    parameters = {
        "reception": {"k_f": table.reception.k_f, "k_r": table.reception.k_r,
                      "r": table.reception.r},
        "decade_width": table.decade_width,
        "q_fraction": table.q_fraction,
        "r_fraction": table.r_fraction,
        "species": [{"name": row.name, "mu_lo": row.mu_lo, "mu_hi": row.mu_hi,
                     "x_r": row.x_r} for row in table.species],
    }
    # One search for every row that has a distance; the rows without one
    # keep the no-distance status.
    banded = [row for row in table.species if row.x_r is not None]
    found = highest_clean_band(
        np.array([row.mu_lo for row in banded]),
        np.array([row.x_r for row in banded]), table.reception,
        decade_width=table.decade_width,
        q_fraction=table.q_fraction, r_fraction=table.r_fraction)
    bands = iter(zip(found.omega1.tolist(), found.omega2.tolist(),
                     found.status.tolist()))
    rows_out = []
    for row in table.species:
        entry = {"name": row.name, "mu_lo": row.mu_lo, "mu_hi": row.mu_hi,
                 "x_r": row.x_r, "omega1": None, "omega2": None,
                 "status": "no-distance"}
        if row.x_r is not None:
            omega1, omega2, status = next(bands)
            entry["status"] = status
            if status != "infeasible":
                entry.update(omega1=omega1, omega2=omega2)
        rows_out.append(entry)

    with open(out / "table.csv", "w", newline="") as fh:
        _csv_header(fh, parameters)
        fh.write("name,mu_lo_um2_per_s,mu_hi_um2_per_s,x_r_um,"
                 "omega1_rad_per_s,omega2_rad_per_s,status\n")
        for entry in rows_out:
            cells = [entry["name"], _fmt(entry["mu_lo"]), _fmt(entry["mu_hi"]),
                     "" if entry["x_r"] is None else _fmt(entry["x_r"]),
                     "" if entry["omega1"] is None else _fmt(entry["omega1"]),
                     "" if entry["omega2"] is None else _fmt(entry["omega2"]),
                     entry["status"]]
            fh.write(",".join(cells) + "\n")

    _write_json(out / "table.json", {
        "metadata": _metadata(parameters),
        "rows": rows_out,
    })
    return 0


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


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ParameterError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (FloatingPointError, np.linalg.LinAlgError, RuntimeError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
