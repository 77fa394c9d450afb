"""Seeded inputs and job lists for the benchmark workloads.

Each workload is a fixed batch of ``mcchannel`` CLI jobs.  The inputs the
program reads are either committed scenarios or YAML written here from a
seed: the same seed gives byte-identical files.

Why each workload exists:

* ``cli-batch``: analyze, design and sweep (60 points, the scenario
  default) on three seeded scenarios plus ``table`` on the committed
  species survey.  Every job is short, so interpreter start, import,
  config loading and artifact writing dominate while the kernels idle.
* ``simulate-both``: ``simulate --route both`` on the committed baseline
  and two seeded scenarios.  Bound by the Fourier synthesis and the FDM
  solve.  The seeded omega2/omega1 ratios are non-integer and drawn from
  two narrow strata inside 500-800, so the kernels' cost (which grows with
  the ratio alone) is nearly the same for every seed while the physics
  changes; the baseline's ratio is the integer 800.
* ``grid-survey``: ``sweep --points 400`` on the baseline and ``table`` on
  seeded 500- and 1000-row surveys.  Holds the two Python loops over
  scalar closed forms, heavy CSV writing and large YAML loads.  The larger
  survey's job sits between the other two in cost, so the median job is
  that one rather than the midpoint between a short and a long job.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("cli-batch", "simulate-both", "grid-survey")

CLI_BATCH_SCENARIOS = 3
SIMULATE_RATIO_STRATA = ((505.0, 515.0), (595.0, 605.0))
SURVEY_ROWS = (500, 1000)
SURVEY_RANGE_SHARE = 0.15       # rows that give a mu range and no x_r
GRID_SURVEY_SWEEP_POINTS = 400


@dataclass(frozen=True)
class Job:
    """One CLI invocation: ``mcchannel <command> --config <config> --out <dir>``."""

    id: str
    command: str
    config: Path
    args: tuple[str, ...] = ()

    def argv(self, out: Path) -> list[str]:
        return [self.command, "--config", str(self.config), "--out", str(out),
                *self.args]


def _num(x: float) -> str:
    # YAML 1.1 (PyYAML) reads a float only with a '.' and a signed exponent.
    return f"{x:.6e}"


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return lo * (hi / lo) ** rng.random()


def scenario_yaml(rng: random.Random, ratio: float) -> str:
    """A scenario drawn around the baseline, at unit DC gain, with the given
    omega2/omega1 ratio."""
    mu = _log_uniform(rng, 20.0, 500.0)
    k_r = _log_uniform(rng, 1e-3, 1e-2)
    r = 4.0
    omega1 = _log_uniform(rng, 2e-4, 1e-3)
    # Put the receiver on a node of the default FDM mesh, whose step is
    # sqrt(2 mu / omega2) / 8.  Otherwise the mesh is refined until x_r
    # falls on a node, and the solve's cost would depend on the seed
    # through that rounding rather than through omega2/omega1.
    dx = math.sqrt(2.0 * mu / (omega1 * ratio)) / 8.0
    x_r = dx * max(1, round(rng.uniform(5.0, 30.0) / dx))
    factor = rng.uniform(1.1, 1.5)
    amplitude = 0.1
    return "\n".join([
        "# Generated benchmark scenario.",
        "channel:",
        f"  mu: {_num(mu)}",
        f"  x_r: {_num(x_r)}",
        "reception:",
        f"  k_f: {_num(k_r / r)}",
        f"  k_r: {_num(k_r)}",
        f"  r: {_num(r)}",
        "band:",
        f"  omega1: {_num(omega1)}",
        f"  omega2: {_num(omega1 * ratio)}",
        "thresholds:",
        f"  q_factor: {_num(factor)}",
        f"  r_factor: {_num(factor)}",
        "simulation:",
        f"  amplitude: {_num(amplitude)}",
        f"  threshold: {_num(rng.uniform(0.3, 0.6) * amplitude)}",
        "  n_periods: 3",
        "",
    ])


def survey_yaml(rng: random.Random, rows: int) -> str:
    """A clean-band survey with the baseline reception stage."""
    range_rows = round(rows * SURVEY_RANGE_SHARE)
    kinds = [True] * range_rows + [False] * (rows - range_rows)
    rng.shuffle(kinds)
    lines = [
        "# Generated benchmark survey.",
        "reception:",
        f"  k_f: {_num(1e-3)}",
        f"  k_r: {_num(4e-3)}",
        f"  r: {_num(4.0)}",
        f"decade_width: {_num(10.0)}",
        f"q_fraction: {_num(0.1)}",
        f"r_fraction: {_num(0.1)}",
        "species:",
    ]
    for i, is_range in enumerate(kinds):
        lines.append(f"  - name: s{i:03d}")
        if is_range:
            lo = _log_uniform(rng, 0.1, 300.0)
            hi = lo * 10.0 ** rng.uniform(0.1, 1.0)
            lines.append(f"    mu: [{_num(lo)}, {_num(hi)}]")
        else:
            lines.append(f"    mu: {_num(_log_uniform(rng, 0.1, 3000.0))}")
            lines.append(f"    x_r: {_num(_log_uniform(rng, 0.01, 100.0))}")
    lines.append("")
    return "\n".join(lines)


def build(workload: str, seed: int, root: Path, inputs: Path) -> list[Job]:
    """Write the workload's seeded inputs into ``inputs`` and return its jobs."""
    rng = random.Random(f"{workload}:{seed}")
    inputs.mkdir(parents=True, exist_ok=True)
    baseline = root / "scenarios" / "baseline.yaml"

    def write(name: str, text: str) -> Path:
        path = inputs / name
        path.write_text(text)
        return path

    if workload == "cli-batch":
        jobs = []
        for i in range(CLI_BATCH_SCENARIOS):
            cfg = write(f"scenario{i}.yaml",
                        scenario_yaml(rng, _log_uniform(rng, 50.0, 800.0)))
            jobs += [Job(f"{cmd}-s{i}", cmd, cfg)
                     for cmd in ("analyze", "design", "sweep")]
        jobs.append(Job("table-species", "table",
                        root / "scenarios" / "species.yaml"))
        return jobs
    if workload == "simulate-both":
        jobs = [Job("simulate-baseline", "simulate", baseline,
                    ("--route", "both"))]
        for i, (lo, hi) in enumerate(SIMULATE_RATIO_STRATA):
            cfg = write(f"simulate{i}.yaml",
                        scenario_yaml(rng, rng.uniform(lo, hi)))
            jobs.append(Job(f"simulate-s{i}", "simulate", cfg,
                            ("--route", "both")))
        return jobs
    if workload == "grid-survey":
        jobs = [Job("sweep-baseline", "sweep", baseline,
                    ("--points", str(GRID_SURVEY_SWEEP_POINTS)))]
        for rows in SURVEY_ROWS:
            survey = write(f"survey{rows}.yaml", survey_yaml(rng, rows))
            jobs.append(Job(f"table-survey{rows}", "table", survey))
        return jobs
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
