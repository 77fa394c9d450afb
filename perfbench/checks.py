"""Output checks against references that do not use the package's code.

Every reference here is derived from the two transfer functions,

    G(jw) = exp(-x_r sqrt(jw / mu))      H(jw) = k_f r / (jw + k_r),

evaluated with complex arithmetic, rather than from the closed forms the
package implements.  A checker reads one job's artifacts and its config and
returns ``(problems, facts)``: human-readable failures (empty when the job
is correct) and input/outcome properties the run reports.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from pathlib import Path

import numpy as np
import yaml

GRID_POINTS = 4096        # same resolution as the package's grid_report
ROUTE_TOLERANCE = 0.02    # FDM vs Fourier, relative L2 over the last period
SPOT_CELLS = 32           # sweep cells compared per surface


# ---------------------------------------------------------------------------
# References
# ---------------------------------------------------------------------------

def stage_curves(mu: float, x_r: float, k_f: float, k_r: float, r: float,
                 omega) -> dict[str, np.ndarray]:
    """Gain (dB) and phase delay (s) of both stages from G(jw) and H(jw)."""
    w = np.asarray(omega, dtype=float)
    root = np.sqrt(1j * w / mu)
    h = k_f * r / (1j * w + k_r)
    # ln|G| = -x_r Re(root) and the unwrapped phase of G is -x_r Im(root).
    return {
        "gain_g": -20.0 * x_r * root.real / math.log(10.0),
        "delay_g": x_r * root.imag / w,
        "gain_h": 20.0 * np.log10(np.abs(h)),
        "delay_h": -np.angle(h) / w,
    }


def band_indices(mu: float, x_r: float, k_f: float, k_r: float, r: float,
                 omega1: float, omega2: float,
                 points: int = GRID_POINTS) -> dict[str, float]:
    """Stage indices over [omega1, omega2] by a log-grid search.

    q is the gain spread in dB, r the phase-delay spread over the period
    2 pi / omega1.  The curves are monotone, so ``points=2`` (the band edges)
    gives the same result as a fine grid.
    """
    grid = np.logspace(math.log10(omega1), math.log10(omega2), points)
    grid[0], grid[-1] = omega1, omega2
    c = stage_curves(mu, x_r, k_f, k_r, r, grid)
    period = 2.0 * math.pi / omega1
    return {
        "q_g": float(np.ptp(c["gain_g"])),
        "r_g": float(np.ptp(c["delay_g"]) / period),
        "q_h": float(np.ptp(c["gain_h"])),
        "r_h": float(np.ptp(c["delay_h"]) / period),
    }


def normalized_indices(omega1p: float, omega2p: float,
                       lam: float) -> dict[str, float]:
    """Indices in the (omega1', omega2', lam) normal form.

    The normal form is the physical one at k_r = 1, k_f r = 1 and
    x_r^2 / (2 mu) = lam^2, e.g. mu = 1/2 and x_r = lam.
    """
    return band_indices(0.5, lam, 1.0, 1.0, 1.0, omega1p, omega2p, points=2)


def clean_band_holds(mu: float, x_r: float, reception: dict, omega1: float,
                     decade_width: float, q_fraction: float,
                     r_fraction: float, slack: float = 0.0) -> bool:
    """The clean-band predicate on [omega1, decade_width * omega1]."""
    ix = band_indices(mu, x_r, reception["k_f"], reception["k_r"],
                      reception["r"], omega1, omega1 * decade_width, points=2)
    return (ix["q_g"] <= q_fraction * ix["q_h"] * (1.0 + slack)
            and ix["r_g"] <= r_fraction * ix["r_h"] * (1.0 + slack))


def _close(a: float, b: float, rtol: float, atol: float = 0.0) -> bool:
    return abs(a - b) <= atol + rtol * max(abs(a), abs(b))


def _scenario(config: Path) -> dict:
    doc = yaml.safe_load(config.read_text())
    ch, rs, band = doc["channel"], doc["reception"], doc["band"]
    return {"mu": float(ch["mu"]), "x_r": float(ch["x_r"]),
            "k_f": float(rs["k_f"]), "k_r": float(rs["k_r"]),
            "r": float(rs["r"]), "omega1": float(band["omega1"]),
            "omega2": float(band["omega2"]),
            "thresholds": doc.get("thresholds", {})}


def _physical(sc: dict) -> tuple[float, float, float, float, float]:
    return sc["mu"], sc["x_r"], sc["k_f"], sc["k_r"], sc["r"]


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text())


def _csv_rows(path: Path) -> list[list[str]]:
    """CSV body rows (after '#' comments), including the header row."""
    return [line.split(",") for line in path.read_text().splitlines()
            if not line.startswith("#")]


# ---------------------------------------------------------------------------
# Per-subcommand checks
# ---------------------------------------------------------------------------

def check_analyze(config: Path, out: Path) -> tuple[list[str], dict]:
    sc = _scenario(config)
    problems = []
    report = _read_json(out / "report.json")
    got = report["indices"]
    ref = band_indices(*_physical(sc), sc["omega1"], sc["omega2"])
    for key, value in ref.items():
        if not _close(got[key], value, 1e-6, 1e-12):
            problems.append(f"{key}={got[key]!r} but grid reference {value!r}")
    for total, a, b in (("q_m", "q_g", "q_h"), ("r_m", "r_g", "r_h")):
        if not _close(got[total], got[a] + got[b], 1e-12, 1e-15):
            problems.append(f"{total} != {a} + {b}")
    nb = report["normalized"]
    lam = sc["x_r"] * math.sqrt(sc["k_r"] / (2.0 * sc["mu"]))
    for key, value in (("omega1p", sc["omega1"] / sc["k_r"]),
                       ("omega2p", sc["omega2"] / sc["k_r"]), ("lam", lam)):
        if not _close(nb[key], value, 1e-12):
            problems.append(f"normalized {key}={nb[key]!r}, expected {value!r}")

    rows = _csv_rows(out / "curves.csv")[1:]
    data = np.array([[float(x) for x in row] for row in rows])
    w = data[:, 0]
    if not (_close(w[0], sc["omega1"], 1e-8) and _close(w[-1], sc["omega2"], 1e-8)):
        problems.append("curves.csv does not span the band")
    c = stage_curves(*_physical(sc), w)
    expected = (c["gain_g"], c["gain_h"], c["gain_g"] + c["gain_h"],
                c["delay_g"], c["delay_h"], c["delay_g"] + c["delay_h"])
    for j, col in enumerate(expected, start=1):
        scale = float(np.max(np.abs(col)))
        if not np.allclose(data[:, j], col, rtol=1e-7, atol=1e-7 * scale):
            problems.append(f"curves.csv column {j} disagrees with G(jw)/H(jw)")
    return problems, {"curve_points": len(rows)}


def check_design(config: Path, out: Path) -> tuple[list[str], dict]:
    sc = _scenario(config)
    problems = []
    doc = _read_json(out / "design.json")
    q0, r0 = doc["budgets"]["q0"], doc["budgets"]["r0"]
    ref = band_indices(*_physical(sc), sc["omega1"], sc["omega2"], points=2)
    th = sc["thresholds"]
    if "q_factor" in th:
        want = (th["q_factor"] * ref["q_h"], th["r_factor"] * ref["r_h"])
    else:
        want = (th["q0"], th["r0"])
    if not (_close(q0, want[0], 1e-9) and _close(r0, want[1], 1e-9)):
        problems.append(f"budgets ({q0}, {r0}) but expected {want}")
    result = doc["result"]
    feasible = q0 > ref["q_h"] and r0 > ref["r_h"]
    if result["feasible"] != feasible:
        problems.append(f"feasible={result['feasible']}, expected {feasible}")
    elif feasible:
        at = band_indices(sc["mu"], result["x_r_limit"], sc["k_f"], sc["k_r"],
                          sc["r"], sc["omega1"], sc["omega2"], points=2)
        q, r = at["q_g"] + at["q_h"], at["r_g"] + at["r_h"]
        binding_met = _close(q, q0, 1e-9) or _close(r, r0, 1e-9)
        within = q <= q0 * (1 + 1e-9) and r <= r0 * (1 + 1e-9)
        if not (binding_met and within):
            problems.append(f"at x_r_limit={result['x_r_limit']} the indices "
                            f"({q}, {r}) do not meet the budgets ({q0}, {r0}) "
                            "with equality in the binding one")
    return problems, {}


def check_sweep(config: Path, out: Path, job_id: str) -> tuple[list[str], dict]:
    sc = _scenario(config)
    lam = sc["x_r"] * math.sqrt(sc["k_r"] / (2.0 * sc["mu"]))
    problems = []
    meta = _read_json(out / "sweep.json")
    if not _close(meta["lam"], lam, 1e-12):
        problems.append(f"sweep.json lam={meta['lam']!r}, expected {lam!r}")
    rng = random.Random(job_id)
    filled = 0
    for name in ("q_g", "r_g", "q_h", "r_h"):
        rows = _csv_rows(out / f"{name}.csv")
        cols = [float(x) for x in rows[0][1:]]
        cells = []
        for row in rows[1:]:
            w1 = float(row[0])
            if len(row) != len(cols) + 1:
                problems.append(f"{name}.csv: ragged row at omega1p={w1}")
                continue
            for w2, cell in zip(cols, row[1:]):
                if (cell == "") != (w1 >= w2):
                    problems.append(f"{name}.csv: cell ({w1}, {w2}) is "
                                    f"{'blank' if cell == '' else 'filled'}")
                    break
                if cell:
                    cells.append((w1, w2, float(cell)))
        if len(rows) != len(cols) + 1:
            problems.append(f"{name}.csv: {len(rows) - 1} rows for "
                            f"{len(cols)} columns")
        filled += len(cells)
        for w1, w2, value in rng.sample(cells, min(SPOT_CELLS, len(cells))):
            want = normalized_indices(w1, w2, lam)[name]
            if not _close(value, want, 2e-6, 1e-300):
                problems.append(f"{name}.csv ({w1}, {w2}) = {value!r}, "
                                f"expected {want!r}")
    return problems, {"sweep_cells": filled}


def check_simulate(config: Path, out: Path) -> tuple[list[str], dict]:
    sc = _scenario(config)
    problems = []
    doc = _read_json(out / "simulate.json")
    sim = doc["metadata"]["parameters"]["simulation"]
    steps = int(round(sim["duration"] / sim["dt"]))
    period = 2.0 * math.pi / sim["fundamental"]
    traces = {}
    for arm in ("reception", "channel"):
        for route in ("fourier", "fdm"):
            data = np.loadtxt(out / f"trace_{arm}_{route}.csv", delimiter=",",
                              comments="#", skiprows=2, ndmin=2)
            if data.shape != (steps + 1, 4):
                problems.append(f"trace_{arm}_{route}.csv has shape "
                                f"{data.shape}, expected ({steps + 1}, 4)")
                return problems, {}
            traces[arm, route] = data
    worst = 0.0
    for arm in ("reception", "channel"):
        t = traces[arm, "fdm"][:, 0]
        last = t >= t[-1] - period
        fdm, fourier = traces[arm, "fdm"][last, 3], traces[arm, "fourier"][last, 3]
        rel = float(np.linalg.norm(fdm - fourier) / np.linalg.norm(fourier))
        worst = max(worst, rel)
        if not rel <= ROUTE_TOLERANCE:
            problems.append(f"{arm}: FDM and Fourier differ by {rel:.3%} "
                            "over the last period")
    duty = sim["duty"]
    window = ((1.0 - duty) * period, period)
    activated = 0
    for key, entry in doc["activation"].items():
        if entry is None or entry["t_on"] is None:
            continue
        activated += 1
        lo, hi = entry["pulse_window"]
        if not (_close(lo, window[0], 1e-9) and _close(hi, window[1], 1e-9)
                and lo <= entry["t_on"] <= hi):
            problems.append(f"{key}: t_on={entry['t_on']} outside the pulse "
                            f"window {window}")
    ratio = sc["omega2"] / sc["omega1"]
    facts = {
        "steps": steps,
        "cells": int(round(sim["domain_length"] / sim["dx"])) - 1,
        "harmonics": sim["n_harmonics"],
        "integer_ratio": abs(ratio - round(ratio)) <= 1e-9 * ratio,
        "activated": activated,
        "route_rel_l2": worst,
    }
    return problems, facts


def check_table(config: Path, out: Path) -> tuple[list[str], dict]:
    doc = yaml.safe_load(config.read_text())
    reception = {k: float(v) for k, v in doc["reception"].items()}
    width = float(doc.get("decade_width", 10.0))
    qf, rf = float(doc.get("q_fraction", 0.1)), float(doc.get("r_fraction", 0.1))
    problems = []
    rows = _read_json(out / "table.json")["rows"]
    if [r["name"] for r in rows] != [s["name"] for s in doc["species"]]:
        problems.append("table rows do not match the species list")
        return problems, {}
    counts: dict[str, int] = {}
    for row, species in zip(rows, doc["species"]):
        status = row["status"]
        counts[status] = counts.get(status, 0) + 1
        if (status == "no-distance") != ("x_r" not in species):
            problems.append(f"{row['name']}: status {status!r}")
        if status != "ok":
            continue
        mu, x_r, w1 = row["mu_lo"], row["x_r"], row["omega1"]
        if not _close(row["omega2"], width * w1, 1e-12):
            problems.append(f"{row['name']}: band is not {width:g} wide")
        if not clean_band_holds(mu, x_r, reception, w1, width, qf, rf,
                                slack=1e-9):
            problems.append(f"{row['name']}: clean-band predicate fails at "
                            f"omega1={w1}")
        if clean_band_holds(mu, x_r, reception, w1 * 1.001, width, qf, rf):
            problems.append(f"{row['name']}: clean-band predicate still holds "
                            f"above omega1={w1}")
    return problems, {"statuses": counts}


def check_job(command: str, job_id: str, config: Path,
              out: Path) -> tuple[list[str], dict]:
    """Check one job's artifacts; unreadable or missing ones are problems."""
    try:
        if command == "analyze":
            return check_analyze(config, out)
        if command == "design":
            return check_design(config, out)
        if command == "sweep":
            return check_sweep(config, out, job_id)
        if command == "simulate":
            return check_simulate(config, out)
        if command == "table":
            return check_table(config, out)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"unreadable or missing artifact: {exc!r}"], {}
    raise ValueError(f"no check for subcommand {command!r}")


def artifact_digest(out: Path) -> str:
    """sha256 of a job's artifacts with the generated_at timestamp removed."""
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        data = path.read_bytes()
        if path.suffix == ".json":
            doc = json.loads(data)
            doc.get("metadata", {}).pop("generated_at", None)
            data = json.dumps(doc, sort_keys=True).encode()
        h.update(path.name.encode() + b"\0" + data + b"\0")
    return h.hexdigest()
