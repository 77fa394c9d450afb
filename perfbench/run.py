"""Benchmark of the mcchannel batch CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload cli-batch --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all      # every workload, both modes

Each job is one fresh ``python -m mcchannel.cli ...`` subprocess, run the
way a user runs it, in a closed loop with a single client: the next job
starts when the previous one ends.  A pass runs the workload's whole batch
(see workloads.py); passes repeat while the next one is expected to end
within ``--seconds``.  After each pass, outside the timed region, every
job's artifacts are checked (checks.py).  A job fails on a non-zero exit
code, a missing artifact or a failed check.

``--trace 0`` prints the end-to-end metrics:

    wall_s       median wall time of one pass (the whole batch), s
    job_p50_s    median wall time of one job over all passes, s
    setup_s      median wall time of a fresh interpreter running
                 ``import mcchannel.cli``, s
    peak_rss_mb  largest max-RSS of any job, from its own rusage, MiB

``--trace 1`` runs each job in-process, untraced and then traced
(tracing.py), writes the spans to ``perfbench/.work/spans-<workload>.json``
and prints the per-layer metrics, import-time split,
``timedomain.route_rel_l2`` (worst FDM/Fourier relative L2 difference over
the last period, 0 without simulate jobs) and ``trace.overhead_s``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before it
give each metric by name and unit, ``fail_frac``, the input properties, a
digest of the artifacts (without ``generated_at``) and the environment.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / "perfbench" / ".work"
SETUP_REPEATS = 7
IMPORTTIME_REPEATS = 3
DEADLINE_S = 170.0          # a run must end within 180 s


@dataclass
class Outcome:
    """One job of one pass."""

    job: workloads.Job
    out: Path
    wall_s: float = 0.0
    rss_mb: float = 0.0
    exit_code: int | None = None
    problems: list[str] = field(default_factory=list)
    facts: dict = field(default_factory=dict)

    @property
    def failed(self) -> bool:
        return bool(self.problems)


class Bench:
    """One benchmark run: a workload, a seed and a private work directory."""

    def __init__(self, workload: str, seed: int, seconds: float, work: Path):
        self.workload, self.seconds, self.work = workload, seconds, work
        self.deadline = time.monotonic() + DEADLINE_S
        src = str(ROOT / "src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ,
                        PYTHONPATH=src if not path else src + os.pathsep + path)
        self.jobs = workloads.build(workload, seed, ROOT, work / "inputs")

    # -- processes ---------------------------------------------------------

    def spawn(self, argv: list[str], stderr=subprocess.DEVNULL):
        """Run argv to completion; return (wall s, max-RSS MiB, exit code)."""
        timeout = max(1.0, self.deadline - time.monotonic())
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=self.env, cwd=ROOT,
                                stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=stderr)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, usage.ru_maxrss / 1024.0, proc.returncode

    def check_import(self) -> None:
        """Import the package once (compiling bytecode) and make sure it is
        this checkout's copy."""
        probe = subprocess.run(
            [sys.executable, "-c",
             "import mcchannel.cli; print(mcchannel.cli.__file__)"],
            env=self.env, cwd=ROOT, capture_output=True, text=True,
            timeout=60)
        where = Path(probe.stdout.strip() or ".").resolve()
        if probe.returncode != 0 or ROOT / "src" not in where.parents:
            raise SystemExit(f"cannot import mcchannel.cli from {ROOT / 'src'}:"
                             f"\n{probe.stderr}")

    def setup_s(self) -> float:
        argv = [sys.executable, "-c", "import mcchannel.cli"]
        walls = []
        for _ in range(SETUP_REPEATS):
            wall, _, code = self.spawn(argv)
            if code != 0:
                raise SystemExit("import mcchannel.cli failed")
            walls.append(wall)
        return statistics.median(walls)

    def run_job(self, job: workloads.Job, out: Path) -> Outcome:
        with open(self.work / f"{job.id}.stderr", "w") as err:
            wall, rss, code = self.spawn(
                [sys.executable, "-m", "mcchannel.cli", *job.argv(out)],
                stderr=err)
        return Outcome(job, out, wall, rss, code)

    # -- the untraced, subprocess run ---------------------------------------

    def measure(self) -> tuple[list[float], list[Outcome], str]:
        """Closed-loop passes; return pass walls, outcomes and a digest."""
        pass_walls, outcomes, digest = [], [], ""
        start = time.monotonic()
        while True:
            pass_dir = self.work / f"pass{len(pass_walls)}"
            t0 = time.perf_counter()
            batch = [self.run_job(job, pass_dir / job.id) for job in self.jobs]
            pass_walls.append(time.perf_counter() - t0)
            for o in batch:
                verify(o)
            if not digest:
                digest = batch_digest(batch)
            outcomes += batch
            shutil.rmtree(pass_dir, ignore_errors=True)
            elapsed = time.monotonic() - start
            if elapsed * (1 + 1 / len(pass_walls)) > self.seconds:
                return pass_walls, outcomes, digest

    # -- the in-process, traced run ------------------------------------------

    def traced(self) -> tuple[dict, list[Outcome], str]:
        """Each job in-process, untraced and then traced, so that their
        difference is the tracing overhead."""
        sys.path.insert(0, str(ROOT / "src"))
        cli = importlib.import_module("mcchannel.cli")
        tracer = tracing.Tracer()
        overhead, outcomes = 0.0, []
        for job in self.jobs:
            untraced_s, _ = call_main(cli, job, self.work / "untraced" / job.id)
            with tracing.patched(tracer) as wrapped:
                tracer.job = job.id
                traced_s, o = call_main(cli, job, self.work / "traced" / job.id)
            overhead += traced_s - untraced_s
            outcomes.append(o)
        tracer.dump(WORK / f"spans-{self.workload}.json")
        metrics = tracing.layer_metrics(tracer, wrapped)
        for o in outcomes:
            verify(o)
        metrics["cli.bytes_written"] = (
            sum(p.stat().st_size for o in outcomes if o.out.is_dir()
                for p in o.out.iterdir()), "bytes")
        metrics["trace.overhead_s"] = (overhead, "s")
        metrics.update(self.import_split())
        return metrics, outcomes, batch_digest(outcomes)

    def import_split(self) -> dict[str, tuple]:
        runs = []
        for _ in range(IMPORTTIME_REPEATS):
            probe = subprocess.run(
                [sys.executable, "-X", "importtime", "-c", "import mcchannel.cli"],
                env=self.env, cwd=ROOT, capture_output=True, text=True,
                timeout=max(1.0, self.deadline - time.monotonic()))
            runs.append(tracing.parse_importtime(probe.stderr))
        return {k: (statistics.median(r[k] for r in runs), "s") for k in runs[0]}


def call_main(cli, job: workloads.Job, out: Path) -> tuple[float, Outcome]:
    """Run one job in this process through ``mcchannel.cli.main``."""
    o = Outcome(job, out)
    t0 = time.perf_counter()
    try:
        o.exit_code = cli.main(job.argv(out))
    except SystemExit as exc:
        o.exit_code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:   # a crash is a failed job, not a failed run
        o.exit_code, o.problems = 1, [f"raised {exc!r}"]
    return time.perf_counter() - t0, o


def verify(o: Outcome) -> None:
    """Fill in an outcome's problems and facts from its artifacts."""
    if o.exit_code != 0:
        o.problems.append(f"exit code {o.exit_code}")
        return
    problems, o.facts = checks.check_job(o.job.command, o.job.id,
                                         o.job.config, o.out)
    o.problems += problems


def batch_digest(batch: list[Outcome]) -> str:
    digests = [f"{o.job.id}:{checks.artifact_digest(o.out)}"
               for o in batch if o.out.is_dir()]
    return hashlib.sha256("\n".join(digests).encode()).hexdigest()


def input_properties(outcomes: list[Outcome]) -> dict:
    props: dict = {}
    seen = set()
    for o in outcomes:
        if o.job.id in seen:
            continue
        seen.add(o.job.id)
        f = o.facts
        if "steps" in f:
            props.setdefault("simulate", []).append(
                {k: f[k] for k in ("steps", "cells", "harmonics",
                                   "integer_ratio", "activated")} | {"job": o.job.id})
        if "sweep_cells" in f:
            props.setdefault("sweep_cells", {})[o.job.id] = f["sweep_cells"]
        if "statuses" in f:
            props.setdefault("table_statuses", {})[o.job.id] = f["statuses"]
    sims = props.get("simulate")
    if sims:
        props["integer_ratio_share"] = sum(s["integer_ratio"] for s in sims) / len(sims)
    return props


def environment(argv: list[str], seed: int) -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu or platform.processor(),
        "seed": seed,
        "command": [sys.executable, *argv],
    }


def run_one(workload: str, seed: int, seconds: float, trace: bool,
            argv: list[str]) -> dict:
    work = WORK / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        bench = Bench(workload, seed, seconds, work)
        bench.check_import()
        if trace:
            metrics, outcomes, digest = bench.traced()
        else:
            setup = bench.setup_s()
            pass_walls, outcomes, digest = bench.measure()
            metrics = {
                "wall_s": (statistics.median(pass_walls), "s"),
                "job_p50_s": (statistics.median(o.wall_s for o in outcomes), "s"),
                "setup_s": (setup, "s"),
                "peak_rss_mb": (max(o.rss_mb for o in outcomes), "MiB"),
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)
    rel = [o.facts["route_rel_l2"] for o in outcomes if "route_rel_l2" in o.facts]
    if trace:
        metrics["timedomain.route_rel_l2"] = (max(rel, default=0.0), "ratio")
    failed = sum(o.failed for o in outcomes)
    info = {
        "workload": workload,
        "trace": int(trace),
        "fail_frac": failed / len(outcomes),
        "problems": {o.job.id: o.problems for o in outcomes if o.failed},
        "inputs": input_properties(outcomes),
        "artifact_digest": digest,
        "environment": environment(argv, seed),
    }
    if not trace:
        info["passes"] = len(pass_walls)
        info["route_rel_l2"] = max(rel, default=None)
    for name, (value, unit) in metrics.items():
        print(f"{workload:>14} {name:<34} {value:>16.6g} {unit}")
    print(f"{workload:>14} {'fail_frac':<34} {info['fail_frac']:>16.6g} ratio")
    print(json.dumps(info, sort_keys=True))
    return {
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv if argv is None else argv
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv[1:])
    if not (ROOT / "src" / "mcchannel" / "cli.py").is_file():
        print(f"no mcchannel sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload != "all":
        result = run_one(args.workload, args.seed, args.seconds,
                         bool(args.trace), argv)
    else:
        results = {f"{w}/trace{t}": run_one(w, args.seed, args.seconds, bool(t), argv)
                   for w in workloads.WORKLOADS for t in (0, 1)}
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{key}/{name}": m for key, r in results.items()
                        for name, m in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
