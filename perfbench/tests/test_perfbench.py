"""Tests of the benchmark itself: run with ``python3 -m pytest perfbench/tests``."""

import json

import pytest

import run
import tracing
import workloads


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic(tmp_path, workload):
    def files(seed, name):
        jobs = workloads.build(workload, seed, run.ROOT, tmp_path / name)
        return ([(j.id, j.command, j.config.name, j.args) for j in jobs],
                {p.name: p.read_bytes()
                 for p in sorted((tmp_path / name).iterdir())})

    assert files(7, "a") == files(7, "b")
    assert files(7, "a")[1] != files(8, "c")[1]


def test_survey_has_fixed_share_of_range_rows(tmp_path):
    workloads.build("grid-survey", 3, run.ROOT, tmp_path)
    for rows in workloads.SURVEY_ROWS:
        text = (tmp_path / f"survey{rows}.yaml").read_text()
        assert text.count("- name:") == rows
        assert text.count("mu: [") == round(0.15 * rows)


def test_corrupted_artifact_counts_as_failure(tmp_path):
    bench = run.Bench("cli-batch", 1, 30.0, tmp_path)
    job = next(j for j in bench.jobs if j.command == "analyze")

    clean = bench.run_job(job, tmp_path / "clean")
    run.verify(clean)
    assert clean.problems == []

    corrupt = bench.run_job(job, tmp_path / "corrupt")
    report = corrupt.out / "report.json"
    doc = json.loads(report.read_text())
    doc["indices"]["q_g"] *= 1.01
    report.write_text(json.dumps(doc))
    run.verify(corrupt)
    assert corrupt.failed

    missing = run.Outcome(job, tmp_path / "never-written", exit_code=0)
    run.verify(missing)
    assert missing.failed

    outcomes = [clean, corrupt, missing]
    assert sum(o.failed for o in outcomes) / len(outcomes) == pytest.approx(2 / 3)


def _span(name, start, end, parent=None, counted=0.0):
    return tracing.Span(name, start, end, parent, "job", counted)


def test_self_times_subtract_children_and_counted_calls():
    spans = [
        _span("cli", 0.0, 10.0, counted=0.5),
        _span("config", 1.0, 2.0, parent=0),
        _span("timedomain.fourier", 3.0, 7.0, parent=0, counted=1.0),
        _span("timedomain.trace_write", 6.5, 8.0, parent=0),  # overlaps fourier
        _span("other", 9.0, 9.5),
    ]
    assert tracing.self_times(spans) == pytest.approx([
        10.0 - 1.0 - (8.0 - 3.0) - 0.5,   # union of [1,2] and [3,8]
        1.0,
        4.0 - 1.0,
        1.5,
        0.5,
    ])


def test_tracer_records_nesting_and_counters():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    leaf = tracer.counter("systems", lambda x: x)
    inner = tracer.span("timedomain.fourier", lambda: [leaf(i) for i in range(3)])
    outer = tracer.span("cli", lambda: inner())
    outer()
    assert [(s.name, s.parent) for s in tracer.spans] == [
        ("cli", None), ("timedomain.fourier", 0)]
    assert tracer.counters["systems"] == [3, 3.0]
    assert tracer.spans[1].counted_s == 3.0
    metrics = tracing.layer_metrics(tracer, {"cli", "systems",
                                             "timedomain.fourier"})
    assert metrics["systems.calls"] == (3, "count")
    assert metrics["timedomain.fourier_s"][0] == tracer.spans[1].end \
        - tracer.spans[1].start - 3.0
    assert "config.load_s" not in metrics     # boundary not wrapped: absent


IMPORTTIME_SAMPLE = """\
import time: self [us] | cumulative | imported package
import time:       272 |        272 |   _io
import time:       389 |       1190 | _frozen_importlib_external
import time:      1500 |       1500 |         numpy._core._multiarray_umath
import time:      2000 |       3500 |       numpy
import time:       700 |        700 |           scipy.sparse._base
import time:      3000 |       3700 |         scipy.sparse
import time:       400 |        400 |       _yaml
import time:       600 |       1000 |     yaml
import time:       250 |       8450 |   mcchannel.cli
import time:       100 |       8550 | mcchannel
"""


def test_parse_importtime_groups_by_top_level_package():
    got = tracing.parse_importtime(IMPORTTIME_SAMPLE)
    assert got == pytest.approx({
        "import.total_s": 9211e-6,
        "import.numpy_s": 3500e-6,
        "import.scipy_s": 3700e-6,
        "import.yaml_s": 1000e-6,
        "import.mcchannel_self_s": 350e-6,
    })
