"""The benchmark's layer boundaries still name what they wrap.

perfbench/tracing.py wraps each BOUNDARIES entry, looked up by module and
attribute name, and skips an entry that no longer resolves; its TALLIES
read the wrapped call's arguments by name.  A rename or deletion in the
package would therefore blank a per-layer metric, or fail every traced
job, without failing any other test.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# Entries known not to resolve: design.py calls only the normal-form
# diffusion indices, so the design.index_evals metric reads 0.
DEAD = {("mcchannel.design", "diffusion_amplitude_distortion"),
        ("mcchannel.design", "diffusion_delay_distortion")}

# The argument names each tally reads from the call it wraps.
TALLY_ARGUMENTS = {
    "timedomain.fourier": {"n_harmonics", "t_grid"},
    "timedomain.fdm": {"cfg", "ch"},
    "timedomain.trace_write": {"trace"},
}


@pytest.fixture(scope="module")
def tracing():
    name = "perfbench_tracing"
    spec = importlib.util.spec_from_file_location(name, TRACING)
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses look their own module up in sys.modules.
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[name]


def _resolve(module_name, attr):
    return getattr(importlib.import_module(module_name), attr, None)


def test_every_boundary_resolves_to_a_callable(tracing):
    unresolved = set()
    for module_name, attr, _key, _kind in tracing.BOUNDARIES:
        fn = _resolve(module_name, attr)
        if fn is None:
            unresolved.add((module_name, attr))
        else:
            assert callable(fn), (module_name, attr)
    assert unresolved == DEAD


def test_tallies_bind_parameters_of_the_wrapped_functions(tracing):
    assert set(tracing.TALLIES) == set(TALLY_ARGUMENTS)
    for module_name, attr, key, kind in tracing.BOUNDARIES:
        if key not in TALLY_ARGUMENTS:
            continue
        assert kind == tracing.SPAN
        parameters = inspect.signature(_resolve(module_name, attr)).parameters
        assert TALLY_ARGUMENTS[key] <= set(parameters), (attr, key)
