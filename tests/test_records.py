"""The package's records behave as @dataclass(frozen=True) classes would.

Each record class is checked against a stdlib frozen dataclass twin
built here from the same class annotations and defaults: repr, ==,
hash, construction (defaults, positional, keyword, and the TypeError of
a bad call), immutability, and the field-order dicts config.py embeds in
every output.
"""

import dataclasses

import numpy as np
import pytest

from mcchannel.config import (
    Scenario,
    SpeciesRow,
    SweepSettings,
    TableConfig,
    scenario_from_dict,
)
from mcchannel.design import CleanBands, DesignResult
from mcchannel.distortion import DistortionReport, NormalizedBand
from mcchannel.systems import (
    DiffusionChannel,
    FrequencyBand,
    ParameterError,
    ReceptionSystem,
    _asdict,
    _Record,
    _replace,
)
from mcchannel.timedomain import (
    SimulationTrace,
    SolverConfig,
    SquareWaveInput,
    TimeGrid,
)

RS = ReceptionSystem(k_f=1e-3, k_r=4e-3, r=4.0)
SCENARIO = scenario_from_dict({
    "channel": {"mu": 83.0, "x_r": 14.0},
    "reception": {"k_f": 1e-3, "k_r": 4e-3, "r": 4.0},
    "band": {"omega1": 5e-3, "omega2": 1e-1},
    "thresholds": {"q0": 2.0, "r0": 0.2},
})


def _trace(n=3):
    return dict(grid=TimeGrid(0.0, 1.0, n), input=np.zeros(n),
                received=np.zeros(n), complex_conc=np.zeros(n),
                route="fourier", wave=SquareWaveInput(0.1, 1.0))


# Per class: valid arguments in field order, a change that gives an
# unequal record, and a change that __post_init__ rejects (None for the
# records without a check).
CASES = {
    DiffusionChannel: (dict(mu=83.0, x_r=14.0), {"x_r": 15.0}, {"mu": -1.0}),
    ReceptionSystem: (dict(k_f=1e-3, k_r=4e-3, r=4.0), {"r": 5.0}, {"k_f": 0.0}),
    FrequencyBand: (dict(omega1=5e-3, omega2=0.1), {"omega2": 0.2},
                    {"omega2": 1e-4}),
    NormalizedBand: (dict(omega1p=1.0, omega2p=10.0, lam=0.5), {"lam": 0.6},
                     {"lam": -1.0}),
    DistortionReport: (dict(q_g=1.0, r_g=0.1, q_h=2.0, r_h=0.2),
                       {"r_h": 0.3}, {"q_g": -1.0}),
    DesignResult: (dict(x_q=1.0, x_r_delay=2.0, x_r_limit=1.0, feasible=True,
                        q_h=0.5, r_h=0.05),
                   {"feasible": False}, None),
    CleanBands: (dict(omega1=np.array([1.0]), omega2=np.array([10.0]),
                      status=np.array(["ok"])),
                 {"status": np.array(["saturated"])}, None),
    SquareWaveInput: (dict(amplitude=0.1, fundamental=5e-3, duty=0.25,
                           offset=0.0),
                      {"duty": 0.5}, {"duty": 1.5}),
    TimeGrid: (dict(t0=0.0, dt=0.5, n=4), {"n": 5}, {"dt": 0.0}),
    SimulationTrace: (_trace(), {"route": "fdm"}, {"input": np.zeros(2)}),
    SolverConfig: (dict(dx=1.0, dt=1.0, domain_length=10.0, duration=10.0),
                   {"dt": 0.5}, {"dt": 5e-324}),
    SweepSettings: (dict(omega_min=1e-2, omega_max=1e2, points=9),
                    {"points": 10}, None),
    Scenario: (_asdict(SCENARIO), {"threshold": 0.05}, None),
    SpeciesRow: (dict(name="ion", mu_lo=500.0, mu_hi=7000.0, x_r=None),
                 {"x_r": 10.0}, None),
    TableConfig: (dict(reception=RS, decade_width=10.0, q_fraction=0.1,
                       r_fraction=0.1,
                       species=(SpeciesRow("ion", 500.0, 7000.0, None),),
                       parameters={"decade_width": 10.0}),
                  {"q_fraction": 0.2}, None),
}


def test_every_record_class_has_a_case():
    assert set(_Record.__subclasses__()) == set(CASES)


def _twin(cls):
    """A stdlib frozen dataclass with cls's name, fields and defaults."""
    fields = [(name, kind, dataclasses.field(default=cls.__dict__[name]))
              if name in cls.__dict__ else (name, kind)
              for name, kind in cls.__annotations__.items()]
    return dataclasses.make_dataclass(cls.__name__, fields, frozen=True)


def _outcome(call):
    """call()'s result, or the type of the exception it raised."""
    try:
        return call()
    except Exception as exc:
        return type(exc)


def _fresh(kwargs):
    # SimulationTrace makes its arrays read-only, so each record gets its own.
    return {k: v.copy() if isinstance(v, np.ndarray) else v
            for k, v in kwargs.items()}


@pytest.fixture(params=list(CASES), ids=lambda cls: cls.__name__)
def case(request):
    cls = request.param
    kwargs, change, bad = CASES[cls]
    return cls, _twin(cls), kwargs, change, bad


def test_repr_eq_and_hash_match_the_dataclass(case):
    cls, twin, kwargs, change, _ = case
    assert list(kwargs) == list(cls.__annotations__)
    record, same, other = (cls(**kwargs), cls(**kwargs),
                           cls(**{**kwargs, **change}))
    t_record, t_same, t_other = (twin(**kwargs), twin(**kwargs),
                                 twin(**{**kwargs, **change}))
    assert repr(record) == repr(t_record)
    assert repr(other) == repr(t_other)
    assert (record == same) is (t_record == t_same) is True
    assert _outcome(lambda: record == other) == _outcome(lambda: t_record == t_other)
    assert (record != same) is (t_record != t_same) is False
    # Another class, even one with the same fields, is never equal.
    assert (record == t_record) is False
    assert _outcome(lambda: hash(record)) == _outcome(lambda: hash(t_record))
    assert _outcome(lambda: hash(other)) == _outcome(lambda: hash(t_other))


def test_construction_matches_the_dataclass(case):
    cls, twin, kwargs, _, _ = case
    values = list(kwargs.values())
    assert repr(cls(*values)) == repr(cls(**kwargs))
    assert repr(cls(*values[:1], **dict(list(kwargs.items())[1:]))) == repr(
        cls(**kwargs))
    defaulted = {k: v for k, v in kwargs.items() if k not in cls.__dict__}
    assert repr(cls(**defaulted)) == repr(twin(**defaulted))

    first = next(iter(kwargs))
    bad_calls = [
        ((), {k: v for k, v in kwargs.items() if k != first}),  # missing
        ((), {**kwargs, "bogus": 1}),                           # unknown
        ((values[0],), kwargs),                                 # duplicate
        ((*values, 0), {}),                                     # too many
    ]
    for args, extra in bad_calls:
        with pytest.raises(TypeError):
            twin(*args, **extra)
        with pytest.raises(TypeError):
            cls(*args, **_fresh(extra))


def test_records_are_frozen(case):
    cls, _, kwargs, change, _ = case
    record = cls(**kwargs)
    name, value = next(iter(change.items()))
    with pytest.raises(AttributeError):
        setattr(record, name, value)
    with pytest.raises(AttributeError):
        record.bogus = 1
    with pytest.raises(AttributeError):
        delattr(record, name)
    assert repr(record) == repr(cls(**kwargs))


@pytest.mark.parametrize("cls", [cls for cls, (_, _, bad) in CASES.items()
                                 if bad is not None], ids=lambda cls: cls.__name__)
def test_post_init_still_validates(cls):
    kwargs, _, bad = CASES[cls]
    with pytest.raises(ParameterError):
        cls(**_fresh({**kwargs, **bad}))


# Every field of the records that hold scalars.
SCALAR_FIELDS = [(cls, name) for cls in (ReceptionSystem, FrequencyBand,
                                         SquareWaveInput, TimeGrid,
                                         SolverConfig, DistortionReport)
                 for name in cls._fields]


@pytest.mark.parametrize("cls, name", SCALAR_FIELDS,
                         ids=[f"{cls.__name__}.{name}"
                              for cls, name in SCALAR_FIELDS])
def test_scalar_records_refuse_arrays_by_field_name(cls, name):
    # Not numpy's "truth value of an array ... is ambiguous" ValueError.
    kwargs = CASES[cls][0]
    array = np.array([kwargs[name], kwargs[name]])
    with pytest.raises(ParameterError, match=rf"^{name} "):
        cls(**{**kwargs, name: array})


def _same(a, b):
    return np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b


def test_asdict_and_replace_match_the_dataclass(case):
    # dataclasses.asdict deep-copies values that are not dataclasses, so
    # nested package records and arrays compare by value.
    cls, twin, kwargs, change, _ = case
    record, t_record = cls(**kwargs), twin(**kwargs)
    ours, theirs = _asdict(record), dataclasses.asdict(t_record)
    assert list(ours) == list(theirs) == list(kwargs)
    assert all(_same(ours[k], theirs[k]) for k in ours)

    fresh = _fresh(change)
    assert repr(_replace(record, **fresh)) == repr(
        dataclasses.replace(t_record, **fresh))
    with pytest.raises(TypeError):
        _replace(record, bogus=1)

