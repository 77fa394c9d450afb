"""The public API is declared once: each module's __all__, re-exported whole
by the package."""

import importlib

import pytest

import mcchannel

MODULES = ("systems", "distortion", "design", "timedomain", "config")


def test_package_exports_exactly_the_module_lists():
    declared = [name for module in MODULES
                for name in importlib.import_module(f"mcchannel.{module}").__all__]
    assert len(declared) == len(set(declared))
    assert len(mcchannel.__all__) == len(set(mcchannel.__all__))
    assert set(mcchannel.__all__) == {"__version__", *declared}
    for name in mcchannel.__all__:
        assert hasattr(mcchannel, name), name


@pytest.mark.parametrize("module, name", [
    ("design", "reception_cutoff"), ("design", "CleanBands"),
    ("distortion", "delay_distortion_maxima"), ("config", "SweepSettings"),
    ("config", "SpeciesRow"), ("config", "TableConfig"),
    ("cli", "write_trace_csv"),
])
def test_module_only_names_stay_importable_by_module_path(module, name):
    assert hasattr(importlib.import_module(f"mcchannel.{module}"), name)
    assert name not in mcchannel.__all__
