"""Public API surface tests."""

import importlib

import pytest

import repro


class TestExports:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    @pytest.mark.parametrize(
        "module",
        [
            "repro.models",
            "repro.core",
            "repro.queueing",
            "repro.analysis",
            "repro.atm",
            "repro.experiments",
            "repro.utils",
            "repro.parallel",
            "repro.service",
            "repro.adaptive",
            "repro.obs",
            "repro.resilience",
        ],
    )
    def test_subpackage_all_resolves(self, module):
        mod = importlib.import_module(module)
        for name in mod.__all__:
            assert hasattr(mod, name), f"{module}.{name}"

    def test_exception_hierarchy(self):
        assert issubclass(repro.ParameterError, repro.ReproError)
        assert issubclass(repro.ParameterError, ValueError)
        assert issubclass(repro.StabilityError, repro.ReproError)
        assert issubclass(repro.FittingError, repro.ReproError)

    def test_docstring_quickstart_runs(self):
        z = repro.make_z(0.975)
        s = repro.fit_dar(z, order=1)
        for model in (z, s):
            est = repro.bahadur_rao_bop(model, c=538.0, b=134.5, n_sources=30)
            assert 0 < est.bop < 1
            assert est.cts >= 1
