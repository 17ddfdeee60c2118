"""The stable ``repro.api`` surface and the legacy-path deprecation shims."""

import importlib
import warnings

import numpy as np
import pytest

import repro


class TestApiSurface:
    def test_imports_cleanly_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            api = importlib.reload(importlib.import_module("repro.api"))
        assert api.Flare is not None

    def test_all_exports_resolve(self):
        from repro import api

        for name in api.__all__:
            assert getattr(api, name, None) is not None, name

    def test_all_is_sorted_within_no_duplicates(self):
        from repro import api

        assert len(api.__all__) == len(set(api.__all__))

    def test_runtime_names_exported(self):
        from repro.api import (  # noqa: F401
            Executor,
            ProcessExecutor,
            ResolvedRuntime,
            RuntimeCache,
            RuntimeConfig,
            SerialExecutor,
            default_cache,
            resolve_executor,
            resolve_runtime,
        )


class TestRetiredTopLevelImports:
    def test_api_name_raises_with_migration_hint(self):
        with pytest.raises(AttributeError, match="from repro.api import Flare"):
            repro.Flare

    def test_all_lists_only_version(self):
        assert repro.__all__ == ["__version__"]

    def test_submodule_access_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            assert repro.runtime is not None
            assert repro.workloads is not None

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError):
            repro.does_not_exist


class TestKeywordOnlyKnobs:
    def test_percentile_interval_positional_confidence_warns(self):
        from repro.stats.sampling import percentile_interval

        values = np.linspace(0.0, 1.0, 101)
        with pytest.warns(DeprecationWarning, match="confidence"):
            legacy = percentile_interval(values, 0.9)
        assert legacy == percentile_interval(values, confidence=0.9)

    def test_percentile_interval_rejects_extra_positionals(self):
        from repro.stats.sampling import percentile_interval

        with pytest.raises(TypeError):
            percentile_interval([1.0, 2.0], 0.9, 0.8)

    def test_stratify_by_metric_positional_n_strata_warns(self):
        from repro.baselines.stratified import stratify_by_metric

        values = np.linspace(0.0, 10.0, 60)
        with pytest.warns(DeprecationWarning, match="n_strata"):
            legacy = stratify_by_metric(values, 4)
        modern = stratify_by_metric(values, n_strata=4)
        np.testing.assert_array_equal(legacy, modern)
