"""The stable ``repro.api`` surface and the spellings removed in 2.0."""

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
            RuntimeConfig,
            SerialExecutor,
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
    def test_percentile_interval_rejects_extra_positionals(self):
        from repro.stats.sampling import percentile_interval

        with pytest.raises(TypeError):
            percentile_interval([1.0, 2.0], 0.9, 0.8)


def _legacy_spellings():
    from repro.api import FEATURE_1_CACHE, Flare, Profiler
    from repro.baselines.stratified import stratify_by_metric
    from repro.stats.sampling import percentile_interval

    values = np.linspace(0.0, 1.0, 101)
    return {
        "fit-dataset": lambda: Flare().fit(dataset=values),
        "fit-executor": lambda: Flare().fit(values, executor="serial"),
        "evaluate-executor": lambda: Flare().evaluate(
            FEATURE_1_CACHE, executor="serial"
        ),
        "evaluate_job-executor": lambda: Flare().evaluate_job(
            FEATURE_1_CACHE, "web-search", executor="serial"
        ),
        "profile-dataset": lambda: Profiler().profile(dataset=values),
        "profile-executor": lambda: Profiler().profile(
            values, executor="serial"
        ),
        "iter_profile-dataset": lambda: Profiler().iter_profile(
            dataset=values
        ),
        "iter_profile-executor": lambda: Profiler().iter_profile(
            values, executor="serial"
        ),
        "percentile_interval-positional": lambda: percentile_interval(
            values, 0.9
        ),
        "stratify_by_metric-positional": lambda: stratify_by_metric(
            values, 4
        ),
    }


class TestRemovedSpellings:
    @pytest.mark.parametrize("spelling", sorted(_legacy_spellings()))
    def test_legacy_spelling_raises_type_error(self, spelling):
        call = _legacy_spellings()[spelling]
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            with pytest.raises(TypeError):
                call()

    @pytest.mark.parametrize(
        "name",
        [
            "RuntimeCache",
            "default_cache",
            "dataset_digest",
            "config_digest",
            "CACHE_DIR_ENV_VAR",
        ],
    )
    def test_removed_cache_names_are_not_exported(self, name):
        from repro import api, runtime
        from repro.runtime import cache

        for module in (api, runtime, cache):
            assert not hasattr(module, name), (module.__name__, name)

    def test_shim_module_is_gone(self):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro._deprecations")
