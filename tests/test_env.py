"""The central ``repro.env`` knob registry.

Every ``REPRO_*`` read in the library routes through these declarations
(the ``env-registry`` lint rule enforces it); these tests pin the accessor
semantics, the save/restore context manager, and registry hygiene.
"""

from __future__ import annotations

import os

import pytest

from repro import env


class TestParsers:
    @pytest.mark.parametrize("raw", ["1", "true", "TRUE", "Yes", "on", " 1 "])
    def test_parse_bool_truthy(self, raw):
        assert env.parse_bool(raw) is True

    @pytest.mark.parametrize("raw", ["0", "false", "off", "", "no", "2"])
    def test_parse_bool_falsy(self, raw):
        assert env.parse_bool(raw) is False

    def test_parse_nonempty(self):
        assert env.parse_nonempty("/tmp/cache") == "/tmp/cache"
        assert env.parse_nonempty("") is None
        assert env.parse_nonempty("   ") is None


class TestKnobAccessors:
    def test_unset_returns_default_untouched(self, monkeypatch):
        monkeypatch.delenv(env.POOL_OVERSUBSCRIBE.name, raising=False)
        assert env.POOL_OVERSUBSCRIBE.raw() is None
        assert env.POOL_OVERSUBSCRIBE.get() is False
        assert not env.POOL_OVERSUBSCRIBE.is_set()

    INT_KNOB = env.EnvKnob(name="REPRO_TEST_INT", default=None, parser=int, doc="t")

    def test_set_value_is_parsed(self, monkeypatch):
        monkeypatch.setenv(self.INT_KNOB.name, "4096")
        assert self.INT_KNOB.get() == 4096
        assert self.INT_KNOB.is_set()

    def test_empty_string_is_present_but_not_set(self, monkeypatch):
        monkeypatch.setenv(env.COVERAGE_CACHE.name, "")
        assert env.COVERAGE_CACHE.raw() == ""
        assert not env.COVERAGE_CACHE.is_set()
        assert env.COVERAGE_CACHE.get() is None  # parse_nonempty("") -> None

    def test_parser_errors_propagate(self, monkeypatch):
        monkeypatch.setenv(self.INT_KNOB.name, "not-a-number")
        with pytest.raises(ValueError):
            self.INT_KNOB.get()

    def test_bool_knob(self, monkeypatch):
        knob = env.EnvKnob(
            name="REPRO_TEST_BOOL", default=False, parser=env.parse_bool, doc="t"
        )
        monkeypatch.setenv(knob.name, "yes")
        assert knob.get() is True
        monkeypatch.setenv(knob.name, "0")
        assert knob.get() is False


class TestTemporary:
    def test_set_and_restore(self, monkeypatch):
        monkeypatch.setenv("REPRO_OBS_TRACE", "a.json")
        with env.temporary("REPRO_OBS_TRACE", "b.json"):
            assert os.environ["REPRO_OBS_TRACE"] == "b.json"
        assert os.environ["REPRO_OBS_TRACE"] == "a.json"

    def test_unset_for_scope_then_restore(self, monkeypatch):
        monkeypatch.setenv("REPRO_OBS_TRACE", "b.json")
        with env.temporary("REPRO_OBS_TRACE", None):
            assert "REPRO_OBS_TRACE" not in os.environ
        assert os.environ["REPRO_OBS_TRACE"] == "b.json"

    def test_restores_absence(self, monkeypatch):
        monkeypatch.delenv("REPRO_OBS_TRACE", raising=False)
        with env.temporary("REPRO_OBS_TRACE", "b.json"):
            assert os.environ["REPRO_OBS_TRACE"] == "b.json"
        assert "REPRO_OBS_TRACE" not in os.environ

    def test_restores_on_exception(self, monkeypatch):
        monkeypatch.setenv("REPRO_OBS_TRACE", "a.json")
        with pytest.raises(RuntimeError):
            with env.temporary("REPRO_OBS_TRACE", "b.json"):
                raise RuntimeError("boom")
        assert os.environ["REPRO_OBS_TRACE"] == "a.json"

    def test_non_string_values_are_coerced(self, monkeypatch):
        monkeypatch.delenv("REPRO_TEST_INT", raising=False)
        with env.temporary("REPRO_TEST_INT", 4096):
            assert os.environ["REPRO_TEST_INT"] == "4096"


class TestRegistryHygiene:
    def test_every_knob_is_repro_prefixed_and_documented(self):
        for name, knob in env.REGISTRY.items():
            assert name == knob.name
            assert name.startswith("REPRO_"), name
            assert knob.doc.strip(), f"{name} has no doc"

    def test_declared_knobs(self):
        assert list(env.REGISTRY) == [
            "REPRO_COVERAGE_CACHE",
            "REPRO_POOL_OVERSUBSCRIBE",
            "REPRO_OBS_TRACE",
            "REPRO_OBS_LEDGER",
        ]

    def test_lookup_by_name(self):
        assert env.knob("REPRO_OBS_TRACE") is env.OBS_TRACE
        with pytest.raises(KeyError):
            env.knob("REPRO_NOT_DECLARED")

    def test_duplicate_declaration_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            env._declare(env.OBS_TRACE)

    def test_module_constants_still_expose_names(self):
        # Call sites keep their historical *_ENV constants; they must stay
        # bound to the registry's names.
        from repro.billboard import coverage_cache
        from repro.parallel import pool

        assert coverage_cache.CACHE_ENV == env.COVERAGE_CACHE.name
        assert pool.OVERSUBSCRIBE_ENV == env.POOL_OVERSUBSCRIBE.name
