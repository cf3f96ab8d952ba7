"""The vector layer against the per-document flat path, bit for bit.

:mod:`repro.engine.vector` advances a whole corpus batch through the
flat DFA in lockstep; the contract is that every observable output —
NonEmp verdicts, document indexes, candidate spans, mapping sets,
enumeration order — is *identical* to the per-document flat path and to
the seed's set-based reference.  The hypothesis sweeps here run the same
batches with the layer on and off at every opt level; the deterministic
tests cover the gates, the fallbacks, and the environment overrides.
"""

import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import compile_va
from repro.engine.compiled import compile_spanner
from repro.engine.kernel import numpy_or_none
from repro.engine.tables import DocumentIndex
from repro.engine.vector import (
    batch_accept,
    batch_index,
    batch_reach,
    vector_disabled,
    vector_enabled,
)
from repro.plan import OPT_LEVELS, plan
from repro.rgx.parser import parse
from repro.rgx.semantics import mappings
from tests.strategies import documents, rgx_expressions

pytestmark = [pytest.mark.kernel, pytest.mark.differential]

requires_numpy = pytest.mark.skipif(
    numpy_or_none() is None, reason="numpy unavailable or disabled"
)

PATTERNS = [
    ".*x{a+}.*",
    "(a|b)*x{(ab)+}y{b*}(a|b)*",
    ".*u{ab*}v{ba}.*",
    "a*x{a|b}b*",
]

BATCH = ["", "a", "b", "ab", "ba", "aabba", "ab" * 20, "b" * 7, "abab" + "b" * 5]


def _examples(default: int = 25) -> int:
    try:
        value = int(os.environ.get("REPRO_DIFFERENTIAL_EXAMPLES", ""))
    except ValueError:
        return default
    return value if value > 0 else default


EXAMPLES = _examples()


class TestGates:
    def test_vector_disabled_context(self):
        before = vector_enabled()
        with vector_disabled():
            assert not vector_enabled()
        assert vector_enabled() == before

    def test_no_vector_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_VECTOR", "1")
        assert not vector_enabled()
        monkeypatch.setenv("REPRO_NO_VECTOR", "0")
        # "0" means enabled — the 0/1 convention all REPRO_NO_* knobs share.
        assert vector_enabled() == (numpy_or_none() is not None)

    def test_no_numpy_env_gates_the_layer(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_NUMPY", "1")
        assert numpy_or_none() is None
        assert not vector_enabled()

    @requires_numpy
    def test_batch_helpers_return_none_when_disabled(self):
        cva = compile_va(plan(parse(PATTERNS[0]), opt_level=1).automaton)
        with vector_disabled():
            assert batch_accept(cva, BATCH) is None
            assert batch_index(cva, BATCH) is None
            assert batch_reach(cva, BATCH) is None


@requires_numpy
class TestBatchFunctions:
    @pytest.mark.parametrize("pattern", PATTERNS)
    def test_batch_accept_matches_per_document_eval(self, pattern):
        engine = compile_spanner(pattern)
        cva = engine._cva
        verdicts = batch_accept(cva, BATCH)
        assert verdicts is not None
        assert verdicts == [engine.eval(text, {}) for text in BATCH]

    @pytest.mark.parametrize("pattern", PATTERNS)
    def test_batch_index_matches_per_document_index(self, pattern):
        cva = compile_va(plan(parse(pattern), opt_level=1).automaton)
        indexes = batch_index(cva, BATCH)
        assert indexes is not None
        for text, index in zip(BATCH, indexes):
            with vector_disabled():
                reference = DocumentIndex(cva, text)
            assert index.reach == reference.reach
            assert index.coreach == reference.coreach
            for variable in sorted(cva.variables):
                assert index.candidate_spans(variable) == (
                    reference.candidate_spans(variable)
                ), (text, variable)

    def test_empty_batch(self):
        cva = compile_va(plan(parse(PATTERNS[0]), opt_level=1).automaton)
        assert batch_accept(cva, []) == []
        assert batch_index(cva, []) == []

    def test_all_empty_documents(self):
        engine = compile_spanner("x{a*}")
        verdicts = batch_accept(engine._cva, ["", "", ""])
        assert verdicts == [engine.eval("", {}), True, True]


class TestCompiledBatchApi:
    @pytest.mark.parametrize("pattern", PATTERNS)
    def test_matches_many_identical_with_layer_off(self, pattern):
        with vector_disabled():
            expected = compile_spanner(pattern).matches_many(BATCH)
        engine = compile_spanner(pattern)
        assert engine.matches_many(BATCH) == expected
        # Second call is served from the verdict cache, same answers.
        assert engine.matches_many(BATCH) == expected

    @pytest.mark.parametrize("pattern", PATTERNS)
    def test_evaluate_many_identical_with_layer_off(self, pattern):
        with vector_disabled():
            expected = compile_spanner(pattern).evaluate_many(BATCH)
        assert compile_spanner(pattern).evaluate_many(BATCH) == expected

    def test_extraction_order_survives_prewarm(self):
        engine = compile_spanner(PATTERNS[1])
        engine.prewarm(BATCH)
        with vector_disabled():
            reference = compile_spanner(PATTERNS[1])
            for text in BATCH:
                assert list(engine.extract(text)) == list(
                    reference.extract(text)
                )


class TestHypothesisDifferential:
    """The acceptance sweep: batches at every opt level, layer on vs off."""

    @given(
        expression=rgx_expressions(),
        batch=st.lists(documents(), min_size=0, max_size=6),
    )
    @settings(max_examples=EXAMPLES, deadline=None)
    def test_matches_many_every_opt_level(self, expression, batch):
        for level in OPT_LEVELS:
            with vector_disabled():
                expected = compile_spanner(
                    expression, opt_level=level
                ).matches_many(batch)
            actual = compile_spanner(expression, opt_level=level).matches_many(
                batch
            )
            assert actual == expected

    @given(
        expression=rgx_expressions(),
        batch=st.lists(documents(), min_size=0, max_size=4),
    )
    @settings(max_examples=EXAMPLES, deadline=None)
    def test_evaluate_many_every_opt_level(self, expression, batch):
        for level in OPT_LEVELS:
            with vector_disabled():
                expected = compile_spanner(
                    expression, opt_level=level
                ).evaluate_many(batch)
            actual = compile_spanner(
                expression, opt_level=level
            ).evaluate_many(batch)
            assert actual == expected

    @given(
        expression=rgx_expressions(),
        batch=st.lists(documents(), min_size=1, max_size=4),
    )
    @settings(max_examples=EXAMPLES, deadline=None)
    def test_vector_agrees_with_seed(self, expression, batch):
        for level in OPT_LEVELS:
            engine = compile_spanner(expression, opt_level=level)
            assert engine.evaluate_many(batch) == [
                mappings(expression, document) for document in batch
            ]
            assert engine.matches_many(batch) == [
                bool(mappings(expression, document)) for document in batch
            ]


SUBPROCESS_CHECK = """
import os
from repro.engine.compiled import compile_spanner
from repro.engine.vector import vector_disabled
batch = ["", "a", "ab", "ba" * 9, "aabba"]
engine = compile_spanner(".*x{a+}.*")
vec = engine.matches_many(batch), engine.evaluate_many(batch)
with vector_disabled():
    ref_engine = compile_spanner(".*x{a+}.*")
    ref = ref_engine.matches_many(batch), ref_engine.evaluate_many(batch)
assert vec == ref, (vec, ref)
print("IDENTICAL")
"""


def _run(env_overrides, code=SUBPROCESS_CHECK):
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    env.update(env_overrides)
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )


class TestEnvironmentOverrides:
    """The REPRO_FLAT_STATE_LIMIT / REPRO_NUMPY_INTERN_MIN knobs.

    Process-wide constants, so each case runs in a fresh interpreter.
    """

    def test_tiny_flat_state_limit_still_identical(self):
        # A limit this small overflows immediately: every path falls back
        # to raw masks or the general sweep, and outputs must not change.
        result = _run({"REPRO_FLAT_STATE_LIMIT": "2"})
        assert result.returncode == 0, result.stderr
        assert "IDENTICAL" in result.stdout

    def test_numpy_intern_threshold_zero_still_identical(self):
        # Threshold 1 interns even one-character documents via numpy.
        result = _run({"REPRO_NUMPY_INTERN_MIN": "1"})
        assert result.returncode == 0, result.stderr
        assert "IDENTICAL" in result.stdout

    @pytest.mark.parametrize("value", ["banana", "-3", "0"])
    def test_invalid_override_warns_and_uses_default(self, value):
        probe = (
            "import warnings\n"
            "with warnings.catch_warnings(record=True) as caught:\n"
            "    warnings.simplefilter('always')\n"
            "    from repro.engine import kernel\n"
            "assert kernel.FLAT_STATE_LIMIT == 1 << 12, kernel.FLAT_STATE_LIMIT\n"
            "assert any('REPRO_FLAT_STATE_LIMIT' in str(w.message) for w in caught)\n"
            "print('DEFAULTED')\n"
        )
        result = _run({"REPRO_FLAT_STATE_LIMIT": value}, code=probe)
        assert result.returncode == 0, result.stderr
        assert "DEFAULTED" in result.stdout

    def test_valid_override_is_respected(self):
        probe = (
            "from repro.engine import kernel\n"
            "assert kernel.FLAT_STATE_LIMIT == 99, kernel.FLAT_STATE_LIMIT\n"
            "print('APPLIED')\n"
        )
        result = _run({"REPRO_FLAT_STATE_LIMIT": "99"}, code=probe)
        assert result.returncode == 0, result.stderr
        assert "APPLIED" in result.stdout

    def test_no_vector_env_still_identical(self):
        result = _run({"REPRO_NO_VECTOR": "1"})
        assert result.returncode == 0, result.stderr
        assert "IDENTICAL" in result.stdout

    def test_no_numpy_env_still_identical(self):
        result = _run({"REPRO_NO_NUMPY": "1"})
        assert result.returncode == 0, result.stderr
        assert "IDENTICAL" in result.stdout
