"""The vector layer and the batch API against the seed, bit for bit.

:mod:`repro.engine.vector` answers NonEmp for a whole batch with one
lockstep forward sweep (:func:`~repro.engine.vector.batch_accept`);
:meth:`~repro.engine.compiled.CompiledSpanner.matches_many` falls back
to one verdict per document whenever it returns ``None``.  The contract
is that both give the seed's verdicts — ``Eval`` with the empty mapping
(:func:`~repro.evaluation.eval_problem.eval_va`) and non-emptiness of
:func:`repro.rgx.semantics.mappings` — and that the mapping batches
(:meth:`~repro.engine.compiled.CompiledSpanner.evaluate_many`,
:func:`~repro.service.evaluate.evaluate_records`) give the seed's
mapping sets, ⊥ cases included.  The hypothesis sweeps run at every opt
level; the deterministic tests cover the gates, the fallback, and the
environment overrides.
"""

import os
import subprocess
import sys
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import compile_va, kernel
from repro.engine.compiled import compile_spanner
from repro.engine.kernel import numpy_or_none
from repro.engine.vector import batch_accept, vector_enabled
from repro.evaluation.enumerate import enumerate_va_oracle
from repro.evaluation.eval_problem import eval_va
from repro.plan import OPT_LEVELS, plan
from repro.rgx.parser import parse
from repro.rgx.semantics import mappings
from repro.service.evaluate import evaluate_records
from repro.spans.mapping import ExtendedMapping
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


def seed_verdicts(expression, batch):
    """NonEmp per document from the seed's RGX semantics."""
    return [bool(mappings(expression, document)) for document in batch]


def per_document():
    """Force the per-document fallback of ``matches_many``."""
    return mock.patch("repro.engine.compiled.batch_accept", lambda cva, texts: None)


def _decoded(text, output):
    """``CompiledSpanner.extract``'s order and shape, from a mapping set."""
    return tuple(
        {variable: span.content(text) for variable, span in mapping.items()}
        for mapping in sorted(output, key=lambda m: sorted(m.items()))
    )


class TestGates:
    def test_no_numpy_env_gates_the_layer(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_NUMPY", "1")
        assert numpy_or_none() is None
        assert not vector_enabled()

    def test_batch_helpers_return_none_when_disabled(self, monkeypatch):
        sequential = compile_va(plan(parse(PATTERNS[0]), opt_level=1).automaton)
        # Unplanned, a starred variable may open twice on some run.
        general = compile_spanner("(x{a})*", opt_level=0).tables
        assert not general.is_sequential
        assert batch_accept(general, BATCH) is None
        monkeypatch.setenv("REPRO_NO_NUMPY", "1")
        assert batch_accept(sequential, BATCH) is None


@requires_numpy
class TestBatchFunctions:
    @pytest.mark.parametrize("pattern", PATTERNS)
    def test_batch_accept_matches_per_document_eval(self, pattern):
        engine = compile_spanner(pattern)
        verdicts = batch_accept(engine.tables, BATCH)
        assert verdicts is not None
        empty = ExtendedMapping.empty()
        assert verdicts == [eval_va(engine.automaton, text, empty) for text in BATCH]
        assert verdicts == seed_verdicts(parse(pattern), BATCH)

    def test_empty_batch(self):
        cva = compile_va(plan(parse(PATTERNS[0]), opt_level=1).automaton)
        assert batch_accept(cva, []) == []

    def test_all_empty_documents(self):
        engine = compile_spanner("x{a*}")
        verdicts = batch_accept(engine.tables, ["", "", ""])
        assert verdicts == [engine.eval("", {}), True, True]
        assert verdicts == seed_verdicts(parse("x{a*}"), ["", "", ""])

    def test_documents_of_uneven_length_keep_their_final_state(self):
        # Short lanes finish long before the widest one: padding must
        # leave each verdict where its own document ended.
        engine = compile_spanner("x{a}b*")
        batch = ["a", "ab", "a" + "b" * 70, "b", "ba", "a" + "b" * 70 + "a"]
        assert batch_accept(engine.tables, batch) == seed_verdicts(
            parse("x{a}b*"), batch
        )


class TestCompiledBatchApi:
    @pytest.mark.parametrize("pattern", PATTERNS)
    def test_matches_many_identical_with_layer_off(self, pattern):
        expected = seed_verdicts(parse(pattern), BATCH)
        with per_document():
            assert compile_spanner(pattern).matches_many(BATCH) == expected
        engine = compile_spanner(pattern)
        assert engine.matches_many(BATCH) == expected
        # Second call is served from the verdict cache, same answers.
        assert engine.matches_many(BATCH) == expected

    @pytest.mark.parametrize("pattern", PATTERNS)
    def test_evaluate_many_identical_with_layer_off(self, pattern):
        expected = [mappings(parse(pattern), text) for text in BATCH]
        with per_document():
            assert compile_spanner(pattern).evaluate_many(BATCH) == expected
        assert compile_spanner(pattern).evaluate_many(BATCH) == expected

    def test_per_document_fallback_fills_the_verdict_cache(self):
        engine = compile_spanner(PATTERNS[0])
        with per_document():
            engine.matches_many(BATCH)
        stats = engine.cache_stats()
        assert stats["verdict_misses"] == len(BATCH)
        assert engine.matches_many(BATCH) == seed_verdicts(parse(PATTERNS[0]), BATCH)
        assert engine.cache_stats()["verdict_hits"] == len(BATCH)

    @pytest.mark.parametrize("pattern", ["x{a}|y{b}", "(x{a}|b)*y{b*}"])
    def test_evaluate_records_every_kind_with_bottom(self, pattern):
        # Each mapping leaves a variable unassigned (⊥) on some documents.
        expression = parse(pattern)
        records = [(f"d{n}", text) for n, text in enumerate(BATCH)]
        engine = compile_spanner(pattern)
        seed = [mappings(expression, text) for _, text in records]
        assert any(
            len(mapping) < 2 for output in seed for mapping in output
        ), "the pattern must produce partial mappings"
        assert evaluate_records(engine, records, kind="matches") == [
            (doc_id, bool(output), None) for (doc_id, _), output in zip(records, seed)
        ]
        assert evaluate_records(engine, records, kind="mappings") == [
            (doc_id, frozenset(output), None)
            for (doc_id, _), output in zip(records, seed)
        ]
        assert evaluate_records(engine, records, kind="extract") == [
            (doc_id, _decoded(text, output), None)
            for (doc_id, text), output in zip(records, seed)
        ]


class TestHypothesisDifferential:
    """The acceptance sweep: batches at every opt level, against the seed."""

    @given(
        expression=rgx_expressions(),
        batch=st.lists(documents(), min_size=0, max_size=6),
    )
    @settings(max_examples=EXAMPLES, deadline=None)
    def test_matches_many_every_opt_level(self, expression, batch):
        expected = seed_verdicts(expression, batch)
        for level in OPT_LEVELS:
            with per_document():
                fallback = compile_spanner(
                    expression, opt_level=level
                ).matches_many(batch)
            actual = compile_spanner(expression, opt_level=level).matches_many(
                batch
            )
            assert fallback == expected
            assert actual == expected

    @given(
        expression=rgx_expressions(),
        batch=st.lists(documents(), min_size=0, max_size=4),
    )
    @settings(max_examples=EXAMPLES, deadline=None)
    def test_evaluate_many_every_opt_level(self, expression, batch):
        expected = [mappings(expression, document) for document in batch]
        for level in OPT_LEVELS:
            engine = compile_spanner(expression, opt_level=level)
            assert engine.evaluate_many(batch) == expected
            for document in batch:
                assert list(engine.enumerate(document)) == list(
                    enumerate_va_oracle(engine.automaton, document)
                )

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
from repro.engine.compiled import compile_spanner
from repro.rgx.parser import parse
from repro.rgx.semantics import mappings
batch = ["", "a", "ab", "ba" * 9, "aabba"]
engine = compile_spanner(".*x{a+}.*")
got = engine.matches_many(batch), engine.evaluate_many(batch)
seed = [mappings(parse(".*x{a+}.*"), text) for text in batch]
want = [bool(output) for output in seed], seed
assert got == want, (got, want)
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
    """The engine's process-wide constants, checked against the seed.

    ``REPRO_FLAT_STATE_LIMIT`` and ``REPRO_NO_NUMPY`` are read from the
    environment, so each of those cases runs in a fresh interpreter; the
    numpy interning threshold is a module constant patched in process.
    """

    def test_tiny_flat_state_limit_still_identical(self):
        # A limit this small overflows immediately: every path falls back
        # to raw masks or the general sweep, and outputs must not change.
        result = _run({"REPRO_FLAT_STATE_LIMIT": "2"})
        assert result.returncode == 0, result.stderr
        assert "IDENTICAL" in result.stdout

    @requires_numpy
    def test_numpy_intern_threshold_zero_still_identical(self, monkeypatch):
        # Threshold 1 interns even one-character documents via numpy.
        monkeypatch.setattr(kernel, "_NUMPY_INTERN_MIN", 1)
        # Fresh texts, so no earlier test left them in the intern cache.
        batch = [text + "ba" * 5 for text in BATCH]
        for pattern in PATTERNS:
            expression = parse(pattern)
            engine = compile_spanner(pattern)
            assert engine.matches_many(batch) == seed_verdicts(expression, batch)
            assert engine.evaluate_many(batch) == [
                mappings(expression, text) for text in batch
            ]
            assert engine.tables.kernel.flat._np_table is not None

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

    def test_no_numpy_env_still_identical(self):
        result = _run({"REPRO_NO_NUMPY": "1"})
        assert result.returncode == 0, result.stderr
        assert "IDENTICAL" in result.stdout
