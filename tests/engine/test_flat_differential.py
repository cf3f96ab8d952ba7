"""Differential harness: the flat-table engine against the seed.

The flat layer (:class:`~repro.engine.kernel.FlatTables` and the
:class:`~repro.engine.oracle.FlatNodeSweep`) is the one sequential
engine; past :data:`~repro.engine.kernel.FLAT_STATE_LIMIT` it hands
work to the Theorem 5.10 general sweep.  Every test here runs the same
input through the engine and through the seed's set-based reference
(:func:`~repro.evaluation.eval_problem.eval_va`,
:func:`~repro.evaluation.enumerate.enumerate_va_oracle`,
:func:`repro.rgx.semantics.mappings`) and asserts *identical*
observable output: index contents, sweep verdicts, enumeration order,
decoded mappings — with the state budget at its default and forced to
overflow.

These tests carry the ``differential`` marker: the hypothesis budget
defaults low so the tier-1 run stays fast, and the dedicated CI job
raises it through ``REPRO_DIFFERENTIAL_EXAMPLES``.
"""

import pytest
from hypothesis import given, settings

from repro.automata.labels import Open
from repro.automata.thompson import to_va
from repro.automata.va import VA
from repro.engine import compile_va
from repro.engine import kernel as kernel_module
from repro.engine import oracle as oracle_module
from repro.engine.compiled import compile_spanner
from repro.engine.oracle import (
    FlatNodeSweep,
    GeneralNode,
    eval_general_compiled,
    eval_sequential_flat,
    node_sweep,
)
from repro.engine.tables import CompiledVA, DocumentIndex
from repro.evaluation.enumerate import enumerate_va_oracle
from repro.evaluation.eval_problem import eval_va
from repro.plan import OPT_LEVELS, plan
from repro.rgx.parser import parse
from repro.rgx.semantics import mappings
from repro.spans.mapping import NULL, ExtendedMapping
from repro.spans.span import Span, all_spans
from repro.workloads.expressions import seller_like_sequential_rgx
from tests.conftest import differential_examples
from tests.engine.reference import extended_pins, set_index
from tests.strategies import documents, rgx_expressions

pytestmark = [pytest.mark.kernel, pytest.mark.differential]

EXAMPLES = differential_examples()


def _pinned(base: dict, variable, value) -> ExtendedMapping:
    pins = dict(base)
    pins[variable] = value
    return ExtendedMapping(pins)


def _node_bases(cva: CompiledVA, variable) -> list[dict]:
    """The unpinned base, plus one with another variable pinned to ⊥."""
    others = sorted(cva.mentioned_variables - {variable})
    return [{}] + ([{others[0]: NULL}] if others else [])


def _assert_node_matches_seed(node, automaton, document, base, variable):
    assert node.accepts_null() == eval_va(
        automaton, document, _pinned(base, variable, NULL)
    )
    for span in all_spans(len(document)):
        assert node.accepts_span(span) == eval_va(
            automaton, document, _pinned(base, variable, span)
        ), (span, base)


class TestFlatAgainstDictAndSets:
    """Hypothesis sweeps: the flat engine against the seed's set sweeps."""

    @given(expression=rgx_expressions(), document=documents())
    @settings(max_examples=EXAMPLES, deadline=None)
    def test_document_index_three_ways(self, expression, document):
        """Flat index vs brute-force set sweep vs the seed's output spans."""
        expected = mappings(expression, document)
        for level in OPT_LEVELS:
            cva = compile_va(plan(expression, opt_level=level).automaton)
            index = DocumentIndex(cva, document)
            reach, coreach = set_index(cva, document)
            assert index.reach == reach
            assert index.coreach == coreach
            for mapping in expected:
                for variable, span in mapping.items():
                    assert span in index.candidate_spans(variable)

    @given(
        expression=rgx_expressions(),
        document=documents(max_length=5),
        pinned=extended_pins(),
    )
    @settings(max_examples=EXAMPLES, deadline=None)
    def test_sequential_eval_three_ways(self, expression, document, pinned):
        """Flat sweep vs general sweep vs seed, ⊥ pins included."""
        for level in OPT_LEVELS:
            automaton = plan(expression, opt_level=level).automaton
            cva = compile_va(automaton)
            if not cva.is_sequential:
                continue
            kernel = cva.kernel
            verdict = eval_sequential_flat(cva, document, pinned, kernel, kernel.flat)
            assert verdict == eval_general_compiled(cva, document, pinned)
            assert verdict == eval_va(automaton, document, pinned)

    @given(expression=rgx_expressions(), document=documents(max_length=5))
    @settings(max_examples=EXAMPLES, deadline=None)
    def test_node_sweep_three_ways(self, expression, document):
        """Every span verdict — and so the enumeration order — agrees.

        Queries run in candidate order (``i``-major), the access pattern
        the flat sweep's lazy open-sweep and backward co-acceptance
        caches are built for; querying *all* spans additionally hits the
        cache-extension and dead-state paths.
        """
        for level in OPT_LEVELS:
            automaton = plan(expression, opt_level=level).automaton
            cva = compile_va(automaton)
            if not cva.is_sequential:
                continue
            kernel = cva.kernel
            for variable in sorted(cva.mentioned_variables):
                for base in _node_bases(cva, variable):
                    flat_node = FlatNodeSweep(
                        cva, document, base, variable, kernel, kernel.flat
                    )
                    general_node = GeneralNode(cva, document, base, variable)
                    assert flat_node.accepts_null() == general_node.accepts_null()
                    _assert_node_matches_seed(
                        flat_node, automaton, document, base, variable
                    )

    @given(expression=rgx_expressions(), document=documents())
    @settings(max_examples=EXAMPLES, deadline=None)
    def test_mappings_identical_at_every_opt_level(self, expression, document):
        expected = mappings(expression, document)
        for level in OPT_LEVELS:
            engine = compile_spanner(expression, opt_level=level)
            assert engine.mappings(document) == expected

    @given(expression=rgx_expressions(), document=documents(max_length=5))
    @settings(max_examples=EXAMPLES, deadline=None)
    def test_decoded_enumeration_order_matches(self, expression, document):
        """``enumerate`` is ordered — the engine must not reorder it."""
        for level in OPT_LEVELS:
            engine = compile_spanner(expression, opt_level=level)
            assert list(engine.enumerate(document)) == list(
                enumerate_va_oracle(engine.automaton, document)
            )


class TestFlatEdgeCases:
    """Deterministic corners the hypothesis grammar rarely reaches."""

    COFINITE = ".*x{[^,;]+};.*"

    def test_cofinite_charset_with_residual_heavy_document(self):
        # 'Q', '~' and 'é' are unmentioned: all land in the residual
        # class; ',' and ';' are excluded/mentioned and must not.
        document = "Q~é,ab;tail"
        out = compile_spanner(self.COFINITE).mappings(document)
        assert out == mappings(parse(self.COFINITE), document)
        assert out  # the corner must actually produce mappings

    @pytest.mark.parametrize("document", ["", "a", "z", "zzzz"])
    def test_tiny_and_all_residual_documents(self, document):
        for expression in (".*x{a+}.*", "x{a*}", self.COFINITE):
            assert compile_spanner(expression).mappings(document) == mappings(
                parse(expression), document
            )

    def test_sequentialised_source_runs_flat(self):
        # The e21 trick: a bogus unusable open makes the source fail the
        # sequentiality check; planning sequentialises it and the flat
        # sweep must agree with the seed on the source automaton.
        base = to_va(seller_like_sequential_rgx(2))
        looped = base.transitions + ((base.final, Open("v0"), base.final),)
        automaton = VA(base.num_states, base.initial, base.final, looped)
        document = "f0=ab;f1=cd;"
        engine = compile_spanner(automaton, opt_level=1)
        assert engine.tables.is_sequential
        out = engine.mappings(document)
        assert out == set(enumerate_va_oracle(automaton, document))
        assert out

    def test_non_sequential_pins_hit_the_flat_context_path(self):
        # Pinned variables build restricted sweep contexts; the flat
        # layer shares or forks its DFA per context.  Cross-check the
        # verdict for every pin of one variable over a short document.
        expression = parse(".*x{a+}y{b*}.*")
        automaton = plan(expression, opt_level=1).automaton
        cva = compile_va(automaton)
        kernel = cva.kernel
        document = "aabb"
        for span in all_spans(len(document)):
            for pins in (
                ExtendedMapping({"x": span}),
                ExtendedMapping({"x": span, "y": NULL}),
            ):
                verdict = eval_sequential_flat(
                    cva, document, pins, kernel, kernel.flat
                )
                assert verdict == eval_general_compiled(cva, document, pins)
                assert verdict == eval_va(automaton, document, pins), (span, pins)


OVERFLOW_CASES = [
    (".*x{a+}.*", ["", "b", "baab", "abba"]),
    (".*x{a+}y{b*}.*", ["ab", "aabb", "bab"]),
    ("(a|b)*x{(ab)+}y{b*}(a|b)*", ["abab", "babb"]),
    (".*x{[^,;]+};.*", ["Q~é,ab;t", ";"]),
]


@pytest.fixture
def fresh_tables():
    """Drop cached compiled automata so no test reuses warm flat DFAs."""
    compile_va.cache_clear()
    yield
    compile_va.cache_clear()


@pytest.fixture
def general_calls(monkeypatch):
    """Count calls into the general sweep (the overflow fallback)."""
    calls = []
    original = oracle_module.eval_general_compiled

    def spy(cva, text, pinned):
        calls.append(text)
        return original(cva, text, pinned)

    monkeypatch.setattr(oracle_module, "eval_general_compiled", spy)
    return calls


class TestFlatOverflow:
    """Past the state budget: same outputs, on the general sweep.

    ``FLAT_STATE_LIMIT`` is patched in-process to 1 — the dead state
    alone fills it, so every fresh flat DFA overflows on its first new
    state.  Each overflow site must still return the seed's answer.
    """

    @pytest.mark.parametrize("expression, batch", OVERFLOW_CASES)
    @pytest.mark.parametrize("level", OPT_LEVELS)
    def test_engine_outputs_equal_seed(
        self, expression, batch, level, fresh_tables, general_calls, monkeypatch
    ):
        monkeypatch.setattr(kernel_module, "FLAT_STATE_LIMIT", 1)
        engine = compile_spanner(expression, opt_level=level)
        automaton = engine.automaton
        rgx = parse(expression)
        assert engine.matches_many(batch) == [bool(mappings(rgx, d)) for d in batch]
        for document in batch:
            expected = mappings(rgx, document)
            assert engine.mappings(document) == expected
            assert list(engine.enumerate(document)) == list(
                enumerate_va_oracle(automaton, document)
            )
            assert engine.extract(document) == [
                {v: s.content(document) for v, s in m.items()}
                for m in sorted(expected, key=lambda m: sorted(m.items()))
            ]
            assert engine.matches(document) == bool(expected)
            for variable in sorted(engine.variables):
                for value in (NULL, Span(1, len(document) + 1)):
                    pins = ExtendedMapping({variable: value})
                    assert engine.eval(document, pins) == eval_va(
                        automaton, document, pins
                    )
        if engine.is_sequential:
            assert general_calls  # the overflow really took the fallback
        assert len(engine.tables.kernel.flat.dfa.masks) == 1

    @pytest.mark.parametrize("expression, batch", OVERFLOW_CASES)
    def test_index_build_steps_raw_masks(
        self, expression, batch, fresh_tables, monkeypatch
    ):
        monkeypatch.setattr(kernel_module, "FLAT_STATE_LIMIT", 1)
        cva = compile_va(plan(expression, opt_level=1).automaton)
        for document in batch:
            index = DocumentIndex(cva, document)
            assert (index.reach, index.coreach) == set_index(cva, document)
            for mapping in mappings(parse(expression), document):
                for variable, span in mapping.items():
                    assert span in index.candidate_spans(variable)
        flat = cva.kernel.flat
        assert len(flat.dfa.masks) == len(flat.dfa_rev.masks) == 1

    @pytest.mark.parametrize("expression, batch", OVERFLOW_CASES)
    def test_node_construction_overflow_yields_general_node(
        self, expression, batch, fresh_tables, monkeypatch
    ):
        monkeypatch.setattr(kernel_module, "FLAT_STATE_LIMIT", 1)
        automaton = plan(expression, opt_level=1).automaton
        cva = compile_va(automaton)
        assert cva.is_sequential
        for document in batch:
            for variable in sorted(cva.mentioned_variables):
                for base in _node_bases(cva, variable):
                    node = node_sweep(cva, document, base, variable)
                    assert isinstance(node, GeneralNode)
                    _assert_node_matches_seed(
                        node, automaton, document, base, variable
                    )

    @pytest.mark.parametrize("base", [{}, {"y": NULL}])
    @pytest.mark.parametrize("first", ["open_sweep", "coaccept"])
    def test_mid_query_overflow_delegates_to_general_node(
        self, first, base, fresh_tables, monkeypatch
    ):
        """A node built within budget overflows on its first span query.

        An empty span ``(i, i)`` skips the open sweep and overflows in
        the backward co-acceptance sweep; a non-empty one overflows in
        the open sweep.  Either way that query and every later one are
        answered by the general sweep, under the node's own base pins.
        """
        automaton = plan(".*x{a*}.*y{b*}.*", opt_level=1).automaton
        cva = compile_va(automaton)
        document = "baab"
        kernel = cva.kernel
        node = FlatNodeSweep(cva, document, base, "x", kernel, kernel.flat)
        monkeypatch.setattr(kernel_module, "FLAT_STATE_LIMIT", 1)
        span = Span(2, 2) if first == "coaccept" else Span(2, 4)
        assert node.accepts_span(span) == eval_va(
            automaton, document, _pinned(base, "x", span)
        )
        assert isinstance(node._fallback, GeneralNode)
        _assert_node_matches_seed(node, automaton, document, base, "x")
