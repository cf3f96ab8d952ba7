"""The bitmask kernel: alphabet classes, mask tables, flat lazy DFAs.

Every test cross-validates the kernel against a set-based reference —
the seed evaluators, or the brute-force set sweep of
``tests/engine/reference.py`` for the reachability index the seed does
not have — or pins down the kernel's own invariants: class partitioning
with cofinite charsets, the state budget, table sharing.  All tests
carry the ``kernel`` marker, so ``pytest -m kernel`` is the fast loop
for engine work.
"""

import pytest
from hypothesis import given, settings

from repro.alphabet import CharSet
from repro.automata.labels import Open
from repro.automata.thompson import to_va
from repro.automata.va import VA
from repro.engine import compile_va
from repro.engine import kernel as kernel_module
from repro.engine.compiled import compile_spanner
from repro.engine.kernel import AlphabetClasses, FlatOverflow, iter_bits
from repro.engine.oracle import eval_sequential_compiled, node_sweep
from repro.engine.tables import CompiledVA, DocumentIndex
from repro.evaluation.enumerate import enumerate_va_oracle
from repro.evaluation.eval_problem import eval_va
from repro.plan import OPT_LEVELS, plan
from repro.rgx.parser import parse
from repro.rgx.semantics import mappings
from repro.spans.mapping import NULL, ExtendedMapping
from repro.spans.span import all_spans
from repro.workloads.expressions import seller_like_sequential_rgx
from tests.engine.reference import extended_pins, set_index
from tests.strategies import documents, rgx_expressions

pytestmark = pytest.mark.kernel


class TestAlphabetClasses:
    def test_positive_charsets_group_equivalent_letters(self):
        classes = AlphabetClasses([CharSet.of("ab"), CharSet.of("bc")])
        assert classes.classify("a") != classes.classify("b")
        assert classes.classify("b") != classes.classify("c")
        assert classes.classify("a") != classes.classify("c")

    def test_cofinite_charset_gets_a_residual_class(self):
        classes = AlphabetClasses([CharSet.of("ab"), CharSet.excluding(",")])
        # a and b enable exactly the same predicates: one class.
        assert classes.classify("a") == classes.classify("b")
        # every unmentioned character shares the residual class ...
        assert classes.classify("z") == classes.residual
        assert classes.classify("é") == classes.residual
        # ... and the excluded comma is in neither of those classes.
        assert classes.classify(",") not in (
            classes.classify("a"),
            classes.residual,
        )

    def test_residual_never_merges_with_a_mentioned_letter(self):
        # A mentioned character always differs from the residual on the
        # predicate that mentions it (positive: contains; cofinite:
        # excludes), so the residual class is its own class.
        for charsets in (
            [CharSet.excluding("a")],
            [CharSet.of("a"), CharSet.excluding("b")],
            [CharSet.excluding("ab"), CharSet.of("a")],
        ):
            classes = AlphabetClasses(charsets)
            mentioned = {ch for cs in charsets for ch in cs.chars}
            assert all(
                classes.classify(ch) != classes.residual for ch in mentioned
            )

    def test_representatives_are_faithful(self):
        charsets = [CharSet.of("ab"), CharSet.excluding(",x")]
        classes = AlphabetClasses(charsets)
        for char in "abx,z~Q":
            representative = classes.representatives[classes.classify(char)]
            for charset in charsets:
                assert charset.contains(representative) == charset.contains(char)

    def test_intern_maps_text_to_class_ids(self):
        classes = AlphabetClasses([CharSet.of("ab")])
        interned = classes.intern("abz")
        assert interned == (
            classes.classify("a"),
            classes.classify("b"),
            classes.residual,
        )

    def test_no_sym_edges_still_has_a_residual(self):
        classes = AlphabetClasses([])
        assert classes.count == 1
        assert classes.intern("xyz") == (classes.residual,) * 3


class TestKernelTables:
    def test_free_closure_masks_match_set_closure(self):
        cva = compile_va(to_va(parse(".*x{a+}y{b*}.*")))
        for state in range(cva.num_states):
            expected = cva.free_closure({state})
            assert frozenset(iter_bits(cva.kernel.free[state])) == expected
            expected_rev = cva.free_closure_reversed({state})
            assert frozenset(iter_bits(cva.kernel.free_rev[state])) == expected_rev

    def test_class_step_masks_match_step(self):
        cva = compile_va(to_va(seller_like_sequential_rgx(2)))
        kernel = cva.kernel
        for class_id, representative in enumerate(kernel.classes.representatives):
            for state in range(cva.num_states):
                expected = 0
                for target in cva.step(state, representative):
                    expected |= 1 << target
                assert kernel.step[class_id][state] == expected

    def test_flat_dfa_explores_letter_step_then_closure(self):
        cva = compile_va(to_va(seller_like_sequential_rgx(1)))
        kernel = cva.kernel
        dfa = kernel.flat.dfa
        mask = kernel.free[cva.initial]
        class_id = kernel.classes.classify("f")
        seeds = 0
        for state in iter_bits(mask):
            seeds |= kernel.step[class_id][state]
        expected = 0
        for state in iter_bits(seeds):
            expected |= kernel.free[state]
        assert dfa.successor(mask, class_id) == expected
        sid = dfa.intern(mask)
        target = dfa.explore(sid, class_id)
        assert dfa.masks[target] == expected
        assert dfa.rows[sid][class_id] == target  # memoised in the row

    def test_flat_dfa_is_bounded(self, monkeypatch):
        cva = CompiledVA(to_va(seller_like_sequential_rgx(1)))
        kernel = cva.kernel
        dfa = kernel.flat.dfa
        monkeypatch.setattr(kernel_module, "FLAT_STATE_LIMIT", 1)
        with pytest.raises(FlatOverflow):
            dfa.intern(kernel.free[cva.initial])
        # Past the budget the walk still computes every mask, uninterned.
        classes = kernel.flat.intern("f0=a;")
        masks = dfa.walk(kernel.free[cva.initial], classes)
        assert masks[0] == kernel.free[cva.initial]
        for before, after, class_id in zip(masks, masks[1:], classes):
            assert after == dfa.successor(before, class_id)
        assert dfa.masks == [0]

    def test_intern_cache_verifies_text_on_hit(self):
        cva = compile_va(to_va(seller_like_sequential_rgx(1)))
        kernel = cva.kernel
        first = kernel.intern("f0=a;")
        assert kernel.intern("f0=a;") is first  # cached
        assert kernel.intern("f0=b;") != ()  # different text, no false hit


class TestKernelAgainstSets:
    """The kernel against set-based references (seed and brute force)."""

    @given(expression=rgx_expressions(), document=documents())
    @settings(max_examples=60, deadline=None)
    def test_document_index_matches_set_index(self, expression, document):
        compiled = plan(expression, opt_level=1)
        cva = compile_va(compiled.automaton)
        index = DocumentIndex(cva, document)
        assert (index.reach, index.coreach) == set_index(cva, document)
        for mapping in mappings(expression, document):
            for variable, span in mapping.items():
                assert span in index.candidate_spans(variable)

    @given(
        expression=rgx_expressions(),
        document=documents(max_length=5),
        pinned=extended_pins(),
    )
    @settings(max_examples=60, deadline=None)
    def test_sequential_eval_matches_sets(self, expression, document, pinned):
        automaton = plan(expression, opt_level=1).automaton
        cva = compile_va(automaton)
        if not cva.is_sequential:
            return
        assert eval_sequential_compiled(cva, document, pinned) == eval_va(
            automaton, document, pinned
        )

    @given(expression=rgx_expressions(), document=documents(max_length=5))
    @settings(max_examples=40, deadline=None)
    def test_node_sweep_matches_set_sweep(self, expression, document):
        automaton = plan(expression, opt_level=1).automaton
        cva = compile_va(automaton)
        if not cva.is_sequential or not cva.mentioned_variables:
            return
        variable = sorted(cva.mentioned_variables)[0]
        node = node_sweep(cva, document, {}, variable)
        assert node.accepts_null() == eval_va(
            automaton, document, ExtendedMapping({variable: NULL})
        )
        for span in all_spans(len(document)):
            assert node.accepts_span(span) == eval_va(
                automaton, document, ExtendedMapping({variable: span})
            ), span

    @given(expression=rgx_expressions(), document=documents())
    @settings(max_examples=40, deadline=None)
    def test_mappings_identical_at_every_opt_level(self, expression, document):
        expected = mappings(expression, document)
        for level in OPT_LEVELS:
            engine = compile_spanner(expression, opt_level=level)
            assert engine.mappings(document) == expected

    def test_sequentialised_non_sequential_source(self):
        # The e21 trick: a bogus unusable open makes the source fail the
        # sequentiality check; planning sequentialises it, and the kernel
        # then runs the Theorem-5.7 sweep on the planned automaton.
        base = to_va(seller_like_sequential_rgx(2))
        looped = base.transitions + ((base.final, Open("v0"), base.final),)
        automaton = VA(base.num_states, base.initial, base.final, looped)
        document = "f0=ab;f1=cd;"
        engine = compile_spanner(automaton, opt_level=1)
        assert engine.tables.is_sequential  # the plan sequentialised it
        expected = set(enumerate_va_oracle(automaton, document))
        assert engine.mappings(document) == expected
        assert expected  # the workload must actually produce mappings


class TestKernelSharing:
    def test_flat_states_shared_across_documents(self):
        engine = compile_spanner(".*x{a+}.*")
        assert engine.mappings("baa")
        states = engine.kernel_stats()["flat_states"]
        assert states > 0
        assert engine.mappings("aab")  # same classes: mostly interned hits
        assert engine.kernel_stats()["flat_states"] >= states
