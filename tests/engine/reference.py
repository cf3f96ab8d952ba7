"""Brute-force references for the engine suites.

The seed evaluators (:mod:`repro.evaluation`, :mod:`repro.rgx.semantics`)
are the reference for every engine *output*.  The seed has no
reachability index, so the document index is checked against the plain
set sweep below: state sets as Python sets, one worklist closure per
position, no alphabet classes, masks or interning.
"""

from hypothesis import strategies as st

from repro.engine.tables import CompiledVA
from repro.spans.mapping import NULL, ExtendedMapping
from repro.spans.span import Span
from tests.strategies import VARIABLES


def set_index(cva: CompiledVA, text: str):
    """Per-position ``(reach, coreach)`` state sets of an unpinned sweep.

    Variable operations count as free moves (the index's
    over-approximation).  Both lists are indexed by position
    ``1..len(text) + 1``; slot 0 is empty.
    """
    end = len(text) + 1
    reach: list[frozenset[int]] = [frozenset()] * (end + 1)
    current = cva.free_closure({cva.initial})
    reach[1] = current
    for pos in range(1, end):
        seeds: set[int] = set()
        for state in current:
            seeds.update(cva.step(state, text[pos - 1]))
        current = cva.free_closure(seeds) if seeds else frozenset()
        reach[pos + 1] = current
    coreach: list[frozenset[int]] = [frozenset()] * (end + 1)
    current = cva.free_closure_reversed({cva.final})
    coreach[end] = current
    for pos in range(end - 1, 0, -1):
        seeds = {
            source
            for source in range(cva.num_states)
            if current.intersection(cva.step(source, text[pos - 1]))
        }
        current = cva.free_closure_reversed(seeds) if seeds else frozenset()
        coreach[pos] = current
    return reach, coreach


@st.composite
def extended_pins(draw, document_length: int = 4) -> ExtendedMapping:
    """Random pins: each variable gets a span, ⊥, or stays unconstrained."""
    limit = document_length + 1
    pins = {}
    for variable in draw(
        st.sets(st.sampled_from(VARIABLES), min_size=0, max_size=3)
    ):
        if draw(st.booleans()):
            begin = draw(st.integers(min_value=1, max_value=limit))
            end = draw(st.integers(min_value=begin, max_value=limit))
            pins[variable] = Span(begin, end)
        else:
            pins[variable] = NULL
    return ExtendedMapping(pins)
