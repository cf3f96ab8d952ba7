"""Compiled ``Eval`` oracles (Theorems 5.7 / 5.10 on tables).

Two sweeps, exactly the two the paper needs:

* **Theorem 5.7** (sequential automata) runs on the flat tables of
  :mod:`repro.engine.kernel`: state sets are bitmasks, the per-count
  buckets of the requirement-tracking closure are per-count masks, and
  every position without required operations is one interned flat-DFA
  transition shared across every oracle call on the same automaton
  (:func:`eval_sequential_flat`).
* **Theorem 5.10** (the general FPT sweep) tracks performed-sets and
  free-variable statuses over explicit state sets
  (:func:`eval_general_compiled`).  It serves non-sequential automata,
  and sequential ones whose flat DFA exceeds
  :data:`~repro.engine.kernel.FLAT_STATE_LIMIT` — slower on them, but
  correct on every VA and exponential only in the number of variables.

:func:`eval_compiled` is the drop-in for
:func:`repro.evaluation.eval_problem.eval_va`; sequentiality is decided
once at compile time instead of per oracle call.

Enumeration (Algorithm 2) asks one recursion node many sibling
questions ``µ[x → (i, j)]``.  :class:`FlatNodeSweep` answers them with
shared sweep prefixes (sequential automata); :class:`GeneralNode` runs
one full Theorem 5.10 sweep per branch.  :func:`node_sweep` picks the
flat node and falls back to the general one past the state budget.
"""

from __future__ import annotations

from repro.engine.kernel import FlatOverflow, Kernel
from repro.engine.tables import CompiledVA, close_key, open_key
from repro.spans.mapping import NULL, ExtendedMapping, Variable
from repro.spans.span import Span

_NO_OPS: frozenset = frozenset()

_FRESH, _OPEN, _DONE = range(3)


class Requirements:
    """Pinned operations bucketed by position (compiled ``_Requirements``)."""

    __slots__ = ("valid", "required", "pinned", "nulls")

    def __init__(self, cva: CompiledVA, end: int, pinned) -> None:
        self.valid = True
        self.required: dict[int, frozenset] = {}
        self.pinned: set[Variable] = set()
        self.nulls: set[Variable] = set()
        automaton_variables = cva.variables
        accumulated: dict[int, set] = {}
        for variable, value in pinned.items():
            if value is NULL:
                self.nulls.add(variable)
                continue
            if (
                variable not in automaton_variables
                or value.begin < 1
                or value.end > end
            ):
                self.valid = False  # no run can ever satisfy this pin
                return
            self.pinned.add(variable)
            accumulated.setdefault(value.begin, set()).add(open_key(variable))
            accumulated.setdefault(value.end, set()).add(close_key(variable))
        self.required = {pos: frozenset(ops) for pos, ops in accumulated.items()}

    def at(self, pos: int) -> frozenset:
        return self.required.get(pos, _NO_OPS)


def _flat_sweep(fdfa, context, classes, start, end, masks, needed, required, entering=None):
    """Advance per-count masks from ``start`` to ``end`` on the flat DFA.

    ``masks``/``needed`` are the closure at ``start`` (``masks[needed]``
    is the live set).  Positions with required operations (the sorted
    keys of the ``required`` dict in ``(start, end]``) take a raw letter
    step and a counted closure, while every run of plain positions
    between them is walked on the interned DFA: two indexed loads per
    character, re-interning the live mask only when re-entering from a
    counted closure.  When ``entering`` is given, the interned *state id*
    of the count-0 closed mask entering every swept position is recorded
    into it (resolve through ``fdfa.masks``; id 0 is the dead mask, and
    slots after a dead position stay 0).  Returns the final ``(masks,
    needed)`` pair, or ``None`` once no run survives.  A state-table
    overflow raises :class:`~repro.engine.kernel.FlatOverflow` for the
    caller to fall back.
    """
    if start >= end:
        return masks, needed
    if not masks[needed]:
        return None
    if required:
        points = sorted(pos for pos in required if start < pos <= end)
    else:
        points = []
    points.append(end + 1)  # sentinel: a final plain run to ``end``
    rows = fdfa.rows
    state_masks = fdfa.masks
    explore = fdfa.explore
    pos = start
    state = fdfa.intern(masks[needed])
    for point in points:
        limit = point - 1 if point <= end else end
        if pos < limit:
            row = rows[state]
            if entering is None:
                for class_id in classes[pos - 1 : limit - 1]:
                    target = row[class_id]
                    if target < 0:
                        target = explore(state, class_id)
                    if not target:
                        return None
                    state = target
                    row = rows[target]
            else:
                for ahead, class_id in enumerate(classes[pos - 1 : limit - 1], pos + 1):
                    target = row[class_id]
                    if target < 0:
                        target = explore(state, class_id)
                    entering[ahead] = target
                    if not target:
                        return None
                    state = target
                    row = rows[target]
            pos = limit
        if point > end:
            return [state_masks[state]], 0
        # Counted landing at ``point``: raw letter step off the live mask,
        # then the requirement-tracking closure.
        upcoming = required[point]
        seeds = context.letter(state_masks[state], classes[point - 2])
        masks = context.closure_counted([seeds], upcoming) if seeds else None
        if entering is not None:
            entering[point] = fdfa.intern(masks[0]) if masks else 0
        if masks is None:
            return None
        needed = len(upcoming)
        if point == end:
            return masks, needed
        pos = point
        live = masks[needed]
        if not live:
            return None
        state = fdfa.intern(live)
    raise AssertionError("unreachable: the sentinel point always returns")


def eval_sequential_flat(
    cva: CompiledVA,
    text: str,
    pinned,
    kernel: Kernel,
    flat,
    classes=None,
) -> bool:
    """Theorem 5.7's sweep over the flat tables.

    May raise :class:`~repro.engine.kernel.FlatOverflow`;
    :func:`eval_sequential_compiled` then falls back to the general sweep.
    """
    end = len(text) + 1
    requirements = Requirements(cva, end, pinned)
    if not requirements.valid:
        return False
    context = kernel.context(
        frozenset(requirements.pinned), frozenset(requirements.nulls)
    )
    if classes is None:
        classes = flat.intern(text)
    fdfa = flat.context(context)
    required = requirements.required
    first = required.get(1)
    initial_mask = 1 << cva.initial
    if first:
        masks = context.closure_counted([initial_mask], first)
        needed = len(first)
    else:
        masks = [context.close(initial_mask)]
        needed = 0
    swept = _flat_sweep(fdfa, context, classes, 1, end, masks, needed, required)
    if swept is None:
        return False
    masks, needed = swept
    return bool((masks[needed] >> cva.final) & 1)


def eval_sequential_compiled(cva: CompiledVA, text: str, pinned) -> bool:
    """Theorem 5.7's sweep on the flat tables; past the state budget,
    Theorem 5.10's general sweep (same verdicts on sequential automata)."""
    kernel = cva.kernel
    try:
        return eval_sequential_flat(cva, text, pinned, kernel, kernel.flat)
    except FlatOverflow:
        return eval_general_compiled(cva, text, pinned)


def _general_closure(cva: CompiledVA, seeds, required: frozenset, pinned, nulls, index):
    """Theorem 5.10's closure: performed-set plus free-variable statuses."""
    out = set(seeds)
    frontier = list(out)
    eps, opens, closes = cva.eps, cva.opens, cva.closes
    while frontier:
        state, done, statuses = frontier.pop()
        for target in eps[state]:
            nxt = (target, done, statuses)
            if nxt not in out:
                out.add(nxt)
                frontier.append(nxt)
        for kind, table, before, after in (
            ("o", opens, _FRESH, _OPEN),
            ("c", closes, _OPEN, _DONE),
        ):
            for variable, target in table[state]:
                if variable in nulls and kind == "c":
                    # ⊥-pin: the close would assign the variable; the open
                    # stays available and is status-tracked like a free one.
                    continue
                if variable in pinned:
                    key = (kind, variable)
                    if key in done or key not in required:
                        continue
                    if (
                        kind == "c"
                        and ("o", variable) in required
                        and ("o", variable) not in done
                    ):
                        # Empty pinned span: the open must precede the close
                        # within this position for the run to be valid.
                        continue
                    nxt = (target, done | {key}, statuses)
                else:
                    i = index[variable]
                    if statuses[i] != before:
                        continue
                    nxt = (
                        target,
                        done,
                        statuses[:i] + (after,) + statuses[i + 1 :],
                    )
                if nxt not in out:
                    out.add(nxt)
                    frontier.append(nxt)
    return out


def eval_general_compiled(cva: CompiledVA, text: str, pinned) -> bool:
    """Theorem 5.10's FPT sweep over compiled tables."""
    end = len(text) + 1
    requirements = Requirements(cva, end, pinned)
    if not requirements.valid:
        return False
    pinned_set, nulls = requirements.pinned, requirements.nulls
    # ⊥-pinned variables stay status-tracked (opens may fire at most once on
    # a run); only span-pinned variables leave the status vector.
    free_variables = tuple(sorted(cva.mentioned_variables - pinned_set))
    index = {variable: i for i, variable in enumerate(free_variables)}
    initial = (cva.initial, _NO_OPS, (_FRESH,) * len(free_variables))
    current = _general_closure(
        cva, {initial}, requirements.at(1), pinned_set, nulls, index
    )
    for pos in range(1, end):
        required = requirements.at(pos)
        letter = text[pos - 1]
        seeds = set()
        step = cva.step
        for state, done, statuses in current:
            if done != required:
                continue
            for target in step(state, letter):
                seeds.add((target, _NO_OPS, statuses))
        if not seeds:
            return False
        current = _general_closure(
            cva, seeds, requirements.at(pos + 1), pinned_set, nulls, index
        )
    required = requirements.at(end)
    final = cva.final
    return any(
        state == final and done == required for state, done, _ in current
    )


def eval_compiled(cva: CompiledVA, text: str, pinned: ExtendedMapping) -> bool:
    """``Eval[VA]`` on compiled tables (sequentiality decided at compile time).

    ``pinned`` constrains the output mapping: a span value pins the
    assignment, ``⊥`` (:data:`~repro.spans.mapping.NULL`) pins the
    variable *unassigned*, absence leaves it unconstrained.

    >>> from repro.engine.tables import compile_va
    >>> from repro.spanner import Spanner
    >>> cva = compile_va(Spanner.compile("x{a}(y{b}|ε)c*").automaton)
    >>> eval_compiled(cva, "ac", ExtendedMapping({"y": NULL}))
    True
    >>> eval_compiled(cva, "ab", ExtendedMapping({"y": NULL}))
    False
    """
    if cva.is_sequential:
        return eval_sequential_compiled(cva, text, pinned)
    return eval_general_compiled(cva, text, pinned)


class GeneralNode:
    """Per-node oracle on the general sweep (one full sweep per branch).

    Serves non-sequential automata, and sequential ones whose flat DFA
    exceeds :data:`~repro.engine.kernel.FLAT_STATE_LIMIT`.
    """

    __slots__ = ("cva", "text", "base", "variable")

    def __init__(self, cva: CompiledVA, text: str, base, variable: Variable) -> None:
        self.cva = cva
        self.text = text
        self.base = base
        self.variable = variable

    def accepts_null(self) -> bool:
        pinned = dict(self.base)
        pinned[self.variable] = NULL
        return eval_general_compiled(self.cva, self.text, pinned)

    def accepts_span(self, span: Span) -> bool:
        pinned = dict(self.base)
        pinned[self.variable] = span
        return eval_general_compiled(self.cva, self.text, pinned)


class FlatNodeSweep:
    """Sibling-sharing oracle for one recursion node (sequential automata).

    A node fixes a base extended mapping ``µ`` and refines one variable
    ``x``.  The base context pins every previously fixed variable and
    treats ``x`` as *operation-less pinned* — classified exactly like
    ``x → ⊥`` — so one base sweep both answers the ``⊥`` branch and
    records the count-0 closed mask entering every position.  Each
    sibling span ``(i, j)`` resumes from position ``i`` with the
    open/close requirements spliced in (base closure is idempotent, so
    resuming from a closed mask is exact).  Plain positions walk the
    interned flat DFA, and the sharing goes two levels deeper:

    * for a fixed open position ``i``, one *open sweep* (the open
      spliced at ``i``) records the masks entering every later position,
      so each sibling close position ``j`` resumes from a recorded mask
      instead of re-sweeping ``i..j`` (the candidate-span list is
      ``i``-major, so this cache hits);
    * one *backward co-acceptance sweep* per node records, for every
      position ``j``, the states that can still complete the suffix
      ``j..end`` under the base requirements — so the run from ``j`` to
      ``end`` that every resume would otherwise repeat collapses to a
      single mask intersection.  Forward masks are closed under the
      context's free moves and the backward masks are closed under their
      reversal, so a non-empty intersection is exactly suffix
      acceptance.

    A span verdict is then one counted closure plus two table lookups;
    a rejected span usually costs a single list lookup (its recorded
    open-sweep mask is 0).  A state-table overflow during construction
    propagates (:func:`node_sweep` falls back to a :class:`GeneralNode`);
    an overflow during a span query hands that query, and every later
    one, to a :class:`GeneralNode` built on the spot, so callers never
    see it and the half-updated sweep caches are never read again.
    """

    __slots__ = (
        "cva",
        "text",
        "end",
        "variable",
        "valid",
        "_context",
        "_fdfa",
        "_classes",
        "_base",
        "_required",
        "_entering",
        "_final_masks",
        "_final_needed",
        "_open_key",
        "_close_key",
        "_open_at",
        "_open_entering",
        "_open_pos",
        "_open_state",
        "_flat",
        "_coaccept_masks",
        "_coaccept_table",
        "_fallback",
    )

    def __init__(
        self,
        cva: CompiledVA,
        text: str,
        base,
        variable: Variable,
        kernel: Kernel,
        flat,
        classes=None,
    ) -> None:
        self.cva = cva
        self.text = text
        self.end = len(text) + 1
        self.variable = variable
        requirements = Requirements(cva, self.end, base)
        self.valid = requirements.valid
        self._open_key = open_key(variable)
        self._close_key = close_key(variable)
        self._open_at = 0  # position of the cached open sweep (0 = none)
        self._open_entering: list[int] | None = None
        self._coaccept_masks: list[int] | None = None
        self._coaccept_table: list[int] | None = None
        self._fallback: GeneralNode | None = None
        if not self.valid:
            return
        self._base = base
        self._flat = flat
        self._context = kernel.context(
            frozenset(requirements.pinned | {variable}),
            frozenset(requirements.nulls),
        )
        self._classes = flat.intern(text) if classes is None else classes
        self._fdfa = flat.context(self._context)
        self._required = requirements.required
        self._run_base()

    def _run_base(self) -> None:
        context, classes = self._context, self._classes
        required = self._required
        end = self.end
        entering = [0] * (end + 1)
        initial_mask = 1 << self.cva.initial
        closed = context.close(initial_mask)
        entering[1] = self._fdfa.intern(closed)
        first = required.get(1)
        if first:
            masks = context.closure_counted([initial_mask], first)
            needed = len(first)
        else:
            masks = [closed]
            needed = 0
        swept = _flat_sweep(
            self._fdfa, context, classes, 1, end, masks, needed, required, entering
        )
        self._entering = entering
        if swept is None:
            self._final_masks = [0]
            self._final_needed = 0
        else:
            self._final_masks, self._final_needed = swept

    def accepts_null(self) -> bool:
        """The verdict for ``µ[x → ⊥]`` — the base sweep's own acceptance."""
        if not self.valid:
            return False
        tail = len(self._required.get(self.end, _NO_OPS))
        if tail != self._final_needed:
            return False
        return bool((self._final_masks[tail] >> self.cva.final) & 1)

    def _open_sweep(self, i: int, j: int) -> list[int]:
        """Masks entering positions ``(i, j]`` after splicing the open at ``i``.

        One sweep per distinct ``i``, cached and extended *lazily*: the
        candidate-span list is ``i``-major, so sibling close positions
        hit the cache, and the walk only ever advances to the largest
        ``j`` queried — candidate spans are usually short, so this stays
        far from ``end``.  Slot ``j`` holds the interned id of the
        count-0 closed mask entering ``j`` for runs that satisfied the
        base requirements *and* opened ``x`` at ``i`` (0 = no such run,
        so the span ``(i, j)`` is rejected for free).
        """
        fdfa = self._fdfa
        if self._open_at != i:
            ops = self._required.get(i, _NO_OPS) | {self._open_key}
            masks = self._context.closure_counted(
                [fdfa.masks[self._entering[i]]], ops
            )
            live = masks[len(ops)]
            self._open_at = i
            self._open_entering = [0] * (self.end + 1)
            self._open_pos = i
            self._open_state = fdfa.intern(live) if live else 0
        entering = self._open_entering
        pos = self._open_pos
        if pos >= j:
            return entering
        state = self._open_state
        if not state:
            return entering  # dead frontier: later slots stay 0
        rows, state_masks, explore = fdfa.rows, fdfa.masks, fdfa.explore
        context, classes = self._context, self._classes
        required = self._required
        while pos < j and state:
            ahead = pos + 1
            ops = required.get(ahead)
            if ops is None:
                class_id = classes[pos - 1]
                target = rows[state][class_id]
                if target < 0:
                    target = explore(state, class_id)
                entering[ahead] = target
                state = target
            else:
                seeds = context.letter(state_masks[state], classes[pos - 1])
                if seeds:
                    masks = context.closure_counted([seeds], ops)
                    entering[ahead] = fdfa.intern(masks[0])
                    live = masks[len(ops)]
                    state = fdfa.intern(live) if live else 0
                else:
                    state = 0
            pos = ahead
        self._open_pos = pos
        self._open_state = state
        return entering

    def _coaccept(self) -> list[int]:
        """Co-acceptance ids: slot ``j`` interns the states (post-closure
        at ``j``, all of ``j``'s operations done) from which the suffix
        ``j..end`` still accepts under the base requirements.

        One backward sweep per node, computed on the first span query:
        plain positions walk the reverse flat DFA, required positions
        run the backward counted closure (op edges traversed target →
        source).  The masks come out closed under the reverse free
        moves, which is what makes the forward/backward intersection
        test exact: a forward-closed live mask meets slot ``j`` iff it
        meets the raw co-acceptance set.  Resolve ids through
        ``_coaccept_table`` (the reverse DFA's mask list).
        """
        w = self._coaccept_masks
        if w is not None:
            return w
        context, classes = self._context, self._classes
        end = self.end
        required = self._required
        w = [0] * (end + 1)
        final_mask = 1 << self.cva.final
        tail = required.get(end)
        if tail:
            levels = context.closure_counted_rev([final_mask], tail)
            current = levels[len(tail)]
        else:
            current = context.close_rev(final_mask)
        fdfa = self._flat.context_rev(context)
        self._coaccept_table = fdfa.masks
        state_masks = fdfa.masks
        rows = fdfa.rows
        explore = fdfa.explore
        state = fdfa.intern(current)
        points = [p for p in sorted(required, reverse=True) if p < end]
        points.append(0)  # sentinel: a final plain run down to position 1
        position = end - 1
        for point in points:
            row = rows[state] if state else None
            while position > point and state:
                # Plain position: one reverse-DFA step is the whole
                # letter-then-closure composite, and its id is both the
                # recorded slot and the continuation.
                class_id = classes[position - 1]
                target = row[class_id]
                if target < 0:
                    target = explore(state, class_id)
                w[position] = target
                state = target
                row = rows[target]
                position -= 1
            if not state or not point:
                break
            seeds = context.letter_rev(state_masks[state], classes[point - 1])
            if not seeds:
                break
            ops = required[point]
            levels = context.closure_counted_rev([seeds], ops)
            # Level 0 is the closed co-acceptance slot (the span's own
            # ops fire forward, in the resume's counted closure); the
            # top level carries the base ops backward.
            w[point] = fdfa.intern(levels[0])
            top = levels[len(ops)]
            state = fdfa.intern(top) if top else 0
            position = point - 1
        self._coaccept_masks = w
        return w

    def accepts_span(self, span: Span) -> bool:
        """The verdict for ``µ[x → span]``, resumed from the shared prefix."""
        if not self.valid:
            return False
        i, j = span.begin, span.end
        if i < 1 or j > self.end or self.variable not in self.cva.variables:
            return False
        entering = self._entering[i]
        if not entering:
            return False
        if self._fallback is not None:
            return self._fallback.accepts_span(span)
        context = self._context
        required = self._required
        state_masks = self._fdfa.masks
        try:
            if i == j:
                # Empty span: both operations splice into one position's
                # counted closure, resumed from the base entering mask.
                ops = required.get(i, _NO_OPS) | {self._open_key, self._close_key}
                levels = context.closure_counted([state_masks[entering]], ops)
            else:
                opened = self._open_sweep(i, j)[j]
                if not opened:
                    return False
                # Resume at ``j``: the close joins whatever base operations
                # ``j`` already requires (closure idempotence makes resuming
                # from the recorded closed mask exact, as at the node level).
                ops = required.get(j, _NO_OPS) | {self._close_key}
                levels = context.closure_counted([state_masks[opened]], ops)
            live = levels[len(ops)]
            if not live:
                return False
            if j == self.end:
                return bool((live >> self.cva.final) & 1)
            coaccept = self._coaccept()[j]
            return bool(coaccept and live & self._coaccept_table[coaccept])
        except FlatOverflow:
            self._fallback = GeneralNode(self.cva, self.text, self._base, self.variable)
            return self._fallback.accepts_span(span)


def node_sweep(
    cva: CompiledVA,
    text: str,
    base,
    variable: Variable,
    classes=None,
):
    """The sequential enumeration-node oracle: a :class:`FlatNodeSweep`,
    or a :class:`GeneralNode` past the flat-DFA state budget."""
    kernel = cva.kernel
    try:
        return FlatNodeSweep(cva, text, base, variable, kernel, kernel.flat, classes)
    except FlatOverflow:
        return GeneralNode(cva, text, base, variable)
