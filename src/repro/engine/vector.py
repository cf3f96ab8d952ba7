"""Lockstep NonEmp verdicts over the flat tables (the numpy layer).

A NonEmp verdict is ``Eval`` with the empty mapping (Theorem 5.7): one
forward sweep of the unpinned flat DFA per document, reading the final
state's bit at the end.  :func:`batch_accept` runs that sweep for a
whole batch at once: the interned flat-DFA rows are mirrored into one
contiguous 2-D numpy table (``table[sid, class_id] → sid``), and every
document advances in lockstep — one fancy-indexed gather per document
*position* moves every lane's state id, so the python-loop cost is
``O(max_len)`` per batch instead of ``O(total_chars)``.  This is the
serving hot path behind
:meth:`~repro.engine.compiled.CompiledSpanner.matches_many`.

Mapping enumeration (Algorithm 2) does not use this layer: its cost is
the per-node oracle work, so every document builds its own
:class:`~repro.engine.tables.DocumentIndex`.

:func:`batch_accept` returns ``None`` whenever the lockstep sweep cannot
run — numpy absent or disabled (``REPRO_NO_NUMPY=1``), a non-sequential
automaton, more than 256 alphabet classes, a batch too large to pad
densely, or :class:`~repro.engine.kernel.FlatOverflow` during
exploration — and the caller falls back to the per-document sweep, which
computes the same states from the same tables (or, past the state
budget, the same verdicts on its overflow path).  Verdicts are identical
either way; ``tests/engine/test_vector.py`` checks both against the seed.
"""

from __future__ import annotations

from repro.engine.kernel import FlatOverflow, numpy_or_none

#: Upper bound on the padded class matrix (documents × max_len cells) a
#: single lockstep sweep may allocate; above it the caller falls back to
#: per-document sweeps rather than risk a dense-pad blow-up on skewed
#: batches (one huge document next to tiny ones).
_BATCH_CELL_LIMIT = 1 << 25


def vector_enabled() -> bool:
    """Whether the lockstep layer can run (numpy importable and not
    disabled by ``REPRO_NO_NUMPY=1``)."""
    return numpy_or_none() is not None


class _DfaMirror:
    """A completed numpy mirror of one :class:`~repro.engine.kernel.FlatDFA`.

    ``table[sid, class_id]`` mirrors ``dfa.rows[sid][class_id]``, with
    one extra *pad* column (``class_id == num_classes``) that maps every
    sid to itself — lanes past their document's end ride the pad class
    and keep their final state, so the lockstep inner loop needs no
    per-position length gating and its last vector holds every verdict
    state.  Before a sweep the underlying DFA is *completed*
    (:meth:`complete`): every transition of every interned state is
    explored eagerly (still budgeted by ``FLAT_STATE_LIMIT`` through
    ``intern``), so gathers never see an unexplored ``-1``.  ``masks64``
    maps sids to their state masks as ``uint64`` on ≤64-state automata
    (``None`` beyond that).
    """

    __slots__ = ("dfa", "np", "table", "masks64", "_synced", "_completed")

    def __init__(self, dfa, np_module) -> None:
        self.dfa = dfa
        self.np = np_module
        self.table = np_module.zeros((0, dfa.num_classes + 1), dtype=np_module.int32)
        self.masks64 = (
            np_module.zeros(0, dtype=np_module.uint64)
            if dfa.num_states <= 64
            else None
        )
        self._synced = 0
        self._completed = 0

    def complete(self):
        """Explore every transition, mirror the rows, return the table.

        Completion can intern new states (whose rows are then completed
        in turn), so a powerset-heavy automaton raises
        :class:`~repro.engine.kernel.FlatOverflow` here and the batch
        falls back per document — exactly the engines whose lazy sweeps
        were about to overflow anyway.  Once closed, per-document sweeps
        share the same DFA and can never miss, so later calls are
        no-ops until someone interns a genuinely new state.
        """
        np = self.np
        dfa = self.dfa
        rows = dfa.rows
        num_classes = dfa.num_classes
        sid = self._completed
        if sid < len(rows):
            explore = dfa.explore
            while sid < len(rows):
                row = rows[sid]
                for class_id in range(num_classes):
                    if row[class_id] < 0:
                        explore(sid, class_id)
                sid += 1
            # Rows mirrored before this pass may have gained entries
            # (their -1 slots were just explored): recopy from scratch.
            self._synced = min(self._synced, self._completed)
            self._completed = sid
        count = len(rows)
        if count > len(self.table):
            grown = np.zeros((count, num_classes + 1), dtype=np.int32)
            grown[: len(self.table)] = self.table
            grown[:, num_classes] = np.arange(count, dtype=np.int32)
            self.table = grown
            if self.masks64 is not None:
                masks_grown = np.zeros(count, dtype=np.uint64)
                masks_grown[: self.masks64.shape[0]] = self.masks64
                self.masks64 = masks_grown
        if num_classes:
            table = self.table
            for row_id in range(self._synced, count):
                table[row_id, :num_classes] = np.frombuffer(
                    rows[row_id], dtype=np.int32
                )
        if self.masks64 is not None:
            masks = dfa.masks
            for row_id in range(self._synced, count):
                self.masks64[row_id] = masks[row_id]
        self._synced = count
        return self.table


def _lockstep(mirror, np, classes_t, start_sid):
    """Every lane's sid after its whole document, advanced in lockstep.

    ``classes_t`` is *position-major* — ``classes_t[pos]`` is the
    contiguous vector of every lane's class id at ``pos``, with lanes
    past their document's end holding the pad class (which keeps every
    sid in place) — so the inner loop is one flat gather per position
    with no length gating and, thanks to :meth:`_DfaMirror.complete`, no
    miss checks.
    """
    table = mirror.complete()
    flat_table = table.ravel()
    width = table.shape[1]
    # sid * width + class_id stays inside the table, so int32 index math
    # is safe unless the table itself outgrows int32.
    wide = table.size > 2**31 - 1
    maxlen, ndocs = classes_t.shape
    current = np.full(ndocs, start_sid, dtype=np.int32)
    for pos in range(maxlen):
        if wide:  # pragma: no cover - needs a >2^31-cell table
            current = current.astype(np.int64)
        current = flat_table[current * width + classes_t[pos]]
        if not (pos & 31) and not current.any():
            break  # every lane dead, and the dead sid 0 never leaves
    return current


def _class_matrix(np, sequences, pad):
    """The position-major padded class matrix of a batch.

    ``None`` when dense padding would exceed :data:`_BATCH_CELL_LIMIT`.
    """
    count = len(sequences)
    maxlen = max((len(seq) for seq in sequences), default=0)
    if count * maxlen > _BATCH_CELL_LIMIT:
        return None
    if pad <= 0xFF:
        # Classes intern to bytes, so padding is one C-speed ljust+join.
        pad_byte = bytes((pad,))
        buffer = b"".join(seq.ljust(maxlen, pad_byte) for seq in sequences)
        grid = np.frombuffer(buffer, dtype=np.uint8).reshape(count, maxlen)
        return np.ascontiguousarray(grid.T)
    # 256 classes: the pad id does not fit a byte, so fill lane by lane.
    grid = np.full((count, maxlen), pad, dtype=np.uint16)
    for lane, seq in enumerate(sequences):
        if seq:
            grid[lane, : len(seq)] = np.frombuffer(seq, dtype=np.uint8)
    return np.ascontiguousarray(grid.T)


def batch_accept(cva, texts):
    """NonEmp verdicts for a batch of documents, or ``None``.

    Only valid on sequential automata (``cva.is_sequential``): the
    forward sweep then walks exactly the DFA the unpinned
    :func:`~repro.engine.oracle.eval_sequential_flat` walks, so the
    final-state bit at document end *is* the verdict.
    """
    np = numpy_or_none()
    if np is None or not cva.is_sequential:
        return None
    kernel = cva.kernel
    flat = kernel.flat
    if flat.num_classes > 256:
        # >256 classes interns to tuples, not bytes — stay per-document.
        return None
    try:
        sequences = [flat.intern(text) for text in texts]
        matrix = _class_matrix(np, sequences, flat.num_classes)
        if matrix is None:
            return None
        mirror = flat._vector
        if mirror is None:
            mirror = flat._vector = _DfaMirror(flat.dfa, np)
        start = flat.dfa.intern(kernel.free[cva.initial])
        finals = _lockstep(mirror, np, matrix, start)
    except FlatOverflow:
        return None
    final = cva.final
    if mirror.masks64 is not None:
        bit = np.uint64(1) << np.uint64(final)
        return ((mirror.masks64[finals] & bit) != 0).tolist()
    masks = flat.dfa.masks
    return [bool((masks[sid] >> final) & 1) for sid in finals.tolist()]
