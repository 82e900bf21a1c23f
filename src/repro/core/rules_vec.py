"""Vectorized EPP propagation kernels — paper Table 1 lifted to arrays.

Array counterpart of :mod:`repro.core.rules`, used by the batch backend
(:mod:`repro.core.epp_batch`).  Every kernel consumes one *gate group*: a
set of same-type, same-arity gates at one topological level, with the
four-valued state of their fanins stacked into a single tensor

    ``x`` of shape ``(g, k, 4, s)``

where ``g`` is the number of gates in the group, ``k`` the gate arity, the
third axis holds ``(pa, pa_bar, p0, p1)`` and ``s`` is the error-site
(batch) axis.  Kernels return the output state as ``(g, 4, s)``.

The closed forms are transcribed from the scalar rules term by term —
including the ``max(..., 0.0)`` clamps on the subtraction residues — so a
batched sweep agrees with the scalar engine to floating-point rounding
(the backend-equivalence tests assert 1e-9 agreement end to end).  MUX,
MAJ and any future cell fall back to :func:`truth_table_vec`, the
vectorized form of the generic exhaustive-enumeration rule (4^k joint
input states; fine for the small arities these cells have).

The row kernels of :func:`gather_rule_for` write into the caller's
buffers: each carves its fanin gathers, plane temporaries and ``(r, 4,
s)`` result from a flat float64 *scratch* the sweep passes in (sized by
:func:`row_scratch_cells`, reused across groups and sweeps) and returns
the result as a view of it, valid until the scratch is next written.
Without a scratch a kernel allocates a fresh one.  Either way each
kernel runs the same elementwise IEEE ops in the same order, so a
reused scratch changes no bit of any result.
"""

from __future__ import annotations

import math
from itertools import product

import numpy as np

from repro.errors import AnalysisError
from repro.netlist.gate_types import (
    CODE_AND,
    CODE_BUF,
    CODE_NAND,
    CODE_NOR,
    CODE_NOT,
    CODE_OR,
    CODE_XNOR,
    CODE_XOR,
    GATE_CODES,
    truth_table,
)

__all__ = [
    "and_vec",
    "nand_vec",
    "or_vec",
    "nor_vec",
    "not_vec",
    "buf_vec",
    "xor_vec",
    "xnor_vec",
    "truth_table_vec",
    "vec_rule_for",
    "gather_rule_for",
    "row_scratch_cells",
    "compact_rule_for",
    "carve_scratch",
    "gather_planes",
]

# Index aliases into the state axis.
_PA, _PAB, _P0, _P1 = 0, 1, 2, 3

# State order used by the generic rule, matching rules._STATE_VALUES:
# index -> (value | a=0, value | a=1) for the states 0, 1, a, ā.
_STATE_VALUES = ((0, 0), (1, 1), (0, 1), (1, 0))
# Map from generic-rule state index (0, 1, a, ā) to the state-axis slot.
_STATE_SLOT = (_P0, _P1, _PA, _PAB)


def carve_scratch(scratch: np.ndarray | None, *shapes: tuple) -> list:
    """Consecutive C-contiguous views of the flat float64 ``scratch``, one
    per shape, from its start; a fresh buffer when ``scratch`` is ``None``."""
    sizes = [math.prod(shape) for shape in shapes]
    if scratch is None:
        scratch = np.empty(sum(sizes))
    views, start = [], 0
    for shape, size in zip(shapes, sizes):
        views.append(scratch[start:start + size].reshape(shape))
        start += size
    return views


def gather_planes(state: np.ndarray, rows: np.ndarray,
                  out: np.ndarray) -> None:
    """Write into ``out`` the ``s``-wide state planes at the flat plane
    indices ``rows`` (``4 * slot + plane``).

    ``np.take`` from the contiguous ``(slots * 4, s)`` view with
    ``mode="clip"`` allocates nothing.  Taking from a strided
    ``state[:, plane, :]`` first copies that whole plane, and the default
    ``mode="raise"`` buffers through a fresh array of the output's size.
    Clipping would clamp an out-of-range index silently, so every slot
    index a chunk plan holds is checked once when the plan is built
    (``BatchPlan.compact_chunk_plan``).
    """
    np.take(state.reshape(-1, state.shape[-1]), rows, axis=0, out=out,
            mode="clip")


#: Flat plane offsets of a full four-valued gather, in state-axis order,
#: and of a NOT's, in its output order (polarities and constants swap).
_PLANES = np.arange(4, dtype=np.intp)
_NOT_PLANES = np.asarray((_PAB, _PA, _P1, _P0), dtype=np.intp)


def _and_like_planes(
    p_pass: np.ndarray,
    p_a: np.ndarray,
    p_ab: np.ndarray,
    blocking: int,
    invert: bool = False,
    out: np.ndarray | None = None,
    work: np.ndarray | None = None,
) -> np.ndarray:
    """Shared AND/OR/NAND/NOR body over ``(g, k, s)`` probability planes.

    ``p_pass`` is the plane of the *non*-controlling constant (P1 for the
    AND family, P0 for the OR family); ``blocking`` names the controlling
    value.  The incremental products run across the pin axis in pin order —
    the same association order as the scalar rules — and the residue clamps
    are transcribed verbatim.  ``invert`` writes the NOT-composed result
    (polarities and constants swapped) directly into the output slots, so
    NAND/NOR cost no extra pass.  The result goes to ``out`` (``(g, 4,
    s)``); the running products and each pin's sum go to ``work`` (``(4,
    g, s)``), whose contiguous planes keep the pin loop as fast as fresh
    arrays would.  Both are allocated when ``None``.
    """
    g, k, s = p_pass.shape
    if out is None:
        out, work = np.empty((g, 4, s)), np.empty((4, g, s))
    passing, pass_or_a, pass_or_abar, pin = work
    np.copyto(passing, p_pass[:, 0, :])
    np.add(passing, p_a[:, 0, :], out=pass_or_a)
    np.add(passing, p_ab[:, 0, :], out=pass_or_abar)
    for i in range(1, k):
        passing *= p_pass[:, i, :]
        pass_or_a *= np.add(p_pass[:, i, :], p_a[:, i, :], out=pin)
        pass_or_abar *= np.add(p_pass[:, i, :], p_ab[:, i, :], out=pin)
    slot_pa, slot_pab = (_PAB, _PA) if invert else (_PA, _PAB)
    pass_plane = _P1 if blocking == 0 else _P0
    blocked_plane = _P0 if blocking == 0 else _P1
    if invert:
        pass_plane, blocked_plane = blocked_plane, pass_plane
    pa = np.subtract(pass_or_a, passing, out=out[:, slot_pa, :])
    np.maximum(pa, 0.0, out=pa)
    pa_bar = np.subtract(pass_or_abar, passing, out=out[:, slot_pab, :])
    np.maximum(pa_bar, 0.0, out=pa_bar)
    blocked = np.add(passing, pa, out=out[:, blocked_plane, :])
    blocked += pa_bar
    np.subtract(1.0, blocked, out=blocked)
    np.maximum(blocked, 0.0, out=blocked)
    out[:, pass_plane, :] = passing
    return out


def and_vec(x: np.ndarray) -> np.ndarray:
    """Paper Table 1, AND row, over a ``(g, k, 4, s)`` group tensor."""
    return _and_like_planes(
        x[:, :, _P1, :], x[:, :, _PA, :], x[:, :, _PAB, :], blocking=0
    )


def or_vec(x: np.ndarray) -> np.ndarray:
    """Paper Table 1, OR row (dual of AND with 0 and 1 swapped)."""
    return _and_like_planes(
        x[:, :, _P0, :], x[:, :, _PA, :], x[:, :, _PAB, :], blocking=1
    )


def not_vec(x: np.ndarray) -> np.ndarray:
    return x[:, 0, (_PAB, _PA, _P1, _P0), :]


def buf_vec(x: np.ndarray) -> np.ndarray:
    return x[:, 0, :, :]


def nand_vec(x: np.ndarray) -> np.ndarray:
    return _and_like_planes(
        x[:, :, _P1, :], x[:, :, _PA, :], x[:, :, _PAB, :], blocking=0, invert=True
    )


def nor_vec(x: np.ndarray) -> np.ndarray:
    return _and_like_planes(
        x[:, :, _P0, :], x[:, :, _PA, :], x[:, :, _PAB, :], blocking=1, invert=True
    )


def xor_vec(x: np.ndarray, invert: bool = False,
            out: np.ndarray | None = None,
            work: np.ndarray | None = None) -> np.ndarray:
    """Group convolution over ``Z2 x Z2`` (see the scalar ``xor_rule``).

    ``d[c][e]`` accumulates P[constant-bit = c, error-parity = e] across the
    pin axis; the iteration order matches the scalar rule exactly, and each
    new plane sums its four products left to right.  The accumulation
    starts from pin 0's own ``(p0, p1, pa, pā)`` planes, read in place:
    the scalar rule's first step from the identity ``(1, 0, 0, 0)`` yields
    exactly those planes, because every state value is ``>= +0``, so the
    loop runs from pin 1.  The four planes are double-buffered in
    ``work`` (``(9, g, s)``: two sets of four and the product term), whose
    contiguous planes keep the pin loop as fast as fresh arrays would,
    and copied into their output slots of ``out`` (``(g, 4, s)``) at the
    end; ``invert`` gives the XNOR slots (polarities and constants
    swapped).  Both are allocated when ``None``; ``x`` is only read.
    """
    g, k, _, s = x.shape
    if out is None:
        out, work = np.empty((g, 4, s)), np.empty((9, g, s))
    cur = [x[:, 0, plane, :] for plane in (_P0, _P1, _PA, _PAB)]
    buffers, term = (list(work[:4]), list(work[4:8])), work[8]
    for i in range(1, k):
        nxt = buffers[i % 2]
        x00 = x[:, i, _P0, :]
        x10 = x[:, i, _P1, :]
        x01 = x[:, i, _PA, :]
        x11 = x[:, i, _PAB, :]
        d00, d10, d01, d11 = cur
        # New d00, d10, d01, d11: the old planes times these pin planes.
        for plane, (a, b, c, d) in zip(nxt, (
            (x00, x10, x01, x11),
            (x10, x00, x11, x01),
            (x01, x11, x00, x10),
            (x11, x01, x10, x00),
        )):
            np.multiply(d00, a, out=plane)
            plane += np.multiply(d10, b, out=term)
            plane += np.multiply(d01, c, out=term)
            plane += np.multiply(d11, d, out=term)
        cur = nxt
    slots = (_P1, _P0, _PAB, _PA) if invert else (_P0, _P1, _PA, _PAB)
    for plane, slot in zip(cur, slots):
        out[:, slot, :] = plane
    return out


def xnor_vec(x: np.ndarray) -> np.ndarray:
    return xor_vec(x, invert=True)


def truth_table_vec(table, x: np.ndarray, out: np.ndarray | None = None,
                    work: np.ndarray | None = None) -> np.ndarray:
    """Vectorized generic rule for an arbitrary gate truth table.

    Enumerates all ``4^k`` joint input states; each contributes its joint
    probability (a ``(g, s)`` array, its pin product taken left to right)
    to the output state determined by evaluating the gate under both
    ``a = 0`` and ``a = 1`` substitutions — identical semantics to the
    scalar ``truth_table_rule``.  The four sums and the product accumulate
    in the contiguous planes of ``work`` (``(5, g, s)``), and the sums are
    copied into their output slots of ``out`` (``(g, 4, s)``) at the end;
    both are allocated when ``None``.
    """
    g, k, _, s = x.shape
    if len(table) != (1 << k):
        raise AnalysisError(
            f"truth table has {len(table)} rows but the gate group has {k} inputs"
        )
    if out is None:
        out, work = np.empty((g, 4, s)), np.empty((5, g, s))
    sums, product_plane = work[:4], work[4]  # states 0, 1, a, ā
    sums.fill(0.0)
    for states in product(range(4), repeat=k):
        weight = x[:, 0, _STATE_SLOT[states[0]], :]
        index0 = _STATE_VALUES[states[0]][0]
        index1 = _STATE_VALUES[states[0]][1]
        for position in range(1, k):
            state = states[position]
            weight = np.multiply(weight, x[:, position, _STATE_SLOT[state], :],
                                 out=product_plane)
            v0, v1 = _STATE_VALUES[state]
            index0 |= v0 << position
            index1 |= v1 << position
        v0 = table[index0]
        v1 = table[index1]
        if v0 == v1:
            sums[v0] += weight  # blocked at constant v0
        elif v1 == 1:
            sums[2] += weight  # (0, 1) = a
        else:
            sums[3] += weight  # (1, 0) = ā
    for plane, slot in zip(sums, _STATE_SLOT):
        out[:, slot, :] = plane
    return out


_VEC_RULES_BY_CODE = {
    CODE_AND: and_vec,
    CODE_NAND: nand_vec,
    CODE_OR: or_vec,
    CODE_NOR: nor_vec,
    CODE_XOR: xor_vec,
    CODE_XNOR: xnor_vec,
    CODE_NOT: not_vec,
    CODE_BUF: buf_vec,
}

_TYPE_BY_CODE = {code: gate_type for gate_type, code in GATE_CODES.items()}


def vec_rule_for(code: int, arity: int):
    """The vectorized kernel for a ``(gate code, arity)`` group.

    Closed-form kernels where they exist; everything else (MUX, MAJ, future
    cells) gets the generic truth-table kernel with the table bound at plan
    build time so the sweep pays no per-call table construction.
    """
    kernel = _VEC_RULES_BY_CODE.get(code)
    if kernel is not None:
        return kernel
    table = _table_for(code, arity)
    return lambda x, _table=table: truth_table_vec(_table, x)


def _table_for(code: int, arity: int) -> tuple:
    """The truth table of a gate code with no closed-form kernel."""
    gate_type = _TYPE_BY_CODE.get(code)
    if gate_type is None or not gate_type.is_combinational:
        raise AnalysisError(
            f"no vectorized EPP rule for gate code {code}; "
            "is a non-combinational node being propagated?"
        )
    return truth_table(gate_type, arity)


# --------------------------------------------------------------------------
# Gather-aware group rules (the batch sweep's dispatch targets)
# --------------------------------------------------------------------------


#: ``(per r*k*s, per r*s)``: the float64 cells of scratch a row kernel
#: over an ``(r, k)`` fanin block and ``s`` columns carves, by kernel
#: family — the AND family's three gathered planes, three running
#: products, pin sum and result; a single-input gate's gathered result;
#: the XOR family's full gather, two sets of four planes, product term
#: and result; a truth table's full gather, four sums, running product
#: and result.
_ROW_SCRATCH = {
    CODE_AND: (3, 8),
    CODE_NAND: (3, 8),
    CODE_OR: (3, 8),
    CODE_NOR: (3, 8),
    CODE_NOT: (0, 4),
    CODE_BUF: (0, 4),
    CODE_XOR: (4, 13),
    CODE_XNOR: (4, 13),
}
_ROW_SCRATCH_TABLE = (4, 9)


def row_scratch_cells(code: int, rows: int, arity: int, width: int) -> int:
    """Float64 cells of scratch the row kernel of :func:`gather_rule_for`
    carves for ``rows`` gates of gate code ``code`` and ``arity`` pins
    over ``width`` columns."""
    per_pin, per_row = _ROW_SCRATCH.get(code, _ROW_SCRATCH_TABLE)
    return (per_pin * arity + per_row) * rows * width


def _and_family_gather(state, fanin, scratch, read, blocking, invert):
    """``read``: the ``(3, 1, 1)`` offsets of the three planes the family
    reads — the non-controlling constant's, ``pa``'s and ``pā``'s."""
    r, k = fanin.shape
    s = state.shape[2]
    planes, work, out = carve_scratch(
        scratch, (3, r, k, s), (4, r, s), (r, 4, s)
    )
    gather_planes(state, 4 * fanin + read, planes)
    return _and_like_planes(*planes, blocking=blocking, invert=invert,
                            out=out, work=work)


def _single_gather(state, fanin, scratch, planes):
    """A NOT/BUF group: its fanins' state planes, ``planes`` in output
    order, gathered straight into the result."""
    (out,) = carve_scratch(scratch, (len(fanin), 4, state.shape[2]))
    gather_planes(state, 4 * fanin[:, :1] + planes, out)
    return out


def _full_gather(state, fanin, scratch, *shapes):
    """The ``(r, k, 4, s)`` fanin tensor of a group, then views for
    ``shapes``, all carved from ``scratch``."""
    r, k = fanin.shape
    x, *rest = carve_scratch(scratch, (r, k, 4, state.shape[2]), *shapes)
    gather_planes(state, 4 * fanin[:, :, None] + _PLANES, x)
    return x, rest


def _xor_family_gather(state, fanin, scratch, invert):
    r, s = len(fanin), state.shape[2]
    x, (work, out) = _full_gather(state, fanin, scratch, (9, r, s), (r, 4, s))
    return xor_vec(x, invert, out=out, work=work)


def _truth_table_gather(state, fanin, scratch, table):
    r, s = len(fanin), state.shape[2]
    x, (work, out) = _full_gather(state, fanin, scratch, (5, r, s), (r, 4, s))
    return truth_table_vec(table, x, out=out, work=work)


def gather_rule_for(code: int, arity: int):
    """A ``rule(state, fanin, scratch=None) -> (g, 4, s)`` kernel for a
    gate group.

    Variant of :func:`vec_rule_for` that performs its own fanin gathers
    from the state matrix.  The AND/OR families gather only the three
    probability planes they read (25% less index traffic than a full
    four-plane gather, and the gathered planes are contiguous for the
    pin-axis products); NAND/NOR write their inverted output slots
    directly instead of composing with a NOT pass, and so does XNOR;
    NOT/BUF gather their fanin's planes straight into the result, in
    output order.  Everything else gathers the full ``(g, k, 4, s)``
    tensor in front of the truth-table kernel.  Every gather, temporary
    and the result are views of ``scratch`` (at least
    :func:`row_scratch_cells` float64 cells; a fresh one when ``None``),
    so the returned result is valid only until the scratch is next
    written.

    Kernels are *index-space agnostic*: ``fanin`` must index rows of
    whatever C-contiguous ``state`` the sweep hands in — global node ids
    against the full ``(n + 2, 4, s)`` matrix, or the **remapped**
    compact indices of a :class:`~repro.core.epp_batch.CompactChunkPlan`
    against its ``(n_slots, 4, s)`` matrix.  No kernel may assume
    ``state.shape[0]`` is the circuit size or that sentinel rows sit at
    ``n``/``n + 1``; the plan builder already translated every id.
    """
    if code in (CODE_AND, CODE_NAND, CODE_OR, CODE_NOR):
        pass_plane, blocking = (
            (_P1, 0) if code in (CODE_AND, CODE_NAND) else (_P0, 1)
        )
        read = np.asarray((pass_plane, _PA, _PAB), dtype=np.intp)
        read = read[:, None, None]
        invert = code in (CODE_NAND, CODE_NOR)
        return lambda state, fanin, scratch=None: _and_family_gather(
            state, fanin, scratch, read, blocking, invert
        )
    if code in (CODE_NOT, CODE_BUF):
        planes = _NOT_PLANES if code == CODE_NOT else _PLANES
        return lambda state, fanin, scratch=None: _single_gather(
            state, fanin, scratch, planes
        )
    if code in (CODE_XOR, CODE_XNOR):
        invert = code == CODE_XNOR
        return lambda state, fanin, scratch=None: _xor_family_gather(
            state, fanin, scratch, invert
        )
    table = _table_for(code, arity)
    return lambda state, fanin, scratch=None: _truth_table_gather(
        state, fanin, scratch, table
    )


# --------------------------------------------------------------------------
# Cell-compacted group rules (the sparse sweep's third tier)
# --------------------------------------------------------------------------
#
# The row-sparse tier still computes every *column* of an active row — on
# cone-clustered chunks only ~1-5% of those cells are on-path, so >90% of
# the kernel FLOPs rewrite values the scatter then discards.  The compacted
# kernels flip the layout: the sweep gathers the on-path (row, column)
# cells into flat index vectors (``fanin_rows[m, k]`` = the fanin ids of
# cell ``m``'s gate, ``cols[m]`` = its site column) and the kernel computes
# exactly those ``m`` cells as an ``(m, 4)`` block, which the sweep
# scatters straight back into the sentinel-padded dense state.
#
# Bit-identity with the dense kernels is by construction: every closed
# form is a chain of *elementwise* IEEE operations in fixed pin order (the
# reductions run across the pin axis in the same order, the residue clamps
# are the same ops), so computing a cell inside an ``(m, k)`` block or an
# ``(r, k, s)`` block produces the same bits.  The generic kernels are
# reused outright on an ``(m, k, 4, 1)`` view, making the equivalence
# structural rather than transcribed.


def _compact_and_family(state, fanin_rows, cols, pass_plane, blocking, invert):
    """AND/NAND/OR/NOR over gathered cells: three (m, k) plane gathers."""
    cols = cols[:, None]
    return _and_like_planes(
        state[fanin_rows, pass_plane, cols][:, :, None],
        state[fanin_rows, _PA, cols][:, :, None],
        state[fanin_rows, _PAB, cols][:, :, None],
        blocking=blocking,
        invert=invert,
    )[:, :, 0]


def compact_rule_for(code: int, arity: int):
    """A ``rule(state, fanin_rows, cols) -> (m, 4)`` compacted kernel.

    ``fanin_rows`` is the ``(m, k)`` fanin-id block of the gathered cells
    (one row per on-path cell, already row-gathered by the sweep) and
    ``cols`` their ``(m,)`` site columns.  The AND/OR families gather only
    the three probability planes they read; single-input cells gather one
    four-valued vector per cell; everything else (XOR family, MUX/MAJ
    truth tables) funnels a full ``(m, k, 4, 1)`` gather through the
    corresponding tensor kernel of :func:`vec_rule_for`.  Like the
    row-level kernels, these are index-space agnostic: ``fanin_rows``
    indexes whatever ``state`` is passed — full-row or the compacted
    union-of-cones matrix with remapped ids (see :func:`gather_rule_for`).
    """
    if code == CODE_AND:
        return lambda state, fanin_rows, cols: _compact_and_family(
            state, fanin_rows, cols, _P1, 0, False
        )
    if code == CODE_NAND:
        return lambda state, fanin_rows, cols: _compact_and_family(
            state, fanin_rows, cols, _P1, 0, True
        )
    if code == CODE_OR:
        return lambda state, fanin_rows, cols: _compact_and_family(
            state, fanin_rows, cols, _P0, 1, False
        )
    if code == CODE_NOR:
        return lambda state, fanin_rows, cols: _compact_and_family(
            state, fanin_rows, cols, _P0, 1, True
        )
    if code == CODE_BUF:
        return lambda state, fanin_rows, cols: state[fanin_rows[:, 0], :, cols]
    if code == CODE_NOT:
        return lambda state, fanin_rows, cols: state[fanin_rows[:, 0], :, cols][
            :, (_PAB, _PA, _P1, _P0)
        ]
    kernel = vec_rule_for(code, arity)

    def compact(state, fanin_rows, cols, _kernel=kernel):
        x = state[fanin_rows, :, cols[:, None]]  # (m, k, 4)
        return _kernel(x[:, :, :, None])[:, :, 0]

    return compact
