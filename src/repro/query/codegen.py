"""Fused-kernel compilation of planned queries (string codegen -> exec).

The interpreted executor walks the expression AST once per decoded span:
every ``evaluate()`` call materializes a NumPy temporary, re-enters
``np.errstate``, and re-derives literal clamping — per AST node, per
morsel.  This module compiles a planned aggregate query into **one
generated Python function** so unpack + predicate + reduce happen in a
single pass over each candidate-chunk run — ungrouped or ``group_by``:

* the predicate tree is lowered to a single NumPy mask expression whose
  literals are **runtime parameters** (``lits[k]``, bound per statement
  from :attr:`CompiledKernel.literals`): the source — and so the
  compiled function — depends on the statement's *shape* and the
  columns' widths, never on its values, and every repeat of a shape
  with fresh bounds reuses one cached kernel.  Bounds that clamp out of
  the ``uint64`` domain still **fold at compile time** (the exact
  semantics of :func:`repro.query.expr._clamped_compare` —
  everywhere-true/false comparisons simplify AND/OR/NOT away): that is
  a different shape, not a different literal;
* each aggregate is lowered to a fold specialized on its column's bit
  width: when ``bits + ceil_log2(morsel_elements) <= 64`` a masked
  span's sum provably fits uint64 and one ``sum(dtype=np.uint64)``
  suffices, otherwise the kernel splits 32-bit halves exactly like
  :func:`repro.runtime.loops._exact_sum` — results are bit-identical
  to the interpreted path in both regimes;
* a ``group_by`` plan folds each masked run through one generated
  **grouped reduce** (:func:`group_fold`) specialized on the key's and
  every aggregate column's width: narrow keys index ``np.bincount``
  directly, wide keys go through one ``np.unique``; counts are a
  bincount, sums float64-weighted bincounts split into limbs narrow
  enough that every partial sum stays below 2**53 (so exact), min/max
  one stable argsort + ``reduceat`` — no per-group Python fold, only a
  per-*present*-group dict update in the executor's
  ``MorselPartial.groups`` shape;
* decoding still goes through ``SmartArray.decode_chunks`` with the
  executor's pinned replica buffers, so the chunk-unpack / replica-read
  accounting the smartcheck harness asserts on is **identical** in both
  modes.

Compilation is sound only for shapes the kernel template covers;
:func:`unsupported_reason` names what falls back (row queries, exotic
Expr subclasses).  The planner consults it and
records the decision; ``codegen="on"`` turns a fallback into an error.

The generated source is kept on the :class:`CompiledKernel` (and shown
by ``explain()``) so a human can audit exactly what will run.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from .expr import (
    U64_MAX,
    And,
    Arith,
    Col,
    Compare,
    Expr,
    Lit,
    Not,
    Or,
)
from .logical import Query

#: Recognized values for the compile/interpret knob (planner kwarg,
#: ``Query.codegen()``, or the ``REPRO_QUERY_CODEGEN`` env var).
CODEGEN_MODES = ("auto", "on", "off")

#: Env var consulted when neither the planner call nor the query set a
#: mode: ``REPRO_QUERY_CODEGEN=off`` forces the interpreter everywhere,
#: ``=on`` errors on any plan the kernel template cannot cover.
CODEGEN_ENV_VAR = "REPRO_QUERY_CODEGEN"

#: source -> compiled function, least recently used first; the source
#: embeds every specialization input (columns, bit-width regime, mask
#: expression, and for group-by plans the grouped reduce it calls) and
#: no literal, so it is the key and one entry serves a whole shape.
_KERNEL_CACHE: "OrderedDict[str, Callable]" = OrderedDict()

#: Entries :data:`_KERNEL_CACHE` keeps (~4 KB of code object each).  A
#: client can still send unboundedly many *shapes*; past the cap the
#: least recently planned one is dropped and recompiles on return.
_KERNEL_CACHE_CAP = 256

#: Keys at most this wide index ``np.bincount`` directly (a 2**16-slot
#: count array is 512 KiB); wider keys are ranked by ``np.unique`` first.
_DIRECT_KEY_BITS = 16

#: Integers below 2**53 are exact in float64, the accumulator
#: ``np.bincount(weights=)`` sums in.
_FLOAT_EXACT_BITS = 53


def resolve_mode(explicit: Optional[str], query_mode: Optional[str]) -> str:
    """Resolve the compile/interpret knob: planner kwarg beats the
    query's fluent setting beats ``REPRO_QUERY_CODEGEN`` beats auto."""
    mode = explicit or query_mode or os.environ.get(CODEGEN_ENV_VAR) or "auto"
    if mode not in CODEGEN_MODES:
        raise ValueError(
            f"codegen mode must be one of {CODEGEN_MODES}, got {mode!r} "
            f"(check the {CODEGEN_ENV_VAR} env var)"
        )
    return mode


def unsupported_reason(query: Query) -> Optional[str]:
    """Why ``query`` cannot run compiled (``None`` = it can).

    The kernel template covers fused filter+aggregate scans, grouped or
    not — the hot shape the paper measures.  Row materialization keeps
    the interpreted path: its output is the matching rows themselves,
    so there is no fold to fuse.
    """
    if not query.aggregates:
        return "row queries (select/limit) run interpreted"
    if query.predicate is not None:
        reason = _expr_unsupported(query.predicate)
        if reason is not None:
            return reason
    return None


def _expr_unsupported(expr: Expr) -> Optional[str]:
    if isinstance(expr, (And, Or)):
        return (_expr_unsupported(expr.left)
                or _expr_unsupported(expr.right))
    if isinstance(expr, Not):
        return _expr_unsupported(expr.child)
    if isinstance(expr, Compare):
        return (_value_unsupported(expr.left)
                or _value_unsupported(expr.right))
    return f"unknown boolean node {type(expr).__name__}"


def _value_unsupported(expr: Expr) -> Optional[str]:
    if isinstance(expr, (Col, Lit)):
        return None
    if isinstance(expr, Arith):
        return (_value_unsupported(expr.left)
                or _value_unsupported(expr.right))
    return f"unknown value node {type(expr).__name__}"


def _literal_u64(value: int, lits: List[np.uint64]) -> str:
    """Bind one in-domain uint64 constant as the kernel's next runtime
    parameter: append it to ``lits``, return the ``lits[k]`` that reads
    it back.

    Every literal of a statement flows through here — comparison bounds
    (post-clamping) and arithmetic literals — which makes it the seam
    smartcheck's planted miscompiled-constant tests patch to prove the
    differential harness catches codegen bugs.  Equal values are not
    shared: which slots coincide would make the source depend on the
    values.
    """
    assert 0 <= value <= U64_MAX, value
    lits.append(np.uint64(value))
    return f"lits[{len(lits) - 1}]"


# -- expression lowering --------------------------------------------------

#: A lowered boolean: generated source, or a compile-time constant when
#: clamping proved the subtree everywhere-true/false.
_BoolIR = Union[str, bool]


def _emit_value(expr: Expr, names: Dict[str, str],
                lits: List[np.uint64]) -> str:
    if isinstance(expr, Col):
        return names[expr.name]
    if isinstance(expr, Lit):
        # Bare out-of-domain literals only occur as clamped comparison
        # bounds, which never reach here (Arith validates its own).
        return _literal_u64(expr.value, lits)
    if isinstance(expr, Arith):
        return (f"({_emit_value(expr.left, names, lits)} {expr.op} "
                f"{_emit_value(expr.right, names, lits)})")
    raise AssertionError(type(expr).__name__)  # pragma: no cover


def _emit_compare(expr: Compare, names: Dict[str, str],
                  lits: List[np.uint64]) -> _BoolIR:
    """Lower one comparison, folding clamped bounds to constants.

    Mirrors :func:`repro.query.expr._clamped_compare` exactly: the
    storage domain (uint64), not the column's bit width, decides
    everywhere-true/false — narrower columns still compare against any
    in-domain bound at runtime.
    """
    lit = expr._literal_side()
    if lit is None:
        return (f"({_emit_value(expr.left, names, lits)} {expr.op} "
                f"{_emit_value(expr.right, names, lits)})")
    value_expr, op, bound = lit
    if op in (">", "<="):
        op, bound = (">=" if op == ">" else "<"), bound + 1
    v = _emit_value(value_expr, names, lits)
    if op == ">=":
        if bound <= 0:
            return True
        if bound > U64_MAX:
            return False
        return f"({v} >= {_literal_u64(bound, lits)})"
    if op == "<":
        if bound <= 0:
            return False
        if bound > U64_MAX:
            return True
        return f"({v} < {_literal_u64(bound, lits)})"
    if op == "==":
        if not 0 <= bound <= U64_MAX:
            return False
        return f"({v} == {_literal_u64(bound, lits)})"
    assert op == "!=", op
    if not 0 <= bound <= U64_MAX:
        return True
    return f"({v} != {_literal_u64(bound, lits)})"


def _emit_bool(expr: Expr, names: Dict[str, str],
               lits: List[np.uint64]) -> _BoolIR:
    """Lower a boolean tree; constants propagate upward so a clamped
    leaf simplifies its connectives (``x & TRUE -> x`` etc.), matching
    the array algebra the interpreter would have computed.  ``lits``
    ends up holding exactly the literals the returned source reads."""
    if isinstance(expr, Compare):
        return _emit_compare(expr, names, lits)
    mark = len(lits)
    if isinstance(expr, And):
        left = _emit_bool(expr.left, names, lits)
        right = _emit_bool(expr.right, names, lits)
        if left is False or right is False:
            del lits[mark:]  # the other side's bounds are dead code
            return False
        if left is True:
            return right
        if right is True:
            return left
        return f"({left} & {right})"
    if isinstance(expr, Or):
        left = _emit_bool(expr.left, names, lits)
        right = _emit_bool(expr.right, names, lits)
        if left is True or right is True:
            del lits[mark:]
            return True
        if left is False:
            return right
        if right is False:
            return left
        return f"({left} | {right})"
    if isinstance(expr, Not):
        child = _emit_bool(expr.child, names, lits)
        if isinstance(child, bool):
            return not child
        return f"(~{child})"
    raise AssertionError(type(expr).__name__)  # pragma: no cover


# -- aggregate lowering ---------------------------------------------------


def _emit_sum(target: str, values: str, bits: int,
              morsel_elements: int) -> str:
    """One exact masked-sum statement, specialized on bit width.

    A span holds at most ``morsel_elements`` values below ``2**bits``,
    so when ``bits + ceil_log2(morsel_elements) <= 64`` the uint64
    accumulator provably cannot wrap; otherwise split 32-bit halves
    (exact for any count below 2**32), the `_exact_sum` recipe inlined.
    """
    if bits + morsel_elements.bit_length() <= 64:
        return f"{target} += int({values}.sum(dtype=np.uint64))"
    return (
        f"{target} += (int(({values} >> np.uint64(32))"
        f".sum(dtype=np.uint64)) << 32) + "
        f"int(({values} & np.uint64(4294967295)).sum(dtype=np.uint64))"
    )


# -- grouped reduce ---------------------------------------------------------


def _sum_limbs(bits: int, max_elements: int) -> List[Tuple[int, int]]:
    """``(shift, width)`` pieces of a ``bits``-wide value whose grouped
    float64 sums are exact.

    A fold sees at most ``max_elements`` values, so a piece ``width``
    bits wide sums below ``2**(width + ceil_log2(max_elements))``; while
    that stays within 2**53 every partial sum is an integer float64
    represents exactly, whatever order ``np.bincount`` adds in.  Values
    that fit whole take one piece; wider ones split into 32-bit halves
    (narrower pieces only for morsels past 2**21 elements), recombined
    as Python ints — the grouped twin of ``_exact_sum``.
    """
    room = _FLOAT_EXACT_BITS - max_elements.bit_length()
    if room < 1:
        raise ValueError(
            f"{max_elements}-element folds leave no exact float64 sum"
        )
    if bits <= room:
        return [(0, bits)]
    width = min(32, room)
    return [(shift, min(width, bits - shift))
            for shift in range(0, bits, width)]


@dataclass(frozen=True)
class GroupFold:
    """One generated grouped reduce: ``fn(groups, keys, v0, v1, ...)``
    folds equal-length ``uint64`` arrays (keys, then one per value
    column) into ``groups`` — ``{int key: [partial per aggregate]}``,
    the shapes of :class:`~repro.query.stats.MorselPartial` — in place.
    """

    source: str
    fn: Callable = field(repr=False, compare=False)


@lru_cache(maxsize=256)
def group_fold(key_bits: int, value_bits: Tuple[int, ...],
               aggregates: Tuple[Tuple[str, Optional[int]], ...],
               max_elements: int) -> GroupFold:
    """Generate the grouped reduce for one width specialization.

    ``aggregates`` holds one ``(kind, value_index)`` per output slot
    (``value_index`` into ``value_bits`` / the ``v*`` arguments; ``None``
    for ``count``).  The caller promises keys below ``2**key_bits``,
    values of column ``i`` below ``2**value_bits[i]`` and at most
    ``max_elements`` rows per call; nothing in the source depends on
    predicate literals, so every query of one shape shares one fold.
    """
    args = "".join(f", v{i}" for i in range(len(value_bits)))
    lines = [f"def fold(groups, keys{args}):"]
    kinds = set(aggregates)
    extremes = sorted(pair for pair in kinds if pair[0] in ("min", "max"))
    counted = bool(extremes) or any(
        kind in ("count", "mean") for kind, _i in kinds)
    if key_bits <= _DIRECT_KEY_BITS:
        slots, pick = str(1 << key_bits), "[live]"
        lines += [
            "    idx = keys.astype(np.intp)",
            f"    counts = np.bincount(idx, minlength={slots})",
            "    live = np.flatnonzero(counts)",
            "    counts = counts[live]",
        ]
        present = "live"
        # NumPy's stable sort is a radix sort up to 16 bits.
        sort_keys = f"keys.astype(np.uint{8 if key_bits <= 8 else 16})"
    else:
        slots, pick = "uniq.size", ""
        lines.append("    uniq, idx = np.unique(keys, return_inverse=True)")
        if counted:
            lines.append(f"    counts = np.bincount(idx, minlength={slots})")
        present = "uniq"
        sort_keys = "idx"
    columns, names = [f"{present}.tolist()"], ["key"]
    if counted:
        columns.append("counts.tolist()")
        names.append("n")

    for i, bits in enumerate(value_bits):
        if not kinds & {("sum", i), ("mean", i)}:
            continue
        limbs = _sum_limbs(bits, max_elements)
        parts = []
        for shift, width in limbs:
            piece = f"v{i}"
            if shift:
                piece = f"({piece} >> np.uint64({shift}))"
            if shift + width < bits:
                piece = f"({piece} & np.uint64({(1 << width) - 1}))"
            parts.append(
                f"np.bincount(idx, weights={piece}, minlength={slots})"
                f"{pick}.astype(np.int64).tolist()"
            )
        if len(parts) == 1:
            columns.append(parts[0])
        else:
            limb_names = [f"s{i}_{j}" for j in range(len(parts))]
            lines += [f"    {name} = {part}"
                      for name, part in zip(limb_names, parts)]
            total = " + ".join(
                f"({name} << {shift})" if shift else name
                for name, (shift, _width) in zip(limb_names, limbs)
            )
            joined = ", ".join(limb_names)
            columns.append(f"[{total} for {joined} in zip({joined})]")
        names.append(f"s{i}")
    if extremes:
        lines += [
            f"    order = np.argsort({sort_keys}, kind='stable')",
            "    starts = np.cumsum(counts) - counts",
        ]
        for i in sorted({i for _kind, i in extremes}):
            lines.append(f"    sorted{i} = v{i}[order]")
        for kind, i in extremes:
            columns.append(
                f"np.{kind}imum.reduceat(sorted{i}, starts).tolist()")
            names.append(f"{kind}{i}")

    fresh, updates = [], []
    for slot, (kind, i) in enumerate(aggregates):
        if kind == "count":
            fresh.append("n")
            updates.append(f"p[{slot}] += n")
        elif kind == "sum":
            fresh.append(f"s{i}")
            updates.append(f"p[{slot}] += s{i}")
        elif kind == "mean":
            fresh.append(f"(s{i}, n)")
            updates.append(
                f"p[{slot}] = (p[{slot}][0] + s{i}, p[{slot}][1] + n)")
        else:  # min / max
            fresh.append(f"{kind}{i}")
            updates.append(
                f"p[{slot}] = {kind}(p[{slot}], {kind}{i})")
    lines += [
        f"    for {', '.join(names)} in zip(",
        *[f"            {column}," for column in columns],
        "    ):",
        "        p = groups.get(key)",
        "        if p is None:",
        f"            groups[key] = [{', '.join(fresh)}]",
        "        else:",
        *[f"            {update}" for update in updates],
    ]
    source = "\n".join(lines) + "\n"
    return GroupFold(source, _load(source, source, "fold"))


def _load(key: str, source: str, name: str, **bindings) -> Callable:
    """The function ``name`` of ``source``, compiled once per ``key``
    while the key stays among the :data:`_KERNEL_CACHE_CAP` most
    recently used.

    No lock: planners on different threads race benignly.  Each step is
    one ``OrderedDict`` call (atomic under the GIL); losing a race costs
    a duplicate compile or an early eviction, never a wrong function —
    the caller keeps the ``fn`` it was handed whatever the cache does.
    """
    fn = _KERNEL_CACHE.get(key)
    if fn is not None:
        try:
            _KERNEL_CACHE.move_to_end(key)
        except KeyError:  # evicted since the get
            pass
        return fn
    namespace: Dict[str, object] = {
        "np": np, "min": min, "max": max, **bindings}
    exec(compile(source, "<repro.query.codegen>", "exec"), namespace)
    fn = _KERNEL_CACHE[key] = namespace[name]
    while len(_KERNEL_CACHE) > _KERNEL_CACHE_CAP:
        try:
            _KERNEL_CACHE.popitem(last=False)
        except KeyError:  # another planner emptied it first
            break
    return fn


@dataclass(frozen=True)
class CompiledKernel:
    """One generated morsel kernel plus its audit trail.

    ``fn(runs, n_rows, lits, dec0, rep0, buf0, ...)`` consumes the
    morsel's candidate-chunk runs, the statement's :attr:`literals` and
    per-column (decode-method, replica, scratch) triples in
    :attr:`columns` order, returning
    ``(rows_scanned, rows_matched, decoded_chunks, agg_partials,
    group_partials)`` in the executor's
    :class:`~repro.query.stats.MorselPartial` shapes (``group_by``
    plans fill the last and leave ``agg_partials`` empty; ungrouped
    plans return ``None`` groups).  For a ``group_by`` plan
    :attr:`source` opens with the grouped reduce the kernel calls.
    """

    source: str
    fn: Callable = field(repr=False, compare=False)
    columns: Tuple[str, ...]
    #: Bit widths the aggregate folds were specialized on; the executor
    #: falls back to the interpreter for a morsel whose pinned
    #: generation no longer matches (a live migration mid-query).
    column_bits: Dict[str, int] = field(compare=False)
    #: The statement's in-domain literals in ``lits[k]`` order — the one
    #: part of a kernel that differs between two statements of a shape.
    literals: Tuple[np.uint64, ...] = ()


def _emit_folds(aggregates, masked: Dict[str, str],
                column_bits: Dict[str, int], morsel_elements: int,
                ) -> Tuple[List[str], List[str], str]:
    """Ungrouped accumulators: ``(init lines, per-run fold lines,
    result expression)``, one slot per AggSpec (matching
    ``_new_agg_partials``)."""
    init: List[str] = []
    folds: List[str] = []
    returns: List[str] = []
    for slot, spec in enumerate(aggregates):
        if spec.kind == "count":
            init.append(f"a{slot} = 0")
            folds.append(f"a{slot} += n")
            returns.append(f"a{slot}")
            continue
        v = masked[spec.column]
        bits = column_bits[spec.column]
        if spec.kind == "sum":
            init.append(f"a{slot} = 0")
            folds.append(_emit_sum(f"a{slot}", v, bits, morsel_elements))
            returns.append(f"a{slot}")
        elif spec.kind == "mean":
            init += [f"a{slot}_s = 0", f"a{slot}_c = 0"]
            folds.append(_emit_sum(f"a{slot}_s", v, bits, morsel_elements))
            folds.append(f"a{slot}_c += {v}.size")
            returns.append(f"(a{slot}_s, a{slot}_c)")
        else:  # min / max
            fold = spec.kind
            init.append(f"a{slot} = None")
            folds += [
                f"if {v}.size:",
                f"    b = int({v}.{fold}())",
                f"    a{slot} = b if a{slot} is None else {fold}(a{slot}, b)",
            ]
            returns.append(f"a{slot}")
    return init, folds, "[" + ", ".join(returns) + "], None"


def _group_fold_for(query: Query, masked: Dict[str, str],
                    column_bits: Dict[str, int],
                    morsel_elements: int) -> Tuple[GroupFold, str]:
    """The grouped reduce specialized for ``query``'s widths, and the
    per-run statement that calls it."""
    values = list(dict.fromkeys(
        spec.column for spec in query.aggregates if spec.column is not None
    ))
    fold = group_fold(
        column_bits[query.group_key],
        tuple(column_bits[column] for column in values),
        tuple((spec.kind,
               None if spec.column is None else values.index(spec.column))
              for spec in query.aggregates),
        morsel_elements,
    )
    args = ", ".join(masked[column] for column in (query.group_key, *values))
    return fold, f"fold(groups, {args})"


def compile_query(query: Query, needed_columns: Tuple[str, ...],
                  column_bits: Dict[str, int],
                  morsel_elements: int) -> CompiledKernel:
    """Lower ``query`` to a :class:`CompiledKernel`.

    Caller guarantees :func:`unsupported_reason` returned ``None``.
    ``needed_columns`` is the plan's decode order; the kernel's
    positional arguments follow it.
    """
    names = {name: f"c{i}" for i, name in enumerate(needed_columns)}
    args = "".join(
        f", dec{i}, rep{i}, buf{i}" for i in range(len(needed_columns))
    )

    mask: _BoolIR = True
    lits: List[np.uint64] = []
    if query.predicate is not None:
        mask = _emit_bool(query.predicate, names, lits)

    # Masked values once per distinct key / aggregate column.
    masked = {
        column: f"v_{names[column]}"
        for column in (query.group_key,
                       *(spec.column for spec in query.aggregates))
        if column is not None
    }
    fold: Optional[GroupFold] = None
    if query.group_key is not None:
        fold, call = _group_fold_for(query, masked, column_bits,
                                     morsel_elements)
        init, folds, result = ["groups = {}"], [call], "[], groups"
    else:
        init, folds, result = _emit_folds(query.aggregates, masked,
                                          column_bits, morsel_elements)

    lines: List[str] = [
        f"def kernel(runs, n_rows, lits{args}):",
        "    rows_scanned = 0",
        "    rows_matched = 0",
        "    decoded_chunks = 0",
    ]
    lines += ["    " + line for line in init]
    lines.append("    with np.errstate(over='ignore'):")
    lines.append("        for first, count in runs:")
    lines.append("            base = first * 64")
    lines.append("            end = base + count * 64")
    lines.append("            if end > n_rows:")
    lines.append("                end = n_rows")
    lines.append("            span = end - base")
    # Decode every needed column unconditionally: identical accounting
    # to the interpreted pass (chunk_unpacks/replica_reads per column).
    for i in range(len(needed_columns)):
        lines.append(
            f"            c{i} = dec{i}(first, count, "
            f"replica=rep{i}, out=buf{i})[:span]"
        )
    lines.append("            decoded_chunks += count")
    lines.append("            rows_scanned += span")
    if mask is True:
        lines.append("            n = span")
    elif mask is False:
        lines.append("            n = 0")
    else:
        lines.append(f"            mask = {mask}")
        lines.append("            n = int(mask.sum())")
    lines.append("            rows_matched += n")
    lines.append("            if n == 0:")
    lines.append("                continue")

    if mask is not False:  # folds are unreachable under a false mask
        for column, var in masked.items():
            src = names[column]
            picked = f"{src}[mask]" if isinstance(mask, str) else src
            lines.append(f"            {var} = {picked}")
        lines += ["            " + line for line in folds]

    lines.append(
        "    return rows_scanned, rows_matched, decoded_chunks, " + result
    )
    source = "\n".join(lines) + "\n"

    if fold is None:
        fn = _load(source, source, "kernel")
    else:
        # The fold is compiled once per width specialization and bound
        # into each kernel's namespace; prefixing its text keeps the
        # audit trail (and the cache key) whole.
        kernel_source = source
        source = fold.source + "\n\n" + kernel_source
        fn = _load(source, kernel_source, "kernel", fold=fold.fn)
    return CompiledKernel(
        source=source,
        fn=fn,
        columns=tuple(needed_columns),
        column_bits=dict(column_bits),
        literals=tuple(lits),
    )
