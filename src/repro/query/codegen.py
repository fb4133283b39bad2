"""Fused-kernel compilation of planned queries (string codegen -> exec).

Every plan runs one **generated Python function** per morsel, so
unpack + predicate + output happen in a single pass over each
candidate-chunk run, whatever the query's shape — ungrouped aggregate,
``group_by`` or row query:

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
  :func:`repro.core.bitpack.exact_sum`;
* a ``group_by`` plan folds each masked run through one generated
  **grouped reduce** (:func:`group_fold`) specialized on the key's and
  every aggregate column's width: narrow keys index ``np.bincount``
  directly, wide keys go through one ``np.unique``; counts are a
  bincount, sums float64-weighted bincounts split into limbs narrow
  enough that every partial sum stays below 2**53 (so exact), min/max
  one stable argsort + ``reduceat`` — no per-group Python fold, only a
  per-*present*-group dict update in the executor's
  ``MorselPartial.groups`` shape;
* a row query (projection, with or without a predicate) is one more
  structure: the kernel appends each run's matching row indices and
  the projected columns' matching values, and ``LIMIT`` stays the
  executor's morsel-level concern — the kernel never sees it;
* decoding goes through ``SmartArray.decode_chunks`` with the
  executor's pinned replica buffers, once per needed column per run,
  so the chunk-unpack / replica-read accounting the smartcheck harness
  asserts on is exactly what the plan predicted;
* an aggregate or ``group_by`` kernel whose predicate is a conjunction
  of column-vs-literal ``>=``/``<``/``==`` comparisons (and whose key is
  at most :data:`_DIRECT_KEY_BITS` wide) also gets a :class:`NativeKernel`
  twin: the same morsel contract over :mod:`repro.core.native`'s fused
  scans, which the executor runs on morsels whose pinned generations
  are all bit-packed.  Its runs are counted through
  ``SmartArray.read_chunks``, the accounting ``decode_chunks`` records.

The generated source is kept on the :class:`CompiledKernel` (and shown
by ``explain()``) so a human can audit exactly what will run.
"""

from __future__ import annotations

import re
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import lru_cache
from typing import (Callable, Dict, Hashable, List, NamedTuple, Optional,
                    Tuple, Union)

import numpy as np

from ..core import bitpack, native
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

#: structural key -> ``(source, compiled function)``, least recently
#: used first.  A kernel's key is its :class:`_KernelKey` — everything
#: its source is specialized on and no literal — so one entry serves a
#: whole shape and a hit generates no source at all; a grouped reduce's
#: key is ``("fold", *its group_fold arguments)``.
_KERNEL_CACHE: "OrderedDict[Hashable, Tuple[str, Callable]]" = OrderedDict()

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
    (exact for any count below 2**32), the ``bitpack.exact_sum`` recipe inlined.
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
    as Python ints — the grouped twin of ``bitpack.exact_sum``.
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
    key = ("fold", key_bits, value_bits, aggregates, max_elements)
    entry = _cached(key) or _load(key, source, "fold")
    return GroupFold(source, entry[1])


def _cached(key: Hashable) -> Optional[Tuple[str, Callable]]:
    """The ``(source, fn)`` kept under ``key``, refreshed as most
    recently used; ``None`` when it is not (or no longer) kept.

    No lock: planners on different threads race benignly.  Each step is
    one ``OrderedDict`` call (atomic under the GIL); losing a race costs
    a duplicate compile or an early eviction, never a wrong function —
    the caller keeps the entry it was handed whatever the cache does.
    """
    entry = _KERNEL_CACHE.get(key)
    if entry is not None:
        try:
            _KERNEL_CACHE.move_to_end(key)
        except KeyError:  # evicted since the get
            pass
    return entry


def _load(key: Hashable, source: str, name: str, shown: str = "",
          **bindings) -> Tuple[str, Callable]:
    """Compile ``source``, keep ``(shown or source, its function
    name)`` under ``key`` among the :data:`_KERNEL_CACHE_CAP` most
    recently used, and return that entry.

    Keys are finer than sources: columns whose widths differ but fall
    in one sum regime (the shards of one table, say) generate the same
    text, so a kept entry with identical text lends its function instead
    of compiling it again."""
    shown = shown or source
    fn = next((kept_fn for kept, kept_fn in tuple(_KERNEL_CACHE.values())
               if kept == shown), None)
    if fn is None:
        namespace: Dict[str, object] = {
            "np": np, "min": min, "max": max, **bindings}
        exec(compile(source, "<repro.query.codegen>", "exec"), namespace)
        fn = namespace[name]
    entry = _KERNEL_CACHE[key] = (shown, fn)
    while len(_KERNEL_CACHE) > _KERNEL_CACHE_CAP:
        try:
            _KERNEL_CACHE.popitem(last=False)
        except KeyError:  # another planner emptied it first
            break
    return entry


@dataclass(frozen=True)
class CompiledKernel:
    """One generated morsel kernel plus its audit trail.

    ``fn(runs, n_rows, lits, dec0, rep0, buf0, ...)`` consumes the
    morsel's candidate-chunk runs, the statement's :attr:`literals` and
    per-column (decode-method, replica, scratch) triples in
    :attr:`columns` order, returning ``(rows_scanned, rows_matched,
    decoded_chunks, *output)`` where ``output`` fills the executor's
    :class:`~repro.query.stats.MorselPartial` slots: ``(agg_partials,
    group_partials)`` for an aggregate plan (``group_by`` plans fill the
    second and leave the first empty; ungrouped plans return ``None``
    groups), ``(indices, values)`` for a row plan.  For a ``group_by``
    plan :attr:`source` opens with the grouped reduce the kernel calls.
    """

    source: str
    fn: Callable = field(repr=False, compare=False)
    columns: Tuple[str, ...]
    #: Bit widths the aggregate folds were specialized on; a morsel
    #: whose pinned generation no longer matches (a live migration
    #: mid-query) runs the kernel compiled for the pinned widths.
    column_bits: Dict[str, int] = field(compare=False)
    #: The statement's in-domain literals in ``lits[k]`` order — the one
    #: part of a kernel that differs between two statements of a shape.
    literals: Tuple[np.uint64, ...] = ()
    #: The same kernel over :mod:`repro.core.native`'s fused scans, for
    #: morsels whose pinned generations are all bit-packed; ``None``
    #: when the shape does not lower (see :func:`_native_shape`).
    native: Optional["NativeKernel"] = field(default=None, compare=False)


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


def _emit_rows(projection: Tuple[str, ...], names: Dict[str, str],
               mask: _BoolIR) -> Tuple[List[str], List[str], str]:
    """Row output: ``(init lines, per-run append lines, result
    expression)`` — the run's matching row indices and, per projected
    column, its matching values (``MorselPartial.indices/values``).

    Every list starts with an empty piece so the concatenation is never
    empty.  Unmasked spans are views of the reused decode buffer, so
    they are copied; a boolean-mask gather already is a copy.
    """
    init = ["rows = [np.empty(0, dtype=np.int64)]"]
    if isinstance(mask, str):
        appends = ["rows.append(np.flatnonzero(mask) + base)"]
        picked = "[mask]"
    else:
        appends = ["rows.append(np.arange(base, end, dtype=np.int64))"]
        picked = ".copy()"
    values: List[str] = []
    for j, column in enumerate(projection):
        init.append(f"p{j} = [np.empty(0, dtype=np.uint64)]")
        appends.append(f"p{j}.append({names[column]}{picked})")
        values.append(f"{column!r}: np.concatenate(p{j})")
    return init, appends, "np.concatenate(rows), {" + ", ".join(values) + "}"


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


class _KernelKey(NamedTuple):
    """Everything a kernel's source is specialized on, and no literal:
    the :data:`_KERNEL_CACHE` key of a compiled shape."""

    #: Needed columns in decode order (the kernel's argument order).
    columns: Tuple[str, ...]
    #: The predicate lowered by :func:`_emit_bool`: each comparison with
    #: its normalized operator and its bound's clamp-fold class — an
    #: in-domain bound is a ``lits[k]`` slot, a bound that folds the
    #: comparison to true/false has simplified its connectives away —
    #: or ``True``/``False`` for a predicate that folds whole.
    predicate: _BoolIR
    #: ``(kind, column)`` per aggregate output slot.
    aggregates: Tuple[Tuple[str, Optional[str]], ...]
    group_key: Optional[str]
    #: Distinct projected columns of a row query, in output order;
    #: ``None`` for an aggregate query.
    projection: Optional[Tuple[str, ...]]
    #: Decoded value width per needed column, in ``columns`` order: the
    #: folds' overflow regime and the grouped reduce's limbs.
    value_bits: Tuple[int, ...]
    morsel_elements: int


def _kernel_signature(query: Query, needed_columns: Tuple[str, ...],
                      column_bits: Dict[str, int], morsel_elements: int,
                      lits: List[np.uint64]) -> _KernelKey:
    """``query``'s kernel key; its in-domain literals are appended to
    ``lits`` (through :func:`_literal_u64`) in ``lits[k]`` order."""
    names = {name: f"c{i}" for i, name in enumerate(needed_columns)}
    predicate: _BoolIR = True
    if query.predicate is not None:
        predicate = _emit_bool(query.predicate, names, lits)
    return _KernelKey(
        columns=needed_columns,
        predicate=predicate,
        aggregates=tuple((spec.kind, spec.column)
                         for spec in query.aggregates),
        group_key=query.group_key,
        projection=(None if query.aggregates
                    else tuple(dict.fromkeys(query.projection or ()))),
        value_bits=tuple(column_bits[name] for name in needed_columns),
        morsel_elements=morsel_elements,
    )


def compile_query(query: Query, needed_columns: Tuple[str, ...],
                  column_bits: Dict[str, int],
                  morsel_elements: int) -> CompiledKernel:
    """Lower ``query`` to a :class:`CompiledKernel`.

    ``needed_columns`` is the plan's decode order; the kernel's
    positional arguments follow it.  A shape planned before reuses its
    kernel: only the literals are extracted, no source is generated.
    The kernel gets its native twin where the shape lowers and every
    needed column of ``query.table`` is stored bit-packed now: a morsel
    over an encoded column could never run it (and each morsel checks
    the codecs it pins again).
    """
    needed_columns = tuple(needed_columns)
    lits: List[np.uint64] = []
    key = _kernel_signature(query, needed_columns, column_bits,
                            morsel_elements, lits)
    source, fn = _cached(key) or _generate_kernel(
        key, query, column_bits, morsel_elements)
    shape = None
    if all(query.table[name].codec == "bitpack" for name in needed_columns):
        shape = _native_shape(key, tuple(column_bits[name]
                                         for name in needed_columns))
    return CompiledKernel(
        source=source,
        fn=fn,
        columns=needed_columns,
        column_bits=dict(column_bits),
        literals=tuple(lits),
        native=None if shape is None else NativeKernel(shape, lits),
    )


def _generate_kernel(key: _KernelKey, query: Query,
                     column_bits: Dict[str, int],
                     morsel_elements: int) -> Tuple[str, Callable]:
    """Generate, compile and keep the kernel for ``key``: ``(source,
    fn)``.  For a group-by plan the source opens with the grouped reduce
    the kernel calls.  Aggregate kernels end in folds, row kernels in
    appends; the decode-and-mask loop around them is shared."""
    names = {name: f"c{i}" for i, name in enumerate(key.columns)}
    args = "".join(
        f", dec{i}, rep{i}, buf{i}" for i in range(len(key.columns))
    )
    mask = key.predicate

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
    elif key.projection is not None:
        init, folds, result = _emit_rows(key.projection, names, mask)
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
    # Decode every needed column unconditionally: exactly the planned
    # accounting (chunk_unpacks/replica_reads per column).
    for i in range(len(key.columns)):
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

    if mask is not False:  # output is unreachable under a false mask
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
        return _load(key, source, "kernel")
    # The fold is compiled once per width specialization and bound into
    # the kernel's namespace; prefixing its text keeps the audit trail
    # whole.
    return _load(key, source, "kernel", shown=fold.source + "\n\n" + source,
                 fold=fold.fn)


# -- native lowering --------------------------------------------------------

#: One lowered comparison of a bare column against a runtime literal.
_NATIVE_ATOM = re.compile(r"\(c(\d+) (>=|<|==) lits\[(\d+)\]\)")


class NativeShape(NamedTuple):
    """What a kernel key lowers to over :mod:`repro.core.native`."""

    #: ``(column index, op, literal slot)`` per comparison of the
    #: predicate's conjunction; empty when it folded to a constant.
    terms: Tuple[Tuple[int, str, int], ...]
    #: The predicate folded to false: nothing matches.
    never: bool
    #: ``(kind, column index or None)`` per aggregate output slot.
    aggregates: Tuple[Tuple[str, Optional[int]], ...]
    #: Index of the group key among the columns, or ``None``.
    group: Optional[int]
    #: Width per column, in decode order: the packed words' widths.
    bits: Tuple[int, ...]


@lru_cache(maxsize=_KERNEL_CACHE_CAP)
def _native_shape(key: _KernelKey,
                  bits: Tuple[int, ...]) -> Optional[NativeShape]:
    """``key``'s native lowering over columns ``bits`` wide, or
    ``None`` when it has none: a row query, a key wider than
    :data:`_DIRECT_KEY_BITS`, more columns than one native scan reads,
    or a predicate that is not a conjunction of bare-column comparisons
    with ``>=``, ``<`` or ``==`` after clamping and folding."""
    if (key.projection is not None
            or not 0 < len(key.columns) <= native.MAX_COLUMNS):
        return None
    index = {name: i for i, name in enumerate(key.columns)}
    group = None
    if key.group_key is not None:
        group = index[key.group_key]
        if bits[group] > _DIRECT_KEY_BITS:
            return None
    terms: Tuple[Tuple[int, str, int], ...] = ()
    if isinstance(key.predicate, str):
        if _NATIVE_ATOM.sub("", key.predicate).strip("()& "):
            return None
        terms = tuple((int(c), op, int(k)) for c, op, k
                      in _NATIVE_ATOM.findall(key.predicate))
    return NativeShape(
        terms=terms,
        never=key.predicate is False,
        aggregates=tuple((kind, None if column is None else index[column])
                         for kind, column in key.aggregates),
        group=group,
        bits=bits,
    )


def _interval(op: str, value: int) -> Tuple[int, int]:
    """The inclusive ``[lo, hi]`` of ``v op value`` over uint64 (empty
    when ``lo > hi``)."""
    if op == ">=":
        return value, U64_MAX
    if op == "<":
        return (0, value - 1) if value else (1, 0)
    return value, value


class NativeKernel:
    """A :class:`CompiledKernel`'s native twin, bound to the statement's
    literals: ``kernel(runs, n_rows, read0, words0, read1, words1, ...)``
    — per column its :meth:`~repro.core.smart_array.SmartArray.read_chunks`
    and the pinned bit-packed words — returns what the NumPy kernel
    returns.  Each run is counted column by column exactly as the NumPy
    kernel's decodes count it, then scanned in one native call."""

    __slots__ = ("shape", "_lits", "_scan", "_folds")

    def __init__(self, shape: NativeShape, lits: List[np.uint64]) -> None:
        self.shape = shape
        self._lits = lits
        self._scan: Optional[native.Scan] = None
        self._folds = sorted({c for _kind, c in shape.aggregates
                              if c is not None})

    @property
    def scan(self) -> "native.Scan":
        """The scan's fixed arguments, bound on first use: a plan whose
        morsels never run natively does not pay for them."""
        if self._scan is None:
            shape = self.shape
            bounds: List[Optional[Tuple[int, int]]] = [None] * len(
                shape.bits)
            for column, op, slot in shape.terms:
                lo, hi = _interval(op, int(self._lits[slot]))
                if bounds[column] is not None:
                    lo = max(lo, bounds[column][0])
                    hi = min(hi, bounds[column][1])
                bounds[column] = (lo, hi)
            if shape.never:
                bounds[0] = (1, 0)
            kinds = shape.aggregates
            self._scan = native.Scan(
                shape.bits, bounds,
                summed=[c for kind, c in kinds if kind in ("sum", "mean")],
                extremes=[c for kind, c in kinds if kind in ("min", "max")])
        return self._scan

    def describe(self) -> str:
        call = "scan_agg" if self.shape.group is None else (
            f"scan_group(key=c{self.shape.group})")
        filters = " & ".join(
            f"c{column} {op} lits[{slot}]"
            for column, op, slot in self.shape.terms)
        if self.shape.never:
            filters = "false"
        return f"{call} where {filters or 'true'}"

    def __call__(self, runs, n_rows, *args):
        reads, buffers = args[0::2], args[1::2]
        rows_scanned = rows_matched = decoded_chunks = 0
        scan, group = self.scan, self.shape.group
        slots = None if group is None else native.GroupSlots(scan, group)
        folded: Dict[int, List[object]] = {}
        for first, count in runs:
            base = first * bitpack.CHUNK_ELEMENTS
            span = min(n_rows, base + count * bitpack.CHUNK_ELEMENTS) - base
            for read, words in zip(reads, buffers):
                read(first, count, words)
            decoded_chunks += count
            rows_scanned += span
            if slots is not None:
                rows_matched += native.scan_group(
                    scan, group, slots, buffers, first, count, span)
                continue
            n, columns = native.scan_agg(scan, buffers, first, count, span)
            rows_matched += n
            if not n:
                continue
            for c in self._folds:
                total, low, high = columns[c]
                kept = folded.get(c)
                folded[c] = ([total, low, high] if kept is None else
                             [kept[0] + total, min(kept[1], low),
                              max(kept[2], high)])
        if slots is not None:
            return (rows_scanned, rows_matched, decoded_chunks, [],
                    self._groups(slots))
        out: List[object] = []
        for kind, c in self.shape.aggregates:
            fold = folded.get(c)
            if kind == "count":
                out.append(rows_matched)
            elif kind == "sum":
                out.append(fold[0] if fold else 0)
            elif kind == "mean":
                out.append((fold[0] if fold else 0, rows_matched))
            else:
                out.append(None if fold is None
                           else fold[1 if kind == "min" else 2])
        return rows_scanned, rows_matched, decoded_chunks, out, None

    def _groups(self, slots: "native.GroupSlots") -> Dict[int, List[object]]:
        """The :class:`~repro.query.stats.MorselPartial` group dict of
        the slots any row reached, in key order."""
        live = np.flatnonzero(slots.counts)
        counts = slots.counts[live].tolist()
        columns: List[List[object]] = []
        for kind, c in self.shape.aggregates:
            if kind == "count":
                columns.append(counts)
                continue
            offset = c * slots.slots + live
            if kind in ("sum", "mean"):
                sums = [low | high << 64 for low, high in zip(
                    slots.sums[2 * offset].tolist(),
                    slots.sums[2 * offset + 1].tolist())]
                columns.append(sums if kind == "sum"
                               else list(zip(sums, counts)))
            else:
                extremes = slots.mins if kind == "min" else slots.maxs
                columns.append(extremes[offset].tolist())
        return {key: list(partials) for key, *partials
                in zip(live.tolist(), *columns)}
