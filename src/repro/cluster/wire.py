"""Deterministic wire encoding for shipped plans and shard results.

The distributed executor never actually opens sockets — the cluster is
simulated — but the *bytes* it would move are real accounting, so they
must be computed from a concrete encoding, not estimated.  This module
reuses the server's frame convention (:mod:`repro.server.protocol`): a
4-byte length prefix plus canonical JSON (sorted keys, no whitespace).
Canonical JSON makes the byte count a pure function of the payload
*content*, which is what lets smartcheck's cluster profile predict
``cluster.bytes_shipped`` deltas exactly from the oracle's expected
per-shard results.

Two payload shapes exist:

* :func:`plan_payload` — the request a coordinator ships to one owning
  shard: the logical plan text.  Plan shipping is
  the point of the design: the plan is a few hundred bytes regardless
  of table size, so scatter cost does not grow with data volume.
* :func:`result_payload` — the response a shard ships back: finalized
  partial aggregates / group states / the shard-local row prefix.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional

import numpy as np

from ..server.protocol import HEADER


def encode_payload(obj: dict) -> bytes:
    """Canonical JSON bytes: sorted keys, minimal separators."""
    return json.dumps(obj, separators=(",", ":"), sort_keys=True).encode(
        "utf-8"
    )


def frame_bytes(obj: dict) -> int:
    """Bytes one frame of ``obj`` occupies on the (simulated) wire."""
    return HEADER.size + len(encode_payload(obj))


def plan_payload(query, shard_id: int) -> dict:
    """The scatter request for one shard: the plan text.

    Uses the *logical* plan (``query.describe()``): each shard replans
    physically against its own zone maps and storage generations, which
    is what lets per-shard pruning differ while results stay identical.
    """
    return {
        "op": "execute",
        "shard": shard_id,
        "plan": query.describe(),
    }


def _jsonable_aggregates(aggregates: Dict[str, object]) -> Dict[str, object]:
    # sum/count are exact Python ints (arbitrary precision; JSON carries
    # them losslessly), min/max are ints or None.  Shipped specs never
    # contain un-finalized mean partials — the coordinator rewrites
    # mean into (sum, count) before shipping.
    return {name: value for name, value in aggregates.items()}


def result_payload(shard_id: int, result) -> dict:
    """The gather response for one shard's :class:`QueryResult`.

    Group states ship as a key-sorted list of ``[key, aggregates]``
    pairs (JSON objects cannot have integer keys); row results ship the
    *shard-local* indices — the coordinator rebases them onto the
    gather order with the shard's row offset.
    """
    out: Dict[str, object] = {"op": "result", "shard": shard_id,
                              "kind": result.kind}
    if result.kind == "aggregate":
        out["aggregates"] = _jsonable_aggregates(result.aggregates)
    elif result.kind == "groups":
        out["groups"] = [
            [int(key), _jsonable_aggregates(result.groups[key])]
            for key in sorted(result.groups)
        ]
    else:
        out["rows"] = [int(i) for i in result.rows]
        out["columns"] = {
            name: [int(v) for v in values]
            for name, values in result.columns.items()
        }
    return out


def expected_result_payload(
    shard_id: int,
    kind: str,
    aggregates: Optional[Dict[str, object]] = None,
    groups: Optional[Dict[int, Dict[str, object]]] = None,
    rows: Optional[np.ndarray] = None,
    columns: Optional[Dict[str, np.ndarray]] = None,
) -> dict:
    """Build the payload an oracle *predicts* a shard will ship.

    Mirrors :func:`result_payload` field-for-field so a test can price
    the expected response without executing anything — the byte-level
    contract smartcheck's exact ``cluster.bytes_shipped`` accounting
    rests on.
    """
    out: Dict[str, object] = {"op": "result", "shard": shard_id,
                              "kind": kind}
    if kind == "aggregate":
        out["aggregates"] = dict(aggregates or {})
    elif kind == "groups":
        groups = groups or {}
        out["groups"] = [
            [int(key), dict(groups[key])] for key in sorted(groups)
        ]
    else:
        rows_list: List[int] = [int(i) for i in (
            rows if rows is not None else ()
        )]
        out["rows"] = rows_list
        out["columns"] = {
            name: [int(v) for v in values]
            for name, values in (columns or {}).items()
        }
    return out
