"""Reference plan evaluator (correctness oracle).

A direct, non-simulated interpreter of physical plans.  It shares no code
with the staged engine, the CJOIN pipeline or the Volcano baseline, so the
integration suite can assert that all engines -- with and without sharing --
produce byte-identical results.  Sharing must never change answers; this is
the paper's implicit correctness invariant.

Aggregation is the engines' definition computed the slow, obvious way
(finite values only): every product ``v * w`` is a float, and sums and
counts add as :class:`~fractions.Fraction` and round once, so an engine's
answer must equal this one bit for bit.
"""

from __future__ import annotations

from fractions import Fraction

from repro.query.plan import (
    AggregateNode,
    AggSpec,
    CJoinNode,
    HashJoinNode,
    PlanNode,
    ScanNode,
    SelectNode,
    SortNode,
)


def evaluate_plan(plan: PlanNode, row_weight_of: dict[str, float] | None = None) -> list[tuple]:
    """Evaluate ``plan`` and return its rows (weights applied to additive
    aggregates exactly as the engine does, so results are comparable)."""
    rows, _w = _eval(plan)
    return rows


def _eval(node: PlanNode) -> tuple[list[tuple], float]:
    if isinstance(node, ScanNode):
        return list(node.table.iter_rows()), node.table.row_weight
    if isinstance(node, SelectNode):
        rows, w = _eval(node.child)
        pred = node.predicate.compile(node.child.schema)
        return [r for r in rows if pred(r)], w
    if isinstance(node, HashJoinNode):
        probe_rows, w = _eval(node.probe)
        build_rows, _bw = _eval(node.build)
        bkey = node.build.schema.index(node.build_key)
        pkey = node.probe.schema.index(node.probe_key)
        table: dict = {}
        for r in build_rows:
            table.setdefault(r[bkey], []).append(r)
        out = []
        for r in probe_rows:
            for m in table.get(r[pkey], ()):
                out.append(r + m)
        return out, w
    if isinstance(node, CJoinNode):
        return _eval_cjoin(node)
    if isinstance(node, AggregateNode):
        rows, w = _eval(node.child)
        return _aggregate(node, rows, w, node.child.schema), 1.0
    if isinstance(node, SortNode):
        rows, w = _eval(node.child)
        schema = node.child.schema
        for col, ascending in reversed(node.keys):
            i = schema.index(col)
            rows.sort(key=lambda r, i=i: r[i], reverse=not ascending)
        return rows, w
    raise TypeError(f"cannot evaluate {type(node).__name__}")


def _eval_cjoin(node: CJoinNode) -> tuple[list[tuple], float]:
    """Evaluate a CJoinNode the straightforward way: per-dimension lookup
    maps over the fact table, then the node's projection."""
    if not node.dim_tables:
        raise ValueError("CJoinNode evaluation requires resolved dim_tables")
    fact = node.fact_table_obj
    fact_schema = fact.schema
    rows = list(fact.iter_rows())
    if node.fact_predicate is not None:
        pred = node.fact_predicate.compile(fact_schema)
        rows = [r for r in rows if pred(r)]
    lookups = []
    for d, dim_table in zip(node.dims, node.dim_tables):
        dim_schema = dim_table.schema
        key_idx = dim_schema.index(d.dim_key)
        pred = d.predicate.compile(dim_schema) if d.predicate is not None else None
        selected = {
            r[key_idx]: r for r in dim_table.iter_rows() if pred is None or pred(r)
        }
        fk_idx = fact_schema.index(d.fact_fk)
        payload_idx = [dim_schema.index(c) for c in d.payload]
        lookups.append((fk_idx, selected, payload_idx))
    fact_idx = [fact_schema.index(c) for c in node.fact_payload]
    out = []
    for r in rows:
        values = [r[i] for i in fact_idx]
        ok = True
        for fk_idx, selected, payload_idx in lookups:
            dim_row = selected.get(r[fk_idx])
            if dim_row is None:
                ok = False
                break
            values.extend(dim_row[i] for i in payload_idx)
        if ok:
            out.append(tuple(values))
    return out, fact.row_weight


def _aggregate(node: AggregateNode, rows: list[tuple], weight: float, schema) -> list[tuple]:
    group_idx = [schema.index(g) for g in node.group_by]
    fns = [a.expr.compile(schema) if a.expr is not None else None for a in node.aggregates]
    groups: dict[tuple, list] = {}
    for r in rows:
        key = tuple(r[i] for i in group_idx)
        accs = groups.get(key)
        if accs is None:
            accs = groups[key] = [_new_acc(a) for a in node.aggregates]
        for i, a in enumerate(node.aggregates):
            _update(accs[i], a, fns[i], r, weight)
    return [key + tuple(_final(accs[i], a) for i, a in enumerate(node.aggregates)) for key, accs in groups.items()]


def _new_acc(spec: AggSpec) -> dict:
    return {"sum": Fraction(0), "count": 0, "min": None, "max": None}


def _update(acc: dict, spec: AggSpec, fn, row: tuple, weight: float) -> None:
    if spec.func in ("count", "avg"):
        acc["count"] += weight if isinstance(weight, int) else Fraction(weight)
        if spec.func == "count":
            return
    v = fn(row)
    if spec.func in ("sum", "avg"):
        acc["sum"] += Fraction(float(v * weight))
    elif spec.func == "min":
        acc["min"] = v if acc["min"] is None else min(acc["min"], v)
    else:
        acc["max"] = v if acc["max"] is None else max(acc["max"], v)


def _final(acc: dict, spec: AggSpec):
    if spec.func == "sum":
        return float(acc["sum"])
    if spec.func == "count":
        return acc["count"] if isinstance(acc["count"], int) else float(acc["count"])
    if spec.func == "avg":
        return float(acc["sum"] / acc["count"]) if acc["count"] else 0.0
    if spec.func == "min":
        return acc["min"]
    return acc["max"]
