"""Per-operation correctness gate, run outside the timed region.

The checks recompute what they need from the input documents with the
closed-form weights, so they do not trust the code paths they check.
Each check raises GateError on the first breach and returns the counts
the traced run reports.
"""

from __future__ import annotations

import csv
import io
import json
import math

REL_TOL = 1e-9


class GateError(Exception):
    """An operation's answer failed the gate."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise GateError(message)


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-12)


def q_cap(eta: float) -> float:
    return math.log2(1.0 / (1.0 - eta))


def esq_upper(eta: float) -> float:
    return math.log2((1.0 + eta) / (1.0 - eta))


def _budget(edge: dict) -> tuple[str, float]:
    ((kind, value),) = edge["usage"].items()
    return kind, float(value)


def pair_counts(net_doc: dict) -> dict[str, int]:
    """Pairs each edge generates: floor(floor(count) * q_cap)."""
    out = {}
    for e in net_doc["edges"]:
        _, count = _budget(e)
        out[e["id"]] = math.floor(math.floor(count) * q_cap(e["channel"]["eta"]))
    return out


def check_plan(net_doc: dict, plan_doc: dict, epsilon: float) -> dict:
    """Path-set invariants and exact pair accounting of an emitted plan.

    Returns the plan's pair counts and path lengths.
    """
    generated = pair_counts(net_doc)
    ends = {e["id"]: {e["tail"], e["head"]} for e in net_doc["edges"]}
    alice, bob = net_doc["alice"], net_doc["bob"]
    paths = plan_doc["paths"]
    _require(plan_doc["m"] == len(paths), f"m={plan_doc['m']} but {len(paths)} paths")
    consumed = {eid: 0 for eid in generated}
    seen: set[str] = set()
    for i, p in enumerate(paths):
        nodes, bells = p["nodes"], p["bell_edges"]
        _require(nodes[0] == alice and nodes[-1] == bob, f"path {i} does not run alice -> bob")
        _require(len(set(nodes)) == len(nodes), f"path {i} repeats a vertex")
        _require(len(bells) == len(nodes) - 1, f"path {i} edge count mismatch")
        _require(plan_doc["swap_schedules"][i] == nodes[1:-1], f"path {i} swap schedule")
        for (u, v), bell in zip(zip(nodes, nodes[1:]), bells):
            parent, _, index = bell.rpartition("#")
            _require(parent in ends and ends[parent] == {u, v},
                     f"bell pair {bell!r} does not join {u!r} and {v!r}")
            _require(index.isdigit() and int(index) < generated[parent],
                     f"bell pair {bell!r} was never generated")
            _require(bell not in seen, f"bell pair {bell!r} consumed twice")
            seen.add(bell)
            consumed[parent] += 1
    unused = plan_doc["unused_pairs"]
    _require(set(unused) == set(generated), "unused_pairs does not list every edge")
    for eid, n in generated.items():
        _require(consumed[eid] + unused[eid] == n,
                 f"edge {eid!r}: {consumed[eid]} consumed + {unused[eid]} idle != {n}")
    counted = sum(1 for n in generated.values() if n > 0)
    _require(plan_doc["counted_edges"] == counted, "counted_edges")
    _require(plan_doc["error_budget"] == counted * epsilon, "error_budget != counted_edges * eps")
    return {
        "bell_pairs": sum(generated.values()),
        "pairs_consumed": len(seen),
        "pairs_idle": sum(unused.values()),
        "path_lens": [len(p["bell_edges"]) for p in paths],
    }


def _check_witness(net_doc: dict, cut: dict, weight, floor: bool, name: str) -> None:
    side = set(cut["v_a"])
    _require(net_doc["alice"] in side and net_doc["bob"] not in side, f"{name}: bad sides")
    crossing = [e for e in net_doc["edges"] if (e["tail"] in side) != (e["head"] in side)]
    _require([e["id"] for e in crossing] == cut["crossing"], f"{name}: crossing set")
    value = 0.0
    for e in crossing:
        _, b = _budget(e)
        value += (math.floor(b) if floor else b) * weight(e["channel"]["eta"])
    _require(_close(value, cut["value"]), f"{name}: value {cut['value']} != sum {value}")


def check_bound(net_doc: dict, report: dict, epsilon: float) -> None:
    """Sandwich order, the lossy factor-two theorem and both cut witnesses."""
    lower, upper = report["lower"], report["upper_esq"]
    _require(lower <= upper * (1 + REL_TOL), f"lower {lower} > upper_esq {upper}")
    _require(upper <= 2 * lower * (1 + REL_TOL), f"upper_esq {upper} > 2 * lower {lower}")
    floor = report["regime"] == "per-protocol"
    _check_witness(net_doc, report["lower_witness"], q_cap, floor, "lower_witness")
    _check_witness(net_doc, report["upper_witness"], esq_upper, False, "upper_witness")
    _require(_close(report["lower_witness"]["value"], lower), "lower != witness value")
    _require(_close(report["upper_witness"]["value"], upper), "upper_esq != witness value")
    if floor:
        root = math.sqrt(epsilon)
        x = 2 * root
        h = 0.0 if x in (0.0, 1.0) else -x * math.log2(x) - (1 - x) * math.log2(1 - x)
        expected = (upper + 4 * h) / (1 - 16 * root)
        _require(not report["vacuous"] and _close(report["upper_eps_corrected"], expected),
                 "upper_eps_corrected")


def check_golden(values: dict, golden: dict) -> None:
    for key, want in golden.items():
        _require(_close(values[key], want), f"{key}={values[key]} differs from golden {want}")


def check_swap(report: dict, chain: list[float]) -> None:
    """Werner chains close under swapping: p' = prod(p), distance 3(1-p')/2."""
    _require(report["pass"] is True, "simulate-swap did not pass")
    _require(report["chain"] == chain, "chain echoed wrongly")
    expected = 1.5 * (1 - math.prod(chain))
    _require(abs(report["trace_distance"] - expected) < 1e-9,
             f"trace distance {report['trace_distance']} != {expected}")
    budget = sum(1.5 * (1 - p) for p in chain)
    _require(abs(report["budget"] - budget) < 1e-9, "budget")


def check_sweep(text: str, grid: list[float]) -> int:
    """Sweep CSV over eta on an all-lossy network; returns the row count."""
    rows = list(csv.reader(io.StringIO(text)))
    _require(rows and rows[0] == ["eta", "lower", "upper_esq", "ratio"], "sweep header")
    body = rows[1:]
    _require(len(body) == len(grid), f"{len(body)} sweep rows for {len(grid)} grid points")
    for row, value in zip(body, grid):
        eta, lower, upper, ratio = (float(x) for x in row)
        _require(abs(eta - value) < 1e-9, f"sweep row at {eta}, expected {value}")
        _require(0 < lower <= upper * (1 + REL_TOL) and upper <= 2 * lower * (1 + REL_TOL),
                 f"sweep row {row}: sandwich broken")
        _require(abs(ratio - upper / lower) < 1e-9, f"sweep row {row}: ratio")
    return len(body)


def check_validate(net_doc: dict, stdout: str) -> None:
    kinds = {"count": "count", "freq": "frequency", "rate": "rate"}
    kind = kinds[_budget(net_doc["edges"][0])[0]] if net_doc["edges"] else "none"
    want = f"ok: {len(net_doc['nodes'])} nodes, {len(net_doc['edges'])} edges, {kind} budgets\n"
    _require(stdout == want, f"validate printed {stdout!r}, expected {want!r}")


def loads(text: str) -> dict:
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        raise GateError(f"output is not JSON: {err}") from err
