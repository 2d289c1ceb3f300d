"""Write golden.json: the default seed's answers, cross-checked against networkx.

Run from the repository root (needs networkx):

    python3 perfbench/make_golden.py

For the first operations of each in-process workload and for every bound
and plan input of cli-mix, qnetcap's answer is compared with a networkx
maximum flow computed from the input document alone; the file is written
only if every value agrees. The benchmark then holds each run on the
default seed to these values.
"""

from __future__ import annotations

import json
import math
import shutil
import sys

import networkx as nx

import gate
import workloads
from workloads import GOLDEN_SEED, HERE, ROOT, SRC

GOLDEN_OPS = {"plan-count-grid": 36, "bound-grid": 30}
REGIMES = {"count": "per-protocol", "freq": "per-use", "rate": "per-time"}


def nx_max_flow(doc: dict, capacity) -> float:
    """Undirected max-flow value with per-edge capacity(edge); parallel edges add up."""
    g = nx.DiGraph()
    g.add_nodes_from(doc["nodes"])
    for e in doc["edges"]:
        c = capacity(e)
        for u, v in ((e["tail"], e["head"]), (e["head"], e["tail"])):
            if g.has_edge(u, v):
                g[u][v]["capacity"] += c
            else:
                g.add_edge(u, v, capacity=c)
    return nx.maximum_flow_value(g, doc["alice"], doc["bob"])


def nx_bounds(doc: dict) -> tuple[float, float]:
    ((kind, _),) = doc["edges"][0]["usage"].items()
    floor = kind == "count"

    def budget(e):
        (b,) = e["usage"].values()
        return math.floor(b) if floor else b

    lower = nx_max_flow(doc, lambda e: budget(e) * gate.q_cap(e["channel"]["eta"]))
    upper = nx_max_flow(doc, lambda e: e["usage"][kind] * gate.esq_upper(e["channel"]["eta"]))
    return lower, upper


def nx_m(doc: dict) -> int:
    pairs = gate.pair_counts(doc)
    return round(nx_max_flow(doc, lambda e: pairs[e["id"]]))


def agree(what: str, ours: float, theirs: float) -> None:
    if not math.isclose(ours, theirs, rel_tol=gate.REL_TOL, abs_tol=1e-12):
        raise SystemExit(f"{what}: qnetcap {ours} != networkx {theirs}")


def main() -> int:
    workloads._load_golden = lambda: {}  # golden.json is what this script writes
    sys.path.insert(0, str(SRC))
    import qnetcap as qn

    golden: dict = {"seed": GOLDEN_SEED}

    w = workloads.PlanCountGrid(GOLDEN_SEED)
    w.qn = qn
    ms = []
    for k in range(GOLDEN_OPS[w.name]):
        text = w.item(k)
        m = json.loads(w.run(text)[2])["m"]
        agree(f"{w.name} #{k} m", m, nx_m(json.loads(text)))
        ms.append(m)
    golden[w.name] = ms

    w = workloads.BoundGrid(GOLDEN_SEED)
    w.qn = qn
    bounds = []
    for k in range(GOLDEN_OPS[w.name]):
        item = w.item(k)
        doc = json.loads(w.run(item))
        lower, upper = nx_bounds(json.loads(item[0]))
        agree(f"{w.name} #{k} lower", doc["lower"], lower)
        agree(f"{w.name} #{k} upper_esq", doc["upper_esq"], upper)
        bounds.append([doc["lower"], doc["upper_esq"]])
    golden[w.name] = bounds

    workdir = ROOT / ".perfbench_work" / "golden"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        w = workloads.CliMix(GOLDEN_SEED)
        w.setup(workdir)
        cli: dict = {"bound": [], "plan": []}
        for i, spec in enumerate(w.items["bound"]):
            net = qn.load_network(spec["args"][1])
            ((kind, _),) = spec["doc"]["edges"][0]["usage"].items()
            report = qn.sandwich_report(net, qn.Regime(REGIMES[kind]), spec["eps"])
            lower, upper = nx_bounds(spec["doc"])
            agree(f"cli bound #{i} lower", report.lower, lower)
            agree(f"cli bound #{i} upper_esq", report.upper_esq, upper)
            cli["bound"].append([report.lower, report.upper_esq])
        for i, spec in enumerate(w.items["plan"]):
            m = qn.plan(qn.load_network(spec["args"][1]), w.PLAN_EPSILON).m
            agree(f"cli plan #{i} m", m, nx_m(spec["doc"]))
            cli["plan"].append(m)
        golden[w.name] = cli
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    lines = ",\n".join(f" {json.dumps(k)}: {json.dumps(v)}" for k, v in golden.items())
    (HERE / "golden.json").write_text("{\n" + lines + "\n}\n")
    print(f"wrote {HERE / 'golden.json'}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
