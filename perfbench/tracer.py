"""Span recorder for the traced benchmark run.

Installing a Tracer wraps the public functions of each qnetcap module, so
every call records one span: name, start, end, parent span, operation id
and phase. Spans stay in memory (compact arrays) until the run ends; the
per-layer figures are computed from them afterwards. Counts are recorded
at the same call boundaries.

A name missing from the program is skipped, so the tracer keeps working
when a later version deletes or renames a function; the figures that
depended on it then read zero.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array
from contextlib import contextmanager

# layer -> public functions whose calls become spans
TRACED = {
    "netmodel": ("parse_network", "crossing_edges", "export_dot"),
    "capacity": ("edge_weight", "epsilon_corrected_upper"),
    "cuts_flows": (
        "flow_graph_from_network", "flow_graph_from_bell", "max_flow_value",
        "min_cut", "max_disjoint_paths", "check_path_set",
    ),
    "aggregator": (
        "build_bell_network", "plan", "sandwich_report",
        "plan_to_dict", "sandwich_report_to_dict", "plan_to_dot",
    ),
    "qsim_oracle": ("swap_chain", "verify_error_chain"),
    "cli": ("cmd_validate", "cmd_bound", "cmd_plan", "cmd_simulate_swap", "cmd_sweep"),
}

PHASE_OP = 0  # inside a timed operation
PHASE_GATE = 1  # correctness gate, outside the timed region


def _count_parse(rec, args, result):
    rec.add("netmodel.bytes_parsed", len(args[0]))
    rec.add("netmodel.edges", len(result.edges))


def _count_arcs(rec, args, result):
    rec.add("cuts_flows.arcs", len(result.arcs))


def _count_links(rec, args, result):
    rec.add("qsim_oracle.links", len(args[0]))


COUNTERS = {
    "netmodel.parse_network": _count_parse,
    "cuts_flows.flow_graph_from_network": _count_arcs,
    "cuts_flows.flow_graph_from_bell": _count_arcs,
    "qsim_oracle.swap_chain": _count_links,
}


class Tracer:
    """Records spans and counts while installed; see module docstring."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.phase = array("b")
        self.start = array("q")
        self.end = array("q")
        self.counts: dict[tuple[int, str], float] = {}
        self.current_op = -1
        self.current_phase = PHASE_OP
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # --- recording -------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def add(self, key: str, value: float) -> None:
        k = (self.current_phase, key)
        self.counts[k] = self.counts.get(k, 0) + value

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.current_op)
        self.phase.append(self.current_phase)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(self.name_id(name))
        try:
            yield
        finally:
            self._close(idx)

    def innermost(self) -> str:
        return self.names[self.name[self._stack[-1]]] if self._stack else ""

    # --- installation ----------------------------------------------------

    def _wrap(self, name: str, fn):
        nid = self.name_id(name)
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if counter is not None:
                counter(self, args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every TRACED function wherever qnetcap modules refer to it."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "qnetcap" or n.startswith("qnetcap."))]
        for layer, funcs in TRACED.items():
            try:
                home = importlib.import_module(f"qnetcap.{layer}")
            except ImportError:
                continue
            for fname in funcs:
                fn = getattr(home, fname, None)
                if fn is None:
                    continue
                wrapped = self._wrap(f"{layer}.{fname}", fn)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            self._patch(mod, attr, wrapped)
        self._count_augmentations()

    def _count_augmentations(self) -> None:
        # augmenting paths are found inside the residual solver, which has no
        # public entry point; count them where the private method exists
        solver = getattr(sys.modules.get("qnetcap.cuts_flows"), "_ResidualSolver", None)
        find = getattr(solver, "_find_augmenting_path", None)
        if find is None:
            return

        @functools.wraps(find)
        def counted(solver_self):
            path = find(solver_self)
            if path is not None:
                self.add(f"augmentations:{self.innermost()}", 1)
            return path

        self._patch(solver, "_find_augmenting_path", counted)

    def _patch(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # --- merging spans recorded in child processes ------------------------

    def dump(self) -> bytes:
        """Serialize spans and counts, for a child process to hand back."""
        header = json.dumps({
            "names": self.names,
            "n": len(self.start),
            "counts": [[p, k, v] for (p, k), v in self.counts.items()],
        }).encode()
        body = b"".join(a.tobytes() for a in
                        (self.name, self.parent, self.phase, self.start, self.end))
        return len(header).to_bytes(8, "little") + header + body

    def merge(self, blob: bytes, op: int) -> None:
        """Append spans dumped by a child, tagged with operation id ``op``."""
        hlen = int.from_bytes(blob[:8], "little")
        header = json.loads(blob[8:8 + hlen])
        n = header["n"]
        arrays = [array("i"), array("i"), array("b"), array("q"), array("q")]
        pos = 8 + hlen
        for a in arrays:
            size = n * a.itemsize
            a.frombytes(blob[pos:pos + size])
            pos += size
        names, parents, phases, starts, ends = arrays
        ids = [self.name_id(nm) for nm in header["names"]]
        base = len(self.start)
        for i in range(n):
            self.name.append(ids[names[i]])
            self.parent.append(parents[i] + base if parents[i] >= 0 else -1)
            self.op.append(op)
            self.phase.append(phases[i])
            self.start.append(starts[i])
            self.end.append(ends[i])
        for phase, key, value in header["counts"]:
            k = (phase, key)
            self.counts[k] = self.counts.get(k, 0) + value

    # --- analysis ----------------------------------------------------------

    def totals(self) -> dict[tuple[int, str], tuple[float, float, int]]:
        """(phase, span name) -> (total ms, self ms, calls)."""
        n = len(self.start)
        child_ns = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child_ns[p] += self.end[i] - self.start[i]
        out: dict[tuple[int, str], list] = {}
        for i in range(n):
            dur = self.end[i] - self.start[i]
            key = (self.phase[i], self.names[self.name[i]])
            acc = out.setdefault(key, [0.0, 0.0, 0])
            acc[0] += dur / 1e6
            acc[1] += (dur - child_ns[i]) / 1e6
            acc[2] += 1
        return {k: tuple(v) for k, v in out.items()}
