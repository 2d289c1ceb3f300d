"""Workload definitions, child-process helpers and the closed measuring loop."""

from __future__ import annotations

import importlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import threading
import time
import traceback
from collections import deque
from pathlib import Path

import gate
import inputs
from tracer import PHASE_GATE, PHASE_OP, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCHEMAS = ROOT / "docs" / "schemas"
GOLDEN_SEED = 1601
CHILD_TIMEOUT_S = 120


def child_env() -> dict:
    """Environment of every qnetcap child: the source tree, not an installed copy."""
    return dict(os.environ, PYTHONPATH=str(SRC))


def _load_golden() -> dict:
    return json.loads((HERE / "golden.json").read_text())


# --- workloads ----------------------------------------------------------------

class InProcess:
    """Shared loop pieces for the two in-process workloads."""

    name = ""

    def __init__(self, seed: int):
        self.seed = seed
        self.qn = None
        golden = _load_golden() if seed == GOLDEN_SEED else {}
        self.golden = golden.get(self.name, [])
        self.tracer: Tracer | None = None
        self.begin()

    def begin(self) -> None:
        """Start a measured phase: forget what the warm-up or an earlier phase gathered."""
        self.stats: list[dict] = []

    def rng(self, k: int) -> random.Random:
        return random.Random(f"{self.name}/{self.seed}/{k}")

    def draw(self, k: int, cycle: list) -> inputs.Stratified:
        """Stratified draws for operation k, blocked by its configuration."""
        config = cycle[k % len(cycle)]
        turn, pos = divmod(k, len(cycle))
        occurrence = turn * cycle.count(config) + cycle[:pos].count(config)
        block, position = divmod(occurrence, inputs.STRATA)
        key = f"{self.name}/{self.seed}/{config}/{block}"
        return inputs.Stratified(self.rng(k), key, position)

    def setup(self, workdir: Path) -> None:
        self.qn = importlib.import_module("qnetcap")

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def dumps(self, obj, **kwargs) -> str:
        if self.tracer is None:
            return json.dumps(obj, **kwargs)
        with self.tracer.span("aggregator.json_dumps"):
            return json.dumps(obj, **kwargs)


class PlanCountGrid(InProcess):
    """Bell expansion and unit-capacity max-flow dominate every operation."""

    name = "plan-count-grid"
    EPSILON = 1e-3
    # (side, cmax) cycle over all nine pairs. The shares put the median
    # inside the (10, 30) operations and p90 inside the (10, 100) ones,
    # rather than between two pairs, where it would jump from seed to seed.
    CYCLE = [(6, 10), (10, 30), (8, 10), (6, 100), (10, 10), (10, 100),
             (6, 30), (10, 30), (8, 30), (8, 100), (10, 30), (10, 100)]

    def item(self, k: int) -> str:
        side, cmax = self.CYCLE[k % len(self.CYCLE)]
        draw = self.draw(k, self.CYCLE)
        return inputs.count_grid_text(draw.rng, side, cmax, draw, fixed_ends=True)

    def run(self, text: str):
        qn = self.qn
        net = qn.parse_network(text)
        p = qn.plan(net, self.EPSILON)
        out = self.dumps(qn.plan_to_dict(p), indent=2, sort_keys=True)
        return net, p, out

    def check(self, k: int, text: str, result) -> None:
        qn = self.qn
        net, p, out = result
        doc = gate.loads(out)
        stats = gate.check_plan(json.loads(text), doc, self.EPSILON)
        lower = qn.sandwich_report(net, qn.Regime.PER_PROTOCOL).lower
        if doc["m"] != lower:
            raise gate.GateError(f"m={doc['m']} but the per-protocol lower bound is {lower}")
        qn.check_path_set(qn.build_bell_network(net), p.paths)
        if k < len(self.golden) and doc["m"] != self.golden[k]:
            raise gate.GateError(f"m={doc['m']} differs from golden {self.golden[k]}")
        self.stats.append(stats)


class BoundGrid(InProcess):
    """Real-valued max-flow, witness recomputation and JSON parsing dominate."""

    name = "bound-grid"
    # 3 : 4 : 3 shares put the median inside the side-30 operations and
    # p90 inside the side-40 ones
    SIDES = (20, 30, 40, 20, 30, 40, 20, 30, 40, 30)
    BUDGETS = ("freq", "rate", "count")
    CYCLE = list(zip(SIDES * 3, BUDGETS * 10))  # every (side, budget) pair
    REGIMES = {"freq": "per-use", "rate": "per-time", "count": "per-protocol"}
    COUNT_EPSILON = 1e-4

    def item(self, k: int):
        draw = self.draw(k, self.CYCLE)
        side, budget = self.CYCLE[k % len(self.CYCLE)]
        eps = self.COUNT_EPSILON if budget == "count" else 0.0
        return (inputs.lossy_grid_text(draw.rng, side, budget, draw, fixed_ends=True),
                self.REGIMES[budget], eps)

    def run(self, item):
        qn = self.qn
        text, regime, eps = item
        net = qn.parse_network(text)
        report = qn.sandwich_report(net, qn.Regime(regime), eps)
        return self.dumps(qn.sandwich_report_to_dict(report))

    def check(self, k: int, item, out: str) -> None:
        text, _, eps = item
        doc = gate.loads(out)
        gate.check_bound(json.loads(text), doc, eps)
        if k < len(self.golden):
            lower, upper = self.golden[k]
            gate.check_golden(doc, {"lower": lower, "upper_esq": upper})


class CliMix:
    """One CLI process per operation; interpreter start and imports dominate."""

    name = "cli-mix"
    SUBCOMMANDS = ("validate", "bound", "plan", "simulate-swap", "sweep")
    PLAN_EPSILON = 1e-3
    COUNT_EPSILON = 1e-4
    SWEEP_GRID = "0.05:0.95:0.05"
    SWEEP_POINTS = [0.05 + i * 0.05 for i in range(19)]

    def __init__(self, seed: int):
        self.seed = seed
        golden = _load_golden() if seed == GOLDEN_SEED else {}
        self.golden = golden.get(self.name, {})
        self.items: dict[str, list[dict]] = {}
        self.first_stdout: dict[tuple[str, int], bytes] = {}
        self.tracer: Tracer | None = None
        self.env = child_env()
        self.begin()

    def begin(self) -> None:
        """Start a measured phase: forget what the warm-up or an earlier phase gathered."""
        self.max_rss_kb = 0
        self.proc_s: dict[str, list[float]] = {s: [] for s in self.SUBCOMMANDS}
        self.stats: list[dict] = []
        self.sweep_points: list[int] = []

    # set-up: every input file is written before the first timed process
    def setup(self, workdir: Path) -> None:
        import jsonschema

        qn = importlib.import_module("qnetcap")
        gens = importlib.import_module("qnetcap.generators")
        self.workdir = workdir
        self.validators = {
            name: jsonschema.Draft7Validator(json.loads((SCHEMAS / f"{name}.schema.json").read_text()))
            for name in ("sandwich_report", "protocol_plan", "swap_report")
        }
        rng = random.Random(f"{self.name}/{self.seed}")

        def write(name: str, text: str) -> str:
            path = workdir / name
            path.write_text(text)
            return str(path)

        validate = [{"path": str(p), "doc": json.loads(p.read_text()), "exit": 0}
                    for p in sorted((ROOT / "networks").glob("*.json"))]
        for i in range(5):
            if i < 3:
                text = qn.serialize_network(gens.random_lossy_network(rng, max_nodes=12, max_edges=30))
            else:
                text = qn.serialize_network(gens.random_count_network(rng))
            validate.append({"path": write(f"valid{i}.json", text), "doc": json.loads(text), "exit": 0})
        for i in range(2):
            base = qn.serialize_network(gens.random_lossy_network(rng, max_nodes=12, max_edges=30))
            validate.append({"path": write(f"malformed{i}.json", inputs.malformed_text(rng, base)),
                             "doc": None, "exit": 1})
        rng.shuffle(validate)
        for v in validate:
            v["args"] = ["validate", v["path"]]

        bound = []
        for i in range(8):
            kind = i % 4
            if kind in (0, 2):
                text = qn.serialize_network(gens.random_lossy_network(rng, max_nodes=12, max_edges=30))
            else:
                text = inputs.lossy_grid_text(rng, 12, "rate" if kind == 1 else "count",
                                              inputs.independent(rng))
            eps = self.COUNT_EPSILON if kind == 3 else 0.0
            path = write(f"bound{i}.json", text)
            bound.append({"args": ["bound", path, "--epsilon", repr(eps)],
                          "doc": json.loads(text), "eps": eps, "exit": 0})

        plan = []
        for i in range(8):
            if i % 2 == 0:
                text = inputs.count_grid_text(rng, 6, 10, inputs.independent(rng))
            else:
                text = qn.serialize_network(gens.random_count_network(rng))
            path = write(f"plan{i}.json", text)
            dot = str(workdir / f"plan{i}.dot")
            plan.append({"args": ["plan", path, "--epsilon", repr(self.PLAN_EPSILON), "--dot", dot],
                         "doc": json.loads(text), "dot": dot, "exit": 0})

        swap = []
        for links in range(2, 7):
            chain = inputs.werner_chain(rng, links)
            swap.append({"args": ["simulate-swap", "--chain", ",".join(repr(p) for p in chain)],
                         "chain": chain, "exit": 0})

        # the sweeps set p90, so they get many distinct, stratified grids
        sweep = []
        for i in range(3 * inputs.STRATA):
            block, position = divmod(i, inputs.STRATA)
            draw = inputs.Stratified(rng, f"{self.name}/{self.seed}/sweep/{block}", position)
            path = write(f"sweep{i}.json", inputs.lossy_grid_text(rng, 20, "freq", draw,
                                                                   fixed_ends=True))
            sweep.append({"args": ["sweep", path, "--param", "eta", "--edge", "e0",
                                   "--grid", self.SWEEP_GRID], "exit": 0})

        self.items = {"validate": validate, "bound": bound, "plan": plan,
                      "simulate-swap": swap, "sweep": sweep}

    def item(self, k: int) -> tuple[str, int]:
        sub = self.SUBCOMMANDS[k % len(self.SUBCOMMANDS)]
        return sub, (k // len(self.SUBCOMMANDS)) % len(self.items[sub])

    def run(self, key: tuple[str, int]):
        sub, idx = key
        spec = self.items[sub][idx]
        tag = f"{sub}{idx}"
        if self.tracer is None:
            argv = [sys.executable, "-m", "qnetcap.cli", *spec["args"]]
            spans = None
        else:
            spans = self.workdir / f"{tag}.spans"
            argv = [sys.executable, str(HERE / "child.py"), str(spans), *spec["args"]]
        out_path, err_path = self.workdir / f"{tag}.out", self.workdir / f"{tag}.err"
        t0 = time.perf_counter()
        code, rss_kb = spawn(argv, out_path, err_path, self.env)
        elapsed = time.perf_counter() - t0
        if self.tracer is None:
            self.max_rss_kb = max(self.max_rss_kb, rss_kb)
            self.proc_s[sub].append(elapsed)
        else:
            self.tracer.merge(spans.read_bytes(), self.tracer.current_op)
        return code, out_path.read_bytes(), err_path.read_bytes()

    def check(self, k: int, key: tuple[str, int], result) -> None:
        sub, idx = key
        spec = self.items[sub][idx]
        code, out, err = result
        if code != spec["exit"]:
            raise gate.GateError(f"{sub} #{idx} exited {code}, expected {spec['exit']}: {err[-300:]!r}")
        first = self.first_stdout.setdefault(key, out)
        if out != first:
            raise gate.GateError(f"{sub} #{idx}: stdout differs from the first invocation")
        text = out.decode()
        if sub == "validate":
            if spec["exit"] == 0:
                gate.check_validate(spec["doc"], text)
            elif out or not err.startswith(b"error: "):
                raise gate.GateError(f"malformed input: stdout {out[:80]!r}, stderr {err[:80]!r}")
            return
        if sub == "sweep":
            self.sweep_points.append(gate.check_sweep(text, self.SWEEP_POINTS))
            return
        doc = gate.loads(text)
        schema = {"bound": "sandwich_report", "plan": "protocol_plan",
                  "simulate-swap": "swap_report"}[sub]
        errors = sorted(self.validators[schema].iter_errors(doc), key=str)
        if errors:
            raise gate.GateError(f"{sub} #{idx}: schema: {errors[0].message}")
        if sub == "bound":
            gate.check_bound(spec["doc"], doc, spec["eps"])
            golden = self.golden.get("bound", [])
            if idx < len(golden):
                gate.check_golden(doc, {"lower": golden[idx][0], "upper_esq": golden[idx][1]})
        elif sub == "plan":
            self.stats.append(gate.check_plan(spec["doc"], doc, self.PLAN_EPSILON))
            golden = self.golden.get("plan", [])
            if idx < len(golden) and doc["m"] != golden[idx]:
                raise gate.GateError(f"plan #{idx}: m={doc['m']} differs from golden {golden[idx]}")
            if not Path(spec["dot"]).read_text().startswith("digraph qnet {"):
                raise gate.GateError(f"plan #{idx}: DOT file")
        else:
            gate.check_swap(doc, spec["chain"])

    def peak_rss_mb(self) -> float:
        return self.max_rss_kb / 1024.0


WORKLOADS = {w.name: w for w in (PlanCountGrid, BoundGrid, CliMix)}


# --- processes -------------------------------------------------------------------

def spawn(argv: list[str], out_path: Path, err_path: Path, env: dict) -> tuple[int, int]:
    """Run one child to completion; returns (exit code, its own peak RSS in KiB)."""
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss


def median_child_ms(argv: list[str], workdir: Path, env: dict, reps: int = 5) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        code, _ = spawn(argv, workdir / "probe.out", workdir / "probe.err", env)
        times.append((time.perf_counter() - t0) * 1e3)
        if code != 0:
            raise RuntimeError(f"probe {argv[1:]} exited {code}")
    return statistics.median(times)


# --- the measured loop -----------------------------------------------------------

# The machine in README.md runs its CPU up to twice as slow for seconds to
# minutes at a time, and CPU time slows with wall time. Each timing is
# therefore scaled by a calibration timed next to it: breadth-first searches
# over a fixed grid, pure Python with no qnetcap code, whose dict, set and
# string work slows the way qnetcap's does. CALIBRATION_S is its fastest
# time on that machine, so a scaled time is what the operation takes there
# at full speed.
CALIBRATION_S = 1.85e-3
CALIBRATION_SEARCHES = 12
CALIBRATION_SIDE = 24
CALIBRATION_GRID = {
    f"n{r}_{c}": [f"n{r2}_{c2}" for r2, c2 in ((r + 1, c), (r - 1, c), (r, c + 1), (r, c - 1))
                  if 0 <= r2 < CALIBRATION_SIDE and 0 <= c2 < CALIBRATION_SIDE]
    for r in range(CALIBRATION_SIDE) for c in range(CALIBRATION_SIDE)
}


def calibration_s() -> float:
    """Wall time of the calibration searches, now."""
    t0 = time.perf_counter()
    for _ in range(CALIBRATION_SEARCHES):
        seen = {"n0_0"}
        parent = {}
        queue = deque(["n0_0"])
        while queue:
            u = queue.popleft()
            for v in CALIBRATION_GRID[u]:
                if v not in seen:
                    seen.add(v)
                    parent[v] = u
                    queue.append(v)
    return time.perf_counter() - t0


def full_speed(seconds: float, calibrations: list[float]) -> float:
    """A time measured next to these calibrations, scaled to full speed."""
    return seconds * CALIBRATION_S / statistics.fmean(calibrations)


class Loop:
    """Closed-loop runner: times each operation, gates it, counts failures."""

    def __init__(self, workload, tracer: Tracer | None = None, scaled: bool = False):
        self.w = workload
        self.tracer = tracer
        self.scaled = scaled
        self.samples: list[float] = []  # one time per operation, at full speed if scaled
        self.measured: list[float] = []  # the same times as measured
        self.attempted = 0
        self.failed = 0

    def one(self, k: int) -> float:
        """Run, time and gate operation k; returns its wall time in seconds."""
        w, tracer = self.w, self.tracer
        item = w.item(k)
        self.attempted += 1
        if tracer is not None:
            tracer.current_op, tracer.current_phase = k, PHASE_OP
        t0 = time.perf_counter()
        try:
            result = w.run(item)
        except Exception:  # a failed operation is counted; the run goes on
            elapsed = time.perf_counter() - t0
            self._fail(k)
            return elapsed
        elapsed = time.perf_counter() - t0
        if tracer is not None:
            tracer.current_phase = PHASE_GATE
        try:
            w.check(k, item, result)
        except Exception:
            self._fail(k)
        return elapsed

    def _fail(self, k: int) -> None:
        self.failed += 1
        if self.failed <= 3:
            print(f"operation {k} failed:", file=sys.stderr)
            traceback.print_exc()

    def for_seconds(self, seconds: float) -> None:
        """Operations 0, 1, ... once each until seconds have passed.

        If scaled, each operation sits between two calibrations, and its
        sample is its time scaled to full speed by their mean.
        """
        deadline = time.perf_counter() + seconds
        while not self.samples or time.perf_counter() < deadline:
            k = len(self.samples)
            if not self.scaled:
                self.samples.append(self.one(k))
                continue
            before = calibration_s()
            elapsed = self.one(k)
            self.measured.append(elapsed)
            self.samples.append(full_speed(elapsed, [before, calibration_s()]))


def setup_workload(name: str, seed: int, workdir: Path):
    """Input set-up, import qnetcap and one warm-up operation.

    Returns the workload and the set-up's seconds, scaled to full speed by
    five calibrations right after it.
    """
    t0 = time.perf_counter()
    w = WORKLOADS[name](seed)
    w.setup(workdir)
    warm = Loop(w)
    warm.one(0)
    if warm.failed:
        raise RuntimeError("warm-up operation failed")
    elapsed = time.perf_counter() - t0
    w.begin()
    return w, full_speed(elapsed, [calibration_s() for _ in range(5)])
