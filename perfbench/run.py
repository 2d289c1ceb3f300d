"""qnetcap benchmark: three workloads, timed end to end or traced per layer.

Run from the repository root:

    python3 perfbench/run.py --workload plan-count-grid --seed 1601 --seconds 20 --trace 0

Workloads (README.md in this directory says why each exists):

  plan-count-grid  in process: parse_network, plan(net, 1e-3), plan JSON
  bound-grid       in process: parse_network, sandwich_report, report JSON
  cli-mix          one `python -m qnetcap.cli` process at a time, round-robin
                   over validate, bound, plan --dot, simulate-swap, sweep

One client runs a closed loop in one process: the next operation starts
when the previous one has finished and passed the correctness gate, which
runs outside the timed region. Inputs come from --seed alone; the program
receives only their JSON text (or files holding it).

--trace 0 prints the end-to-end metrics, with every time scaled to the
machine's full speed by a calibration loop timed next to it (see
workloads.py). --trace 1 runs the same operations untraced for half the
time and traced for the other half, and prints the per-layer metrics plus
the tracing overhead. The last line of stdout is one JSON object: correct,
attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import shutil
import statistics
import sys
from pathlib import Path

from workloads import ROOT, SRC, WORKLOADS, Loop, setup_workload, spawn

DEFAULT_SEED = 1601
SETUP_PROBES = 8  # fresh processes that repeat the set-up, besides this one

END_TO_END_UNITS = {
    "ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms",
    "peak_rss_mb": "MB", "setup_s": "s",
}


def setup_probes(args, workdir: Path) -> list[float]:
    """Repeat the set-up in fresh processes, which pay the imports again."""
    times = []
    for _ in range(SETUP_PROBES):
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
                "--seed", str(args.seed), "--setup-only"]
        out, err = workdir / "setup.out", workdir / "setup.err"
        code, _ = spawn(argv, out, err, dict(os.environ))
        if code != 0:
            raise RuntimeError(f"set-up probe exited {code}: {err.read_text()[-500:]}")
        times.append(float(out.read_text().split()[-1]))
    return times


def p90(samples: list[float]) -> float:
    return statistics.quantiles(samples, n=10)[8]


def ops_per_s(samples: list[float]) -> float:
    """Operations per busy second."""
    return len(samples) / sum(samples)


def end_to_end(w, loop: Loop, setup_times: list[float]) -> dict:
    s = loop.samples
    values = {
        "ops_per_s": ops_per_s(s),
        "op_p50_ms": statistics.median(s) * 1e3,
        "op_p90_ms": p90(s) * 1e3,
        "peak_rss_mb": w.peak_rss_mb(),
        "setup_s": statistics.median(setup_times),
    }
    beyond = sum(1 for x in s if x > p90(s))
    print(f"{w.name}: {len(s)} operations, {beyond} beyond p90; as measured, "
          f"p50 {statistics.median(loop.measured) * 1e3:.1f} ms and p90 "
          f"{p90(loop.measured) * 1e3:.1f} ms; set-up samples {[round(t, 4) for t in setup_times]}")
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def _import_qnetcap_from_checkout() -> None:
    sys.path.insert(0, str(SRC))
    spec = importlib.util.find_spec("qnetcap")
    if spec is None or not spec.origin or Path(spec.origin).resolve().parent != SRC / "qnetcap":
        raise SystemExit(f"qnetcap source tree not found under {SRC}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up, print its seconds and exit (set-up probe)")
    args = parser.parse_args(argv)

    _import_qnetcap_from_checkout()
    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        w, setup_s = setup_workload(args.workload, args.seed, workdir)
        if args.setup_only:
            print(setup_s)
            return 0
        if args.trace == 0:
            setup_times = [setup_s] + setup_probes(args, workdir)
            loop = Loop(w, scaled=True)
            loop.for_seconds(args.seconds)
            metrics = end_to_end(w, loop, setup_times)
            attempted, failed = loop.attempted, loop.failed
        else:
            import layers

            metrics, attempted, failed = layers.traced_run(w, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
