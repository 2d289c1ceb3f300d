"""In-process fuzz of ``cli.main`` over every subcommand.

Each run draws a subcommand, an input file (a sample network, a missing
file or a file that is not JSON) and flag values from one fixed pool:
valid, negative, NaN, infinite, empty, non-numeric and 400-digit values.
Whatever it draws, the CLI must exit 0, 1 or 2 (argparse's SystemExit
counted), print nothing to stdout on a non-zero exit, never print a
Python traceback, and emit JSON that meets its schema.
"""

import contextlib
import io
import json
import math

import jsonschema
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from qnetcap.cli import build_parser, main
from qnetcap.sweep import SWEEP_FIELDS

from conftest import DATA_DIR, NETWORKS_DIR, load_schema

HUGE = "1" + "0" * 399  # 400 digits: past the float range as a float, valid as an int
VALID = ("0", "0.5", "0.9", "1", "2", "1e-3")
NUMBERS = VALID + ("-1", "-0", "nan", "inf", "-inf", "", "abc", HUGE)
NETWORKS = tuple(sorted(str(p) for p in NETWORKS_DIR.glob("*.json")))
EDGE_IDS = ("e1", "ab", "a-c1", "nope", "")
SCHEMAS = {
    "bound": load_schema("sandwich_report.schema.json"),
    "plan": load_schema("protocol_plan.schema.json"),
    "simulate-swap": load_schema("swap_report.schema.json"),
}

numbers = st.one_of(st.sampled_from(VALID), st.sampled_from(NUMBERS))  # valid half the time
number_lists = st.lists(numbers, max_size=4).map(",".join)


def flag(name, values):
    """[] or the flag with a drawn value, as two arguments or as name=value."""
    return st.one_of(
        st.just([]),
        st.tuples(values, st.booleans()).map(
            lambda vb: [f"{name}={vb[0]}"] if vb[1] else [name, vb[0]]),
    )


def _small_grid(grid: str) -> bool:
    """False for a finite start:stop:step grid of more than 50 points."""
    try:
        start, stop, step = (float(p) for p in grid.split(":"))
        span = abs((stop - start) / step)
    except (ValueError, ZeroDivisionError):
        return True
    return not (math.isfinite(span) and span > 50)


grids = st.lists(numbers, min_size=2, max_size=4).map(":".join).filter(_small_grid)


@st.composite
def invocations(draw, files):
    """argv for one CLI run; files maps the drawn file kinds to their paths."""
    network = draw(st.sampled_from(NETWORKS + (files["missing"], files["not-json"])))
    command = draw(st.sampled_from(("validate", "bound", "plan", "simulate-swap", "sweep")))
    argv = [command]
    if command != "simulate-swap":
        argv.append(network)
    if command == "bound":
        argv += draw(flag("--regime", st.sampled_from(("per-protocol", "per-use", "per-time",
                                                       "bogus"))))
        argv += draw(flag("--epsilon", numbers))
        argv += draw(flag("--weights", st.sampled_from(("both", "qcap", "esq", "bogus"))))
    elif command == "plan":
        argv += draw(flag("--epsilon", numbers))
        argv += draw(flag("--rate-model", st.one_of(
            st.sampled_from(("asymptotic", "bogus", "fraction:")),
            numbers.map("fraction:{}".format),
            st.sampled_from(("table", "not-object", "not-json", "missing")).map(
                lambda k: f"table:{files[k]}"),
        )))
        argv += draw(flag("--dot", st.just(files["dot"])))
        argv += draw(st.sampled_from(([], ["--count-all-edges"])))
    elif command == "simulate-swap":
        argv += draw(flag("--chain", number_lists))
        argv += draw(flag("--from-plan", st.sampled_from(
            (files["plan"], network, files["missing"], files["not-json"]))))
        argv += draw(flag("--path-index", numbers))
        argv += draw(flag("--pair-p", numbers))
        argv += draw(flag("--eps", number_lists))
    elif command == "sweep":
        if draw(st.integers(0, 9)):  # --param is required: left out one time in ten
            argv += ["--param", draw(st.sampled_from(("eta", "epsilon", "budget-scale", "bogus")))]
        argv += draw(flag("--edge", st.sampled_from(EDGE_IDS)))
        argv += draw(flag("--grid", grids))
        argv += draw(flag("--values", number_lists))
        argv += draw(flag("--fields", st.lists(
            st.sampled_from(SWEEP_FIELDS + ("bogus", "")), max_size=3).map(",".join)))
        argv += draw(flag("--epsilon", numbers))
        argv += draw(flag("--out", st.just(files["out"])))
    return argv


def fuzz_files(tmp_path) -> dict:
    """The files an invocation may name, written once into tmp_path."""
    files = {name: tmp_path / name for name in
             ("missing", "not-json", "table", "not-object", "dot", "out")}
    files["not-json"].write_text("{ not json")
    files["table"].write_text(json.dumps({"ac": 1.0, "cb": 0.5, "ab": 2}))
    files["not-object"].write_text("[1, 2]")
    files = {name: str(path) for name, path in files.items()}
    files["plan"] = str(DATA_DIR / "plan_triangle_counts.json")
    return files


def run_main(argv):
    """(exit code, stdout, stderr) of one in-process run of the CLI."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exit_:  # argparse: usage errors
            code = exit_.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=600, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(data=st.data())
def test_every_cli_run_exits_cleanly_and_emits_valid_output(tmp_path, data):
    files = fuzz_files(tmp_path)
    argv = data.draw(invocations(files), label="argv")
    code, out, err = run_main(argv)
    event(f"{argv[0]}: exit {code}")
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    if code != 0:
        assert out == "", (argv, out)
        return
    args = build_parser().parse_args(argv)
    if args.command in SCHEMAS and getattr(args, "weights", "both") == "both":
        jsonschema.validate(json.loads(out), SCHEMAS[args.command])
