import gc
import json
import math
import random
import subprocess
import sys
from functools import partial

import jsonschema
import pytest

from qnetcap import (
    Count, Frequency, PerEdgeTable, Rate, Regime, parse_network, serialize_network,
    werner_chain_report,
)
from qnetcap.cli import MAX_SWEEP_POINTS, main

from conftest import DATA_DIR, NETWORKS_DIR, load_schema, src_env

DIAMOND = str(NETWORKS_DIR / "diamond.json")
TRIANGLE = str(NETWORKS_DIR / "triangle_counts.json")
SINGLE = str(NETWORKS_DIR / "single_edge.json")
FIG2 = str(NETWORKS_DIR / "fig2_analog.json")
SINGLE_TEXT = (NETWORKS_DIR / "single_edge.json").read_bytes()


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


# --- validate ----------------------------------------------------------------

def test_validate_ok(capsys):
    code, out, _ = run(capsys, "validate", DIAMOND)
    assert code == 0
    assert "ok" in out


def test_validate_rejects_eta_one(capsys, tmp_path):
    doc = (NETWORKS_DIR / "single_edge.json").read_text().replace("0.5", "1.0")
    bad = tmp_path / "bad.json"
    bad.write_text(doc)
    code, _, err = run(capsys, "validate", str(bad))
    assert code == 1
    assert "ab" in err and "eta must be" in err


@pytest.mark.parametrize(
    "where, value, named",
    [("tail", ["A"], "edge 'ab': tail"), ("head", {"B": 1}, "edge 'ab': head"),
     ("tail", "", "edge 'ab': tail"), ("alice", ["A"], "alice"), ("bob", 7, "bob")],
)
def test_validate_rejects_non_string_node_references(tmp_path, where, value, named):
    doc = json.loads((NETWORKS_DIR / "single_edge.json").read_text())
    (doc["edges"][0] if where in ("tail", "head") else doc)[where] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    err = cli_in_child_fails("validate", bad)
    assert f"error: {named} must be a non-empty string node label" in err


def cli_in_child(*argv) -> subprocess.CompletedProcess:
    """Run the CLI as a process of its own, through the exit path the console script takes.

    Its stdout is block-buffered, as a pipe's is by default, so output that
    the exit fails to flush is missing.
    """
    env = {k: v for k, v in src_env().items() if k != "PYTHONUNBUFFERED"}
    return subprocess.run([sys.executable, "-m", "qnetcap.cli", *map(str, argv)],
                          env=env, capture_output=True)


def cli_in_child_fails(*argv) -> str:
    """Run the CLI in a fresh interpreter; require exit 1, no stdout, no traceback."""
    result = cli_in_child(*argv)
    assert result.returncode == 1
    assert result.stdout == b""
    err = result.stderr.decode()
    assert "Traceback" not in err
    return err


@pytest.mark.parametrize(
    "content, message",
    [
        (SINGLE_TEXT.replace(b'{"freq": 1.0}', b'{"count": 1' + b"0" * 400 + b"}"),
         "error: edge 'ab': count must be finite and >= 0, got an integer of 1329 bits"),
        (SINGLE_TEXT.replace(b'"A"', b'"\xff"', 1),
         "error: network file {path!r} is not UTF-8 text: invalid start byte"),
        (b"[" * 10**5, "error: document nests too deeply to parse"),
    ],
    ids=["huge-integer-budget", "not-utf8", "deep-nesting"],
)
def test_validate_rejects_unreadable_documents(tmp_path, content, message):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    assert message.format(path=str(path)) in cli_in_child_fails("validate", path)


JSON_FILE_FLAGS = {
    "rate-table": ("plan", TRIANGLE, "--rate-model", "table:{path}"),
    "from-plan": ("simulate-swap", "--from-plan", "{path}"),
}


@pytest.mark.parametrize("flag", sorted(JSON_FILE_FLAGS))
@pytest.mark.parametrize(
    "content, message",
    [
        (b"[" * 10**5, "document nests too deeply to parse in"),
        (b'{"ab": "\xff"}', "is not UTF-8 text: invalid start byte"),
        (b'{"ab": 1' + b"0" * 5000 + b"}", "document holds an integer too long to parse in"),
        (b'{"ab": ', "syntax error at line 1, column 8"),
    ],
    ids=["deep-nesting", "not-utf8", "huge-integer", "syntax-error"],
)
def test_json_file_flags_reject_unreadable_documents(tmp_path, flag, content, message):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    err = cli_in_child_fails(*(a.format(path=path) for a in JSON_FILE_FLAGS[flag]))
    assert message in err
    assert repr(str(path)) in err


@pytest.mark.parametrize("freq", ["1e-13", "4.1e-306", "5e-324"])
def test_bound_does_not_cut_an_arc_below_the_solver_tolerance(capsys, tmp_path, freq):
    path = tmp_path / "tiny.json"
    path.write_text(
        '{"nodes": ["A", "B", "C"], "alice": "A", "bob": "B", "edges": [{"id": "ac", '
        '"tail": "A", "head": "C", "channel": {"type": "lossy", "eta": 0.5}, '
        f'"usage": {{"freq": {freq}}}}}]}}'
    )
    code, out, err = run(capsys, "bound", str(path))
    assert code == 0, err
    assert '"lower": 0.0,' in out and '"upper_esq": 0.0,' in out
    assert json.loads(out)["lower_witness"] == {"crossing": [], "v_a": ["A", "C"], "value": 0.0}


def test_validate_missing_file_is_io_error(capsys):
    code, _, err = run(capsys, "validate", "/nonexistent/net.json")
    assert code == 2
    assert "io error" in err


# --- bound -------------------------------------------------------------------

def test_bound_diamond(capsys):
    doc = run_json(capsys, "bound", DIAMOND, "--regime", "per-use")
    assert doc["lower"] == pytest.approx(3.321928, abs=1e-4)
    assert doc["upper_esq"] == pytest.approx(4.754888, abs=1e-4)
    assert doc["vacuous"] is False
    assert doc["lower_witness"]["v_a"] == ["A", "C1"]
    jsonschema.validate(doc, load_schema("sandwich_report.schema.json"))


def test_bound_single_edge(capsys):
    doc = run_json(capsys, "bound", SINGLE)
    assert doc["lower"] == pytest.approx(1.0, abs=1e-9)
    assert doc["upper_esq"] == pytest.approx(1.584963, abs=1e-5)


def test_bound_vacuous_epsilon(capsys):
    doc = run_json(capsys, "bound", TRIANGLE, "--regime", "per-protocol", "--epsilon", "0.01")
    assert doc["vacuous"] is True
    assert doc["upper_eps_corrected"] is None
    jsonschema.validate(doc, load_schema("sandwich_report.schema.json"))


def test_bound_regime_mismatch(capsys):
    code, _, err = run(capsys, "bound", DIAMOND, "--regime", "per-protocol")
    assert code == 1
    assert "regime" in err


def test_bound_weight_filters(capsys):
    qcap_only = run_json(capsys, "bound", DIAMOND, "--weights", "qcap")
    assert "upper_esq" not in qcap_only and "lower" in qcap_only
    esq_only = run_json(capsys, "bound", DIAMOND, "--weights", "esq")
    assert "lower" not in esq_only and "upper_esq" in esq_only
    # crossing compares both sides, so one side alone cannot say it
    assert "crossed" not in qcap_only and "crossed" not in esq_only
    schema = load_schema("sandwich_report.schema.json")
    for doc in (qcap_only, esq_only):
        jsonschema.validate(doc, schema)


# --- plan --------------------------------------------------------------------

def test_plan_triangle(capsys):
    doc = run_json(capsys, "plan", TRIANGLE, "--epsilon", "0.01")
    assert doc["m"] == 3
    assert doc["error_budget"] == pytest.approx(0.03)
    assert sorted(tuple(s) for s in doc["swap_schedules"]) == [(), ("C",), ("C",)]
    jsonschema.validate(doc, load_schema("protocol_plan.schema.json"))


def test_plan_writes_dot(capsys, tmp_path):
    dot_path = tmp_path / "plan.dot"
    code, out, _ = run(capsys, "plan", TRIANGLE, "--dot", str(dot_path))
    assert code == 0
    dot = dot_path.read_text()
    assert "style=solid" in dot
    assert "2/3 used" in dot


def test_plan_dot_to_an_unwritable_path_prints_nothing_and_exits_two(capsys, tmp_path):
    dot_path = tmp_path / "missing" / "x.dot"
    code, out, err = run(capsys, "plan", TRIANGLE, "--dot", str(dot_path))
    assert (code, out) == (2, "")
    assert err == f"io error: [Errno 2] No such file or directory: '{dot_path}'\n"


CROSSED_NET = {"nodes": ["A", "B"], "alice": "A", "bob": "B", "edges": [
    {"id": "e", "tail": "A", "head": "B", "usage": {"freq": 1.0},
     "channel": {"type": "custom", "q_cap": 2.0, "esq_upper": 1.0}},
]}
CROSSED_WARNING = ("warning: edge 'e': q_cap=2.0 exceeds esq_upper=1.0; "
                   "the sandwich guarantee does not apply\n")


@pytest.mark.parametrize("command", ["validate", "bound"])
def test_sandwich_warning_is_one_plain_line(capsys, tmp_path, command):
    path = tmp_path / "net.json"
    path.write_text(json.dumps(CROSSED_NET))
    code, out, err = run(capsys, command, str(path))
    assert code == 0 and out
    assert err == CROSSED_WARNING


def test_bound_says_when_the_sandwich_crosses(capsys, tmp_path):
    path = tmp_path / "net.json"
    path.write_text(json.dumps(CROSSED_NET))
    code, out, err = run(capsys, "bound", str(path))
    assert (code, err) == (0, CROSSED_WARNING)
    doc = json.loads(out)
    assert (doc["lower"], doc["upper_esq"], doc["crossed"]) == (2.0, 1.0, True)
    assert doc["vacuous"] is False
    jsonschema.validate(doc, load_schema("sandwich_report.schema.json"))


def test_plan_disconnected(capsys, tmp_path):
    doc = {
        "nodes": ["A", "C", "B"],
        "alice": "A",
        "bob": "B",
        "edges": [
            {"id": "ac", "tail": "A", "head": "C",
             "channel": {"type": "lossy", "eta": 0.5}, "usage": {"count": 2}},
        ],
    }
    path = tmp_path / "disc.json"
    path.write_text(json.dumps(doc))
    result = run_json(capsys, "plan", str(path))
    assert result["m"] == 0
    assert result["paths"] == []


def test_plan_rate_model_fraction(capsys):
    doc = run_json(capsys, "plan", TRIANGLE, "--rate-model", "fraction:0.5")
    # pair counts floor(count * 0.5): 1, 1, 0 -> one A-C-B path
    assert doc["m"] == 1


def test_plan_over_the_path_limit_exits_one_but_cuts_still_run(capsys, tmp_path):
    doc = json.loads((NETWORKS_DIR / "single_edge.json").read_text())
    doc["edges"][0]["usage"] = {"count": 1e300}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "plan", str(path))
    assert code == 1 and out == ""
    assert "edge-disjoint paths exceeds the limit of 1000000 paths" in err
    assert run_json(capsys, "bound", str(path))["lower"] == 1e300
    m = str(int(1e300))
    for sweep in (("--param", "eta", "--edge", "ab", "--values", "0.5"),
                  ("--param", "epsilon", "--values", "0"),
                  ("--param", "budget-scale", "--values", "1")):
        code, out, err = run(capsys, "sweep", str(path), *sweep, "--fields", "m")
        assert code == 0, err
        assert out.splitlines()[1].endswith("," + m)


def test_plan_with_an_overflowing_rate_table_exits_one(capsys, tmp_path):
    doc = json.loads(SINGLE_TEXT)
    doc["edges"][0]["usage"] = {"count": 10}
    path, table = tmp_path / "net.json", tmp_path / "table.json"
    path.write_text(json.dumps(doc))
    table.write_text('{"ab": 1e308}')
    code, out, err = run(capsys, "plan", str(path), "--rate-model", f"table:{table}")
    assert code == 1 and out == ""
    assert "error: edge 'ab': 10 uses at 1e+308 pairs per use overflow a float" in err


@pytest.mark.parametrize("argv", [
    ("bound",),
    ("sweep", "--param", "eta", "--edge", "e2", "--values", "0.5"),
    ("sweep", "--param", "eta", "--edge", "e1", "--values", "0.5"),
    ("sweep", "--param", "epsilon", "--values", "0"),
    ("sweep", "--param", "budget-scale", "--values", "1"),
])
def test_a_cut_weight_past_the_float_range_exits_one_naming_the_arc(capsys, tmp_path, argv):
    doc = json.loads((NETWORKS_DIR / "diamond.json").read_text())
    doc["edges"][0]["usage"] = {"freq": 1e308}  # at eta 0.9: 1e308 * log2(10) is inf
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    command, *flags = argv
    code, out, err = run(capsys, command, str(path), *flags)
    assert code == 1 and out == ""
    assert err == "error: arc 'e1': capacity must be finite and >= 0, got inf\n"


def test_budget_scale_past_the_float_range_names_the_edge_and_the_scale(capsys, tmp_path):
    doc = json.loads((NETWORKS_DIR / "diamond.json").read_text())
    doc["edges"][0]["channel"]["eta"] = 0.1  # both cut weights of 1e308 uses stay finite
    doc["edges"][0]["usage"] = {"freq": 1e308}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "sweep", str(path), "--param", "budget-scale",
                         "--values", "1,10")
    assert code == 1 and out == ""
    assert err == "error: edge 'e1': freq 1e+308 scaled by 10 is past the float range\n"


@pytest.mark.parametrize("argv", [
    ("bound",),
    ("bound", "--weights", "qcap"),
    ("bound", "--weights", "esq"),
    ("sweep", "--param", "budget-scale", "--values", "0.5,1"),
    ("sweep", "--param", "epsilon", "--values", "0"),
])
@pytest.mark.parametrize("q_cap, weighting", [(1.0, "q_cap"), (0.5, "esq_upper")])
def test_a_minimum_cut_past_the_float_range_exits_one_naming_its_edges(
        capsys, tmp_path, argv, q_cap, weighting):
    # two parallel edges of 1.7e308 uses: each weight fits a float, their sum does not
    channel = {"type": "custom", "q_cap": q_cap, "esq_upper": 1.0}
    doc = {"nodes": ["A", "B"], "alice": "A", "bob": "B", "edges": [
        {"id": eid, "tail": "A", "head": "B", "channel": channel, "usage": {"freq": 1.7e308}}
        for eid in ("e0", "e1")]}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    command, *flags = argv
    code, out, err = run(capsys, command, str(path), *flags)
    assert code == 1 and out == ""
    assert err == (f"error: the {weighting}-weighted minimum cut sums past the float range: "
                   "it crosses ['e0', 'e1']\n")


def _lossy(eid, usage):
    return {"id": eid, "tail": "A", "head": "B", "channel": {"type": "lossy", "eta": 0.5},
            "usage": usage}


# eta-sweep networks whose every capacity fits a float but whose minimum cut sums past it
ETA_OVERFLOWS = {
    # two custom q_cap weights of 1e308 overflow the q_cap cut; the esq_upper cut is 3.58
    "q_cap": ([_lossy("e0", {"freq": 1.0})] + [
        {"id": eid, "tail": "A", "head": "B", "usage": {"freq": 1.0},
         "channel": {"type": "custom", "q_cap": 1e308, "esq_upper": 1.0}}
        for eid in ("e1", "e2")], ["e0", "e1", "e2"]),
    # both cuts overflow (q_cap weights of 1e308, esq_upper ones of 1.58e308): q_cap is named
    "both": ([_lossy(eid, {"freq": 1e308}) for eid in ("e0", "e1")], ["e0", "e1"]),
}


@pytest.mark.parametrize("fields", ["lower", "upper_esq,ratio"])
@pytest.mark.parametrize("name", sorted(ETA_OVERFLOWS))
def test_an_eta_sweep_whose_minimum_cut_is_past_the_float_range_fails_as_bound_does(
        capsys, tmp_path, name, fields):
    edges, crossing = ETA_OVERFLOWS[name]
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"nodes": ["A", "B"], "alice": "A", "bob": "B", "edges": edges}))
    code, out, bound_err = run(capsys, "bound", str(path))
    assert code == 1 and out == ""
    assert bound_err.endswith("error: the q_cap-weighted minimum cut sums past the float range: "
                              f"it crosses {crossing}\n")
    code, out, err = run(capsys, "sweep", str(path), "--param", "eta", "--edge", "e0",
                         "--values", "0.5", "--fields", fields)
    assert (code, out, err) == (1, "", bound_err)


def test_plan_with_a_pair_count_past_the_float_range_exits_one(capsys, tmp_path):
    doc = json.loads(SINGLE_TEXT)
    doc["edges"][0]["channel"]["eta"] = 0.875  # 3 pairs per use
    doc["edges"][0]["usage"] = {"count": 1e308}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "plan", str(path))
    assert code == 1 and out == ""
    assert err == f"error: edge 'ab': {int(1e308)} uses at 3.0 pairs per use overflow a float\n"


def test_plan_rejects_a_rate_table_integer_past_the_float_range(capsys, tmp_path):
    table = tmp_path / "table.json"
    table.write_text('{"ac": 1' + "0" * 400 + ', "cb": 1, "ab": 1}')
    code, out, err = run(capsys, "plan", TRIANGLE, "--rate-model", f"table:{table}")
    assert code == 1 and out == ""
    assert err == ("error: rate for edge 'ac' must be finite and >= 0, "
                   "got an integer of 1329 bits\n")


def test_plan_rejects_frequency_budgets(capsys):
    code, _, err = run(capsys, "plan", DIAMOND)
    assert code == 1
    assert "Count" in err


# --- simulate-swap -----------------------------------------------------------

def test_simulate_swap_werner_chain(capsys):
    doc = run_json(capsys, "simulate-swap", "--chain", "0.9,0.9")
    assert doc["trace_distance"] == pytest.approx(0.285, abs=1e-9)
    assert doc["budget"] == pytest.approx(0.30, abs=1e-9)
    assert doc["final_fidelity"] == pytest.approx(0.8575, abs=1e-9)
    assert doc["pass"] is True
    jsonschema.validate(doc, load_schema("swap_report.schema.json"))


def test_simulate_swap_perfect_chain(capsys):
    doc = run_json(capsys, "simulate-swap", "--chain", "1.0,1.0,1.0")
    assert doc["trace_distance"] == pytest.approx(0.0, abs=1e-12)
    assert doc["pass"] is True


@pytest.mark.parametrize("links", [7, 1000])
def test_simulate_swap_long_chain(capsys, links):
    chain = [random.Random(links).uniform(0.9, 1.0) for _ in range(links)]
    doc = run_json(capsys, "simulate-swap", "--chain", ",".join(map(repr, chain)))
    jsonschema.validate(doc, load_schema("swap_report.schema.json"))
    assert doc["chain"] == chain
    assert doc["trace_distance"] == pytest.approx(1.5 * (1 - math.prod(chain)), rel=0, abs=1e-12)


def test_simulate_swap_explicit_budget(capsys):
    doc = run_json(capsys, "simulate-swap", "--chain", "0.9,0.9", "--eps", "0.2")
    assert doc["budget"] == pytest.approx(0.4)
    assert doc["pass"] is True


def test_simulate_swap_from_plan(capsys, tmp_path):
    code, out, _ = run(capsys, "plan", TRIANGLE)
    assert code == 0
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(out)
    doc = run_json(
        capsys, "simulate-swap", "--from-plan", str(plan_path),
        "--path-index", "1", "--pair-p", "0.9",
    )
    assert len(doc["chain"]) == 2  # A-C-B path has two hops
    assert doc["trace_distance"] == pytest.approx(0.285, abs=1e-9)
    code, _, err = run(
        capsys, "simulate-swap", "--from-plan", str(plan_path), "--path-index", "9"
    )
    assert code == 1 and "out of range" in err


@pytest.mark.parametrize(
    "doc, problem",
    [
        (json.loads((NETWORKS_DIR / "diamond.json").read_text()), "no 'paths' list"),
        ({"paths": [{"nodes": ["A", "B"]}]}, "path 0 has no 'bell_edges' list"),
    ],
    ids=["network-file", "path-without-bell-edges"],
)
def test_simulate_swap_from_plan_rejects_non_plan(capsys, tmp_path, doc, problem):
    path = tmp_path / "not_a_plan.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "simulate-swap", "--from-plan", str(path))
    assert code == 1
    assert out == ""
    assert "is not a plan" in err and problem in err


@pytest.mark.parametrize(
    "plan_path", [DATA_DIR / "plan_triangle_counts.json", DATA_DIR / "no_such_plan.json"],
    ids=["plan", "missing-file"],
)
def test_simulate_swap_rejects_a_chain_and_a_plan_together(plan_path):
    err = cli_in_child_fails("simulate-swap", "--chain", "0.9", "--from-plan", plan_path)
    assert err == "error: give either --chain or --from-plan, not both\n"


@pytest.mark.parametrize(
    "flags, named",
    [(("--path-index", "7"), "--path-index"), (("--pair-p", "0.5"), "--pair-p"),
     (("--pair-p", "0.5", "--path-index", "7"), "--path-index"),
     (("--path-index", "0"), "--path-index"), (("--pair-p", "1.0"), "--pair-p")],
    ids=["path-index", "pair-p", "both", "path-index-default-value", "pair-p-default-value"],
)
def test_simulate_swap_chain_rejects_plan_flags(flags, named):
    err = cli_in_child_fails("simulate-swap", "--chain", "0.9", *flags)
    assert err == f"error: {named} applies only to --from-plan, not to --chain\n"


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("simulate-swap", "--chain", "0.9,0.9", "--eps", "abc"), "--eps"),
        (("simulate-swap", "--chain", "0.9,0.9", "--eps", "0.1,"), "--eps"),
        (("plan", FIG2, "--rate-model", "fraction:abc"), "--rate-model"),
        (("plan", TRIANGLE, "--rate-model", "table:{bad_json}"), "--rate-model"),
        (("sweep", SINGLE, "--param", "eta", "--edge", "ab", "--values", "abc"), "--values"),
        (("sweep", SINGLE, "--param", "eta", "--edge", "ab", "--grid", "0.1:x:0.1"), "--grid"),
    ],
    ids=["eps-word", "eps-trailing-comma", "fraction-word", "table-not-json", "values-word",
         "grid-word"],
)
def test_bad_flag_value_names_the_flag(capsys, tmp_path, argv, flag):
    bad_json = tmp_path / "bad_json.json"
    bad_json.write_text("nope")
    code, out, err = run(capsys, *(a.format(bad_json=bad_json) for a in argv))
    assert code == 1
    assert out == ""
    assert f"bad {flag}" in err
    if "bad_json" in argv[-1]:
        assert "bad_json.json" in err  # the message names the file


@pytest.mark.parametrize(
    "argv, table, library",
    [
        (("plan", FIG2, "--rate-model", "table:{table}"), '{"a-c1": "abc"}', None),
        (("plan", TRIANGLE, "--rate-model", "table:{table}"),
         '{"ac": true, "cb": true, "ab": true}', None),
        (("plan", TRIANGLE, "--rate-model", "table:{table}"),
         '{"ac": 1, "cb": 1, "ab": -1}', None),
        (("plan", TRIANGLE, "--rate-model", "table:{table}"),
         '{"ac": 1, "cb": 1' + "0" * 400 + ', "ab": 1}', None),
        (("simulate-swap", "--chain", ","), None, partial(werner_chain_report, [])),
        (("simulate-swap", "--chain", ",", "--eps", "0.1,0.2"), None,
         partial(werner_chain_report, [], [0.1, 0.2])),
        (("simulate-swap", "--chain", "0.9,0.9", "--eps", "0.1,0.2,0.3"), None,
         partial(werner_chain_report, [0.9, 0.9], [0.1, 0.2, 0.3])),
    ],
    ids=["table-word", "table-booleans", "table-negative", "table-huge-int", "chain-empty",
         "chain-empty-two-eps", "eps-count"],
)
def test_the_cli_prints_the_library_message_for_a_rule_it_leaves_to_it(
        capsys, tmp_path, argv, table, library):
    # the CLI reads the file or the flag; the rule and its message are the library's
    path = tmp_path / "table.json"
    if table is not None:
        path.write_text(table)
        library = partial(PerEdgeTable, json.loads(table))
    with pytest.raises(ValueError) as err:
        library()
    assert run(capsys, *(a.format(table=path) for a in argv)) == (1, "", f"error: {err.value}\n")


# --- sweep -------------------------------------------------------------------

def test_sweep_eta_single_edge(capsys):
    code, out, _ = run(
        capsys, "sweep", SINGLE, "--param", "eta", "--edge", "ab",
        "--grid", "0.1:0.9:0.1", "--fields", "lower,upper_esq,ratio",
    )
    assert code == 0
    lines = out.strip().split("\r\n")
    assert lines[0] == "eta,lower,upper_esq,ratio"
    assert len(lines) == 10  # header + 9 grid points
    for row in lines[1:]:
        ratio = float(row.split(",")[3])
        assert ratio <= 2.0


def test_sweep_epsilon_crosses_vacuity(capsys):
    code, out, _ = run(
        capsys, "sweep", TRIANGLE, "--param", "epsilon",
        "--values", "0.001,0.003,0.004,0.01",
        "--fields", "upper_eps_corrected",
    )
    assert code == 0
    rows = out.strip().split("\r\n")[1:]
    cells = [r.split(",")[1] for r in rows]
    assert cells[0] != "vacuous" and cells[1] != "vacuous"
    assert cells[2] == "vacuous" and cells[3] == "vacuous"  # 0.004 > 1/256


def test_sweep_budget_scale(capsys):
    code, out, _ = run(
        capsys, "sweep", DIAMOND, "--param", "budget-scale",
        "--values", "1,2", "--fields", "lower",
    )
    assert code == 0
    rows = out.strip().split("\r\n")[1:]
    low1 = float(rows[0].split(",")[1])
    low2 = float(rows[1].split(",")[1])
    assert low2 == pytest.approx(2 * low1, rel=1e-9)


def test_sweep_m_field(capsys):
    code, out, _ = run(
        capsys, "sweep", TRIANGLE, "--param", "budget-scale",
        "--values", "1,2", "--fields", "m",
    )
    assert code == 0
    rows = out.strip().split("\r\n")[1:]
    assert [r.split(",")[1] for r in rows] == ["3", "6"]


def test_sweep_rejects_unknown_fields(capsys):
    code, _, err = run(
        capsys, "sweep", SINGLE, "--param", "epsilon", "--values", "0.001",
        "--fields", "lower,bogus",
    )
    assert code == 1
    assert "bogus" in err


def test_sweep_rejects_empty_grid(capsys):
    code, _, err = run(
        capsys, "sweep", SINGLE, "--param", "epsilon", "--grid", "0.1:0.0:0.1"
    )
    assert code == 1
    assert "empty" in err


@pytest.mark.parametrize(
    "grid, count",
    [(f"0:{MAX_SWEEP_POINTS}:1", f"asks for {MAX_SWEEP_POINTS + 1} points"),
     ("0:1e308:1e-300", "asks for inf points")],
)
def test_sweep_refuses_a_grid_past_the_point_limit(capsys, grid, count):
    code, out, err = run(capsys, "sweep", SINGLE, "--param", "epsilon", "--grid", grid)
    assert code == 1 and out == ""
    assert f"--grid '{grid}' {count}; a sweep takes at most {MAX_SWEEP_POINTS}" in err


def test_sweep_grid_running_down_past_the_float_range_is_empty(capsys):
    code, _, err = run(capsys, "sweep", SINGLE, "--param", "epsilon", "--grid", "1e308:-1e308:1")
    assert code == 1
    assert "empty" in err


def test_sweep_rejects_non_monotone_values(capsys):
    code, _, err = run(
        capsys, "sweep", SINGLE, "--param", "epsilon", "--values", "0.1,0.3,0.2"
    )
    assert code == 1
    assert "monotone" in err


def test_sweep_writes_csv_file(capsys, tmp_path):
    out_path = tmp_path / "scan.csv"
    code, out, _ = run(
        capsys, "sweep", SINGLE, "--param", "eta", "--edge", "ab",
        "--values", "0.25,0.75", "--out", str(out_path),
    )
    assert code == 0 and out == ""
    raw = out_path.read_bytes()
    assert raw.startswith(b"eta,lower,upper_esq,ratio\r\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        ((TRIANGLE, "--param", "epsilon", "--epsilon", "nan", "--values", "0"),
         "--epsilon applies only to --param eta or budget-scale, not to --param epsilon"),
        ((TRIANGLE, "--param", "epsilon", "--epsilon", "0", "--values", "0"),
         "--epsilon applies only to --param eta or budget-scale, not to --param epsilon"),
        ((TRIANGLE, "--param", "epsilon", "--edge", "ab", "--values", "0"),
         "--edge applies only to --param eta, not to --param epsilon"),
        ((DIAMOND, "--param", "budget-scale", "--edge", "e1", "--values", "1"),
         "--edge applies only to --param eta, not to --param budget-scale"),
    ],
    ids=["epsilon-nan", "epsilon-zero", "edge-epsilon", "edge-budget-scale"],
)
def test_sweep_rejects_flags_that_do_not_apply(capsys, argv, message):
    code, out, err = run(capsys, "sweep", *argv)
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_sweep_fields_help_lists_the_sweep_fields(capsys, monkeypatch):
    from qnetcap.sweep import SWEEP_FIELDS

    monkeypatch.setenv("COLUMNS", "200")  # one help line per flag
    with pytest.raises(SystemExit):
        main(["sweep", "--help"])
    assert f" comma list from {','.join(SWEEP_FIELDS)}\n" in capsys.readouterr().out


def test_sweep_field_m_on_an_edgeless_network_is_zero(capsys, tmp_path):
    path = tmp_path / "edgeless.json"
    path.write_text(json.dumps({"nodes": ["A", "B"], "alice": "A", "bob": "B", "edges": []}))
    code, out, err = run(capsys, "sweep", str(path), "--param", "budget-scale",
                         "--values", "1,2", "--fields", "m")
    assert (code, out, err) == (0, "budget-scale,m\r\n1,0\r\n2,0\r\n", "")


# --- whole-CLI contracts -------------------------------------------------------

def test_identical_invocations_are_byte_identical(capsys):
    outputs = []
    for _ in range(2):
        code, out, _ = run(capsys, "bound", DIAMOND, "--regime", "per-use")
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]
    sweeps = []
    for _ in range(2):
        code, out, _ = run(
            capsys, "sweep", SINGLE, "--param", "eta", "--edge", "ab",
            "--grid", "0.1:0.9:0.1",
        )
        assert code == 0
        sweeps.append(out)
    assert sweeps[0] == sweeps[1]


@pytest.mark.parametrize(
    "argv",
    [
        ("bound", TRIANGLE, "--epsilon", "{zero}"),
        ("plan", TRIANGLE, "--epsilon", "{zero}"),
        ("simulate-swap", "--chain", "0.9", "--eps", "{zero}"),
        ("simulate-swap", "--chain={zero},0.9"),
        ("simulate-swap", "--from-plan", str(DATA_DIR / "plan_triangle_counts.json"),
         "--path-index", "1", "--pair-p", "{zero}"),
        ("sweep", TRIANGLE, "--param", "epsilon", "--values={zero},0.5",
         "--fields", "lower,upper_eps_corrected,m"),
        ("sweep", SINGLE, "--param", "budget-scale", "--grid={zero}:0:-1"),
    ],
    ids=["bound", "plan", "simulate-swap", "swap-chain", "swap-pair-p", "sweep-values",
         "sweep-grid"],
)
def test_negative_zero_prints_as_zero(capsys, argv):
    outputs = []
    for zero in ("-0", "0"):
        code, out, err = run(capsys, *[arg.format(zero=zero) for arg in argv])
        assert code == 0, err
        outputs.append(out)
    assert outputs[0] == outputs[1]
    assert "-0" not in outputs[0]


def test_usage_errors_exit_one(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", SINGLE, "--param", "nope", "--values", "1"])
    assert exc.value.code == 1


def test_fig2_plan_roundtrip_schema(capsys):
    doc = run_json(capsys, "plan", FIG2, "--epsilon", "0.001")
    assert doc["m"] == 7
    jsonschema.validate(doc, load_schema("protocol_plan.schema.json"))


# The grid12 networks are perfbench.inputs grids of side 12: lossy with freq
# budgets from random.Random(1601), counts up to 6 from random.Random(1602).
# The solver tries arcs in file order, which fixes which paths the plan lists.
GOLDEN_PLANS = {
    "fig2_analog": FIG2,
    "triangle_counts": TRIANGLE,
    "grid12_counts": str(DATA_DIR / "grid12_counts.json"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_PLANS))
def test_plan_stdout_matches_golden_bytes(capsys, name):
    code, out, err = run(capsys, "plan", GOLDEN_PLANS[name], "--epsilon", "0.001")
    assert code == 0, err
    assert out.encode("utf-8") == (DATA_DIR / f"plan_{name}.json").read_bytes()


GOLDEN_BOUNDS = {
    **{f"bound_{name}": (str(NETWORKS_DIR / f"{name}.json"),) for name in
       ("diamond", "fig1_sample", "fig2_analog", "single_edge", "triangle_counts")},
    "bound_triangle_counts_eps1e-4": (TRIANGLE, "--epsilon", "1e-4"),
    # past 1/256 the corrected bound is vacuous: null, with "vacuous": true
    "bound_triangle_counts_eps1e-2": (TRIANGLE, "--epsilon", "0.01"),
    "bound_grid12_lossy": (str(DATA_DIR / "grid12_lossy.json"),),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_BOUNDS))
def test_bound_stdout_matches_golden_bytes(capsys, name):
    network, *rest = GOLDEN_BOUNDS[name]
    code, out, err = run(capsys, "bound", network, *rest)
    assert code == 0, err
    assert out.encode("utf-8") == (DATA_DIR / f"{name}.json").read_bytes()


LOSSY_FIELDS = "lower,upper_esq,upper_eps_corrected,ratio"
ETA_GRID = ("--grid", "0:0.95:0.05")
GOLDEN_SWEEPS = {
    "sweep_eta_single_edge": ("single_edge", "--param", "eta", "--edge", "ab", *ETA_GRID,
                              "--fields", LOSSY_FIELDS),
    "sweep_eta_diamond": ("diamond", "--param", "eta", "--edge", "e3", *ETA_GRID,
                          "--fields", LOSSY_FIELDS),
    "sweep_eta_fig1_sample": ("fig1_sample", "--param", "eta", "--edge", "c3-b", *ETA_GRID,
                              "--fields", LOSSY_FIELDS),
    # 'ab' joins Alice and Bob directly, so every cut crosses the swept edge
    "sweep_eta_triangle_counts": ("triangle_counts", "--param", "eta", "--edge", "ab", *ETA_GRID,
                                  "--fields", LOSSY_FIELDS + ",m", "--epsilon", "0.001"),
    "sweep_eta_fig2_analog": ("fig2_analog", "--param", "eta", "--edge", "c1-c3", *ETA_GRID,
                              "--fields", LOSSY_FIELDS + ",m"),
    "sweep_epsilon_triangle_counts": ("triangle_counts", "--param", "epsilon", "--values",
                                      "0,0.0001,0.001,0.003,0.0039,0.00390625,0.004,0.01",
                                      "--fields", "upper_eps_corrected,m"),
    "sweep_budget_scale_diamond": ("diamond", "--param", "budget-scale", "--grid", "0:3:0.25",
                                   "--fields", LOSSY_FIELDS),
    "sweep_eta_triangle_counts_eps1e-2": ("triangle_counts", "--param", "eta", "--edge", "ab",
                                          "--values", "0.1,0.5,0.9", "--epsilon", "0.01",
                                          "--fields", "upper_esq,upper_eps_corrected"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_SWEEPS))
def test_sweep_csv_matches_golden_bytes(capsys, name):
    network, *rest = GOLDEN_SWEEPS[name]
    code, out, err = run(capsys, "sweep", str(NETWORKS_DIR / f"{network}.json"), *rest)
    assert code == 0, err
    assert out.encode("utf-8") == (DATA_DIR / f"{name}.csv").read_bytes()


SWAP_LINKS = ("0.97", "0.91", "0.88", "0.95", "0.8", "0.99")
GOLDEN_SWAPS = {
    **{f"chain{n}": ("--chain", ",".join(SWAP_LINKS[:n])) for n in range(1, 7)},
    "chain_0.9_0.93": ("--chain", "0.9,0.93"),
    "perfect": ("--chain", "1.0,1.0,1.0"),
    "mixed_link": ("--chain", "0,0.5"),
    "eps0.2": ("--chain", "0.9,0.9", "--eps", "0.2"),
    "eps_violation": ("--chain", "0.9,0.7,0.95", "--eps", "0.15,0.2,0.1"),
    "from_plan": ("--from-plan", str(DATA_DIR / "plan_triangle_counts.json"),
                  "--path-index", "1", "--pair-p", "0.9"),
}


def assert_matches_swap_golden(doc: dict, name: str) -> None:
    """Same verdicts as the pinned report, and every float within 1e-12 of it."""
    golden = json.loads((DATA_DIR / "simulate_swap.json").read_text())[name]
    assert doc.keys() == golden.keys()
    for key in ("chain", "pass", "precondition_violations"):
        assert doc[key] == golden[key]
    for key in ("final_fidelity", "trace_distance", "budget", "per_pair_distances",
                "per_pair_eps"):
        assert doc[key] == pytest.approx(golden[key], rel=0, abs=1e-12)


@pytest.mark.parametrize("name", sorted(GOLDEN_SWAPS))
def test_simulate_swap_stdout_matches_golden(capsys, name):
    assert_matches_swap_golden(run_json(capsys, "simulate-swap", *GOLDEN_SWAPS[name]), name)


# --- one process per command: the exit path of the console script -------------

GOLDEN_COMMANDS = {
    **{f"plan_{name}": ("plan", network, "--epsilon", "0.001")
       for name, network in GOLDEN_PLANS.items()},
    **{name: ("bound", *argv) for name, argv in GOLDEN_BOUNDS.items()},
    **{name: ("sweep", str(NETWORKS_DIR / f"{network}.json"), *rest)
       for name, (network, *rest) in GOLDEN_SWEEPS.items()},
}


@pytest.mark.parametrize("name", sorted(GOLDEN_COMMANDS))
def test_a_cli_process_prints_the_golden_bytes(name):
    result = cli_in_child(*GOLDEN_COMMANDS[name])
    assert (result.returncode, result.stderr) == (0, b"")
    suffix = ".csv" if name.startswith("sweep_") else ".json"
    assert result.stdout == (DATA_DIR / f"{name}{suffix}").read_bytes()


@pytest.mark.parametrize("name", sorted(GOLDEN_SWAPS))
def test_a_cli_process_matches_the_simulate_swap_golden(name):
    result = cli_in_child("simulate-swap", *GOLDEN_SWAPS[name])
    assert (result.returncode, result.stderr) == (0, b"")
    assert_matches_swap_golden(json.loads(result.stdout), name)


@pytest.mark.parametrize("argv", [
    ("plan", TRIANGLE, "--epsilon", "0.001", "--dot"),
    ("sweep", DIAMOND, "--param", "eta", "--edge", "e3", *ETA_GRID, "--out"),
], ids=["plan-dot", "sweep-out"])
def test_a_cli_process_writes_the_file_main_writes(capsys, tmp_path, argv):
    in_process, child = tmp_path / "main.out", tmp_path / "child.out"
    code, out, err = run(capsys, *argv, str(in_process))
    assert code == 0, err
    result = cli_in_child(*argv, child)
    assert (result.returncode, result.stdout, result.stderr) == (0, out.encode(), b"")
    assert child.read_bytes() == in_process.read_bytes()


def test_a_cli_process_exits_two_with_no_stdout_for_an_unwritable_dot(tmp_path):
    dot_path = tmp_path / "missing" / "x.dot"
    result = cli_in_child("plan", TRIANGLE, "--dot", dot_path)
    assert (result.returncode, result.stdout) == (2, b"")
    assert result.stderr == f"io error: [Errno 2] No such file or directory: '{dot_path}'\n".encode()


@pytest.mark.parametrize("argv, expected", [
    (("bound", DIAMOND), 0),
    (("bound", DIAMOND, "--regime", "per-protocol"), 1),
    (("validate", str(DATA_DIR / "bad_networks.json")), 1),  # fails inside the paused parse
    (("validate", "/nonexistent/net.json"), 2),
])
def test_main_in_process_leaves_the_collector_alone(capsys, argv, expected):
    before = gc.get_freeze_count(), gc.isenabled()
    assert main(list(argv)) == expected
    capsys.readouterr()
    assert (gc.get_freeze_count(), gc.isenabled()) == before


FIG1 = str(NETWORKS_DIR / "fig1_sample.json")
PER_USE_ONLY = "applies only to the per-protocol regime; regime 'per-use' takes epsilon to 0"


@pytest.mark.parametrize(
    "argv, message",
    [
        ((DIAMOND, "--param", "eta", "--edge", "nope", "--values", "0.5"),
         "no edge with id 'nope'"),
        # the edge is checked before the epsilon, as in the pointwise sweep
        ((DIAMOND, "--param", "eta", "--edge", "nope", "--values", "0.5", "--epsilon", "nan"),
         "no edge with id 'nope'"),
        ((FIG1, "--param", "eta", "--edge", "c2-c3", "--values", "0.5"),
         "edge 'c2-c3' is not a lossy channel"),
        ((DIAMOND, "--param", "epsilon", "--values", "0,0.3"), f"epsilon=0.3 {PER_USE_ONLY}"),
        # a sweep reads its regime from the budgets; a fixed epsilon > 0 is
        # the one way to ask a freq network for the per-protocol correction
        ((DIAMOND, "--param", "eta", "--edge", "e1", "--values", "0.2,0.5", "--epsilon", "0.1"),
         f"epsilon=0.1 {PER_USE_ONLY}"),
        ((DIAMOND, "--param", "budget-scale", "--values", "1,2", "--epsilon", "0.1"),
         f"epsilon=0.1 {PER_USE_ONLY}"),
        ((TRIANGLE, "--param", "epsilon", "--values=-0.5,0.1", "--fields", "m"),
         "epsilon must be finite and >= 0, got -0.5"),
        ((TRIANGLE, "--param", "eta", "--edge", "ab", "--values", "0.5", "--epsilon", "inf",
          "--fields", "m"),
         "epsilon must be finite and >= 0, got inf"),
    ],
    ids=["unknown-edge", "unknown-edge-before-epsilon", "custom-edge", "epsilon-sweep-freq",
         "eta-sweep-epsilon-freq", "budget-scale-epsilon-freq", "negative-epsilon",
         "eta-sweep-epsilon-inf"],
)
def test_sweep_errors_match_pointwise_messages(capsys, argv, message):
    code, out, err = run(capsys, "sweep", *argv)
    assert code == 1
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("plan", FIG2, "--epsilon", "nan"),
        ("plan", FIG2, "--epsilon", "inf"),
        ("bound", DIAMOND, "--epsilon", "nan"),
        ("bound", DIAMOND, "--epsilon", "inf"),
        ("bound", FIG2, "--epsilon", "nan"),
        ("simulate-swap", "--chain", "0.01,0.01", "--eps", "nan"),
        ("sweep", SINGLE, "--param", "eta", "--edge", "ab", "--values", "0.5",
         "--epsilon", "nan"),
        ("sweep", SINGLE, "--param", "epsilon", "--values=-0.1,0.1"),
        # epsilon > 0 outside the per-protocol regime
        ("bound", str(NETWORKS_DIR / "fig1_sample.json"), "--regime", "per-use",
         "--epsilon", "0.3"),
        ("sweep", DIAMOND, "--param", "epsilon", "--values", "0,0.3"),
    ],
    ids=lambda argv: " ".join(a.rsplit("/", 1)[-1] for a in argv),
)
def test_bad_epsilon_exits_one_naming_epsilon(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "epsilon" in err


@pytest.mark.parametrize(
    "key, cls, regime, label",
    [
        ("count", Count, Regime.PER_PROTOCOL, "count"),
        ("freq", Frequency, Regime.PER_CHANNEL_USE, "frequency"),
        ("rate", Rate, Regime.PER_TIME, "rate"),
    ],
)
def test_budget_kind_end_to_end(capsys, tmp_path, key, cls, regime, label):
    doc = json.loads((NETWORKS_DIR / "diamond.json").read_text())
    for i, edge in enumerate(doc["edges"]):
        edge["usage"] = {key: 1.5 + i}
    net = parse_network(json.dumps(doc))
    assert parse_network(serialize_network(net)) == net
    assert all(type(e.usage) is cls for e in net.edges)
    assert type(net.edges[0].usage).regime is regime
    assert json.loads(serialize_network(net))["edges"][0]["usage"] == {key: 1.5}
    path = tmp_path / f"{key}.json"
    path.write_text(serialize_network(net))
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 0
    assert out == f"ok: 4 nodes, 4 edges, {label} budgets\n"
    assert net.default_regime is regime
    assert run_json(capsys, "bound", str(path))["regime"] == regime.value
    for other in {Count, Frequency, Rate} - {cls}:
        assert cls(1.0) != other(1.0)


def test_an_edgeless_network_is_bounded_per_use(capsys, tmp_path):
    path = tmp_path / "edgeless.json"
    path.write_text(json.dumps({"nodes": ["A", "B"], "alice": "A", "bob": "B", "edges": []}))
    doc = run_json(capsys, "bound", str(path))
    assert (doc["regime"], doc["lower"], doc["upper_esq"]) == ("per-use", 0.0, 0.0)
