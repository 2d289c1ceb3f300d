"""What a process loads: each CLI subcommand only the qnetcap modules it runs, and
none of numpy, dataclasses or inspect, nor anything outside the standard library;
the package resolves its names on first use."""

import importlib
import json
import os
import subprocess
import sys

import pytest

import qnetcap

from conftest import DATA_DIR, NETWORKS_DIR, src_env

BLOCKED = ("numpy", "dataclasses", "inspect")
BLOCKING_SCRIPT = """
import sys
for name in {blocked!r}:
    sys.modules[name] = None  # any import of it now raises ImportError
import qnetcap
import qnetcap.cli
for argv in {commands!r}:
    assert qnetcap.cli.main(argv) == 0, argv
"""


def run_blocked(commands) -> None:
    result = subprocess.run(
        [sys.executable, "-c", BLOCKING_SCRIPT.format(blocked=BLOCKED, commands=commands)],
        env=src_env(), capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr


def test_cli_subcommands_other_than_simulate_swap_never_import_numpy():
    fig2 = str(NETWORKS_DIR / "fig2_analog.json")
    diamond = str(NETWORKS_DIR / "diamond.json")
    run_blocked([
        ["validate", diamond],
        ["bound", diamond],
        ["plan", fig2, "--epsilon", "0.001"],
        ["sweep", diamond, "--param", "eta", "--edge", "e1", "--values", "0,0.5"],
        ["sweep", fig2, "--param", "epsilon", "--values", "0,0.001", "--fields", "m"],
        ["sweep", diamond, "--param", "budget-scale", "--values", "1,2"],
    ])


def test_simulate_swap_never_imports_numpy():
    run_blocked([
        ["simulate-swap", "--chain", "0.9,0.9"],
        ["simulate-swap", "--chain", ",".join(["0.99"] * 40), "--eps", "0.02"],
        ["simulate-swap", "--from-plan", str(DATA_DIR / "plan_triangle_counts.json"),
         "--path-index", "1", "--pair-p", "0.9"],
    ])


# --- the modules each subcommand loads ------------------------------------------

LOADED_SCRIPT = """
import contextlib, io, json, sys
{imports}
with contextlib.redirect_stdout(io.StringIO()):
    code = qnetcap.cli.main({argv!r}) if {argv!r} else 0
loaded = sorted(name for name in sys.modules if name.split(".")[0] == "qnetcap")
print(json.dumps([code, loaded]))
"""

CLI = {"qnetcap", "qnetcap.cli", "qnetcap.values"}
SOLVER = CLI | {"qnetcap.netmodel", "qnetcap.capacity", "qnetcap.cuts_flows"}
BOUND = SOLVER | {"qnetcap.report"}
PLAN = SOLVER | {"qnetcap.routes", "qnetcap.aggregator"}
SWEEP = BOUND | {"qnetcap.sweep"}
DIAMOND = str(NETWORKS_DIR / "diamond.json")
FIG2 = str(NETWORKS_DIR / "fig2_analog.json")
LOADS = {
    "validate": (["validate", DIAMOND], CLI | {"qnetcap.netmodel"}),
    "simulate-swap-chain": (["simulate-swap", "--chain", "0.9,0.9"],
                            CLI | {"qnetcap.capacity", "qnetcap.swap"}),
    # the plan file is read by netmodel's JSON reader, which names the file in its errors
    "simulate-swap-plan": (["simulate-swap", "--from-plan",
                            str(DATA_DIR / "plan_triangle_counts.json"), "--path-index", "1"],
                           CLI | {"qnetcap.capacity", "qnetcap.swap", "qnetcap.netmodel"}),
    "bound": (["bound", DIAMOND], BOUND),
    "plan": (["plan", FIG2, "--epsilon", "0.001"], PLAN),
    # the DOT writer only for --dot; the file goes to the null device
    "plan-dot": (["plan", FIG2, "--dot", os.devnull], PLAN | {"qnetcap.export"}),
    # an eta sweep weighs its grid with the column rules, not the one-edge references
    "sweep-eta": (["sweep", DIAMOND, "--param", "eta", "--edge", "e1", "--values", "0,0.5"],
                  SWEEP),
    "sweep-epsilon": (["sweep", FIG2, "--param", "epsilon", "--values", "0,0.001"], SWEEP),
    "sweep-budget-scale": (["sweep", DIAMOND, "--param", "budget-scale", "--values", "1,2"],
                           SWEEP),
    # the plan modules only for field m
    "sweep-eta-m": (["sweep", FIG2, "--param", "eta", "--edge", "a-c1", "--values", "0,0.5",
                     "--fields", "m"], SWEEP | PLAN),
    "sweep-epsilon-m": (["sweep", FIG2, "--param", "epsilon", "--values", "0,0.001",
                         "--fields", "m"], SWEEP | PLAN),
    "sweep-budget-scale-m": (["sweep", FIG2, "--param", "budget-scale", "--values", "1,2",
                              "--fields", "m"], SWEEP | PLAN),
}
# only the tests load the brute-force oracle
assert all("qnetcap.bruteforce" not in modules for _, modules in LOADS.values())


def loaded_modules(imports: str, argv: list) -> set:
    """The qnetcap modules a fresh interpreter holds after imports and main(argv)."""
    result = subprocess.run(
        [sys.executable, "-c", LOADED_SCRIPT.format(imports=imports, argv=argv)],
        env=src_env(), capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    code, loaded = json.loads(result.stdout)
    assert code == 0, result.stderr
    return set(loaded)


@pytest.mark.parametrize("case", sorted(LOADS))
def test_each_subcommand_loads_only_the_modules_it_runs(case):
    argv, expected = LOADS[case]
    assert loaded_modules("import qnetcap.cli", argv) == expected


def test_importing_the_package_or_the_cli_loads_no_library_module():
    assert loaded_modules("import qnetcap", []) == {"qnetcap"}
    assert loaded_modules("import qnetcap.cli", []) == CLI


def test_an_in_process_report_loads_only_the_report_path():
    imports = ("import json, qnetcap\n"
               f"net = qnetcap.parse_network(open({DIAMOND!r}).read())\n"
               "report = qnetcap.sandwich_report(net, qnetcap.Regime.PER_CHANNEL_USE)\n"
               "json.dumps(qnetcap.sandwich_report_to_dict(report))")
    assert loaded_modules(imports, []) == BOUND - {"qnetcap.cli"}


def test_a_value_type_loads_only_its_home():
    assert loaded_modules("from qnetcap import Count, EdgeSpec, Regime", []) == {
        "qnetcap", "qnetcap.values"}
    assert "qnetcap.cuts_flows" not in loaded_modules("import qnetcap.generators", [])


def test_cli_runs_on_the_standard_library_alone():
    # -S skips site-packages: only the standard library and src/ are importable
    for argv, _ in LOADS.values():
        result = subprocess.run([sys.executable, "-S", "-m", "qnetcap.cli", *argv],
                                env=src_env(), capture_output=True, text=True)
        assert result.returncode == 0, (argv, result.stderr)


# --- names resolved on first use ------------------------------------------------

EXPORTS = {
    "aggregator": (
        "AsymptoticQCap", "FixedFraction", "PerEdgeTable", "ProtocolPlan", "RateModel",
        "build_bell_network", "plan", "plan_to_dict",
    ),
    "bruteforce": ("min_cut_bruteforce",),
    "capacity": ("WeightKind", "binary_entropy", "check_epsilon", "epsilon_corrected_upper"),
    "cuts_flows": (
        "CapacityKind", "CutResult", "FlowGraph", "flow_graph_from_network", "max_flow_value",
        "min_cut",
    ),
    "export": ("export_dot", "plan_to_dot", "serialize_network"),
    "netmodel": ("Network", "NetworkFormatError", "Topology", "load_network", "parse_network"),
    "pointwise": (
        "crossing_edges", "edge_weight", "lossy_esq_upper", "lossy_q_cap", "pair_count",
        "resolve_rate",
    ),
    "report": ("SandwichReport", "lossy_gap_ratio", "sandwich_report", "sandwich_report_to_dict"),
    "routes": ("PathSet", "check_path_set", "max_disjoint_paths"),
    "swap": ("werner_chain_report",),
    "values": (
        "ChannelSpec", "Count", "CustomChannel", "EdgeSpec", "Frequency", "LossyOptical",
        "NodeId", "Rate", "Regime", "UsageBudget",
    ),
}
NAMES = {name for names in EXPORTS.values() for name in names}


def test_every_exported_name_is_the_object_in_its_home_module():
    for module, names in EXPORTS.items():
        home = importlib.import_module(f"qnetcap.{module}")
        for name in names:
            assert getattr(qnetcap, name) is getattr(home, name), (module, name)


DIR_SCRIPT = """
import json, sys
import qnetcap
listed = dir(qnetcap)
print(json.dumps([listed, sorted(name for name in sys.modules if name.startswith("qnetcap."))]))
"""


def test_dir_and_all_list_every_exported_name_before_any_is_read():
    assert set(qnetcap.__all__) == NAMES
    result = subprocess.run([sys.executable, "-c", DIR_SCRIPT], env=src_env(),
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    listed, submodules = json.loads(result.stdout)
    assert NAMES <= set(listed)
    assert submodules == []  # dir() resolves nothing


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from qnetcap import *", namespace)
    del namespace["__builtins__"]
    assert namespace.keys() == NAMES
    for module, names in EXPORTS.items():
        home = importlib.import_module(f"qnetcap.{module}")
        assert all(namespace[name] is getattr(home, name) for name in names)


def test_unknown_package_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        qnetcap.no_such_name
    assert not hasattr(qnetcap, "no_such_name")
