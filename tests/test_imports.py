"""The package and every CLI subcommand run where numpy, dataclasses and inspect
cannot be imported: a CLI process pays for none of them."""

import subprocess
import sys

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
