"""Only the swap oracle imports numpy; the package resolves its names on first use."""

import subprocess
import sys

import pytest

import qnetcap

from conftest import NETWORKS_DIR, src_env

ORACLE_NAMES = (
    "DensityMatrix",
    "SwapVerification",
    "bell_fidelity",
    "bell_pair",
    "swap_chain",
    "trace_distance",
    "verify_error_chain",
    "werner_pair",
)

NO_NUMPY_SCRIPT = """
import sys
import qnetcap.cli
assert "numpy" not in sys.modules, "import qnetcap.cli loaded numpy"
for argv in {commands!r}:
    assert qnetcap.cli.main(argv) == 0, argv
    assert "numpy" not in sys.modules, f"{{argv[0]}} loaded numpy"
assert qnetcap.cli.main(["simulate-swap", "--chain", "0.9,0.9"]) == 0
assert "numpy" in sys.modules, "simulate-swap ran without the oracle"
"""


def test_cli_subcommands_other_than_simulate_swap_never_import_numpy():
    fig2 = str(NETWORKS_DIR / "fig2_analog.json")
    diamond = str(NETWORKS_DIR / "diamond.json")
    commands = [
        ["validate", diamond],
        ["bound", diamond],
        ["plan", fig2, "--epsilon", "0.001"],
        ["sweep", diamond, "--param", "eta", "--edge", "e1", "--values", "0,0.5"],
        ["sweep", fig2, "--param", "epsilon", "--values", "0,0.001", "--fields", "m"],
        ["sweep", diamond, "--param", "budget-scale", "--values", "1,2"],
    ]
    result = subprocess.run(
        [sys.executable, "-c", NO_NUMPY_SCRIPT.format(commands=commands)],
        env=src_env(), capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("name", ORACLE_NAMES)
def test_oracle_names_resolve_through_the_package(name):
    from qnetcap import qsim_oracle

    assert getattr(qnetcap, name) is getattr(qsim_oracle, name)
    assert name in dir(qnetcap)


def test_unknown_package_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        qnetcap.no_such_name
    assert not hasattr(qnetcap, "no_such_name")
