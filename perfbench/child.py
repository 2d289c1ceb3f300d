"""Traced CLI process for the cli-mix workload.

Usage: python child.py SPANS_FILE CLI_ARG...

Runs qnetcap.cli.main(CLI_ARG...) with every public qnetcap function
wrapped by the Tracer, then writes the recorded spans to SPANS_FILE and
exits with the CLI's exit code. PYTHONPATH must name the source tree.
"""

import sys

import qnetcap.cli

from tracer import Tracer


def main() -> int:
    spans_file, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    # the CLI writes JSON through _print_json; emission time is a figure of its own
    print_json = getattr(qnetcap.cli, "_print_json", None)
    if print_json is not None:
        def traced_print(obj):
            with tracer.span("aggregator.json_dumps"):
                print_json(obj)
        qnetcap.cli._print_json = traced_print
    tracer.current_op = 0
    try:
        code = qnetcap.cli.main(argv)
    finally:
        sys.stdout.flush()
        with open(spans_file, "wb") as fh:
            fh.write(tracer.dump())
    return code


if __name__ == "__main__":
    raise SystemExit(main())
