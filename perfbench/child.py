"""One `simplex-stdp` invocation, run in a fresh process by run.py.

    python3 perfbench/child.py SIDE_FILE TRACE -- <simplex-stdp arguments>

Runs `simplex_stdp.cli.main` with the given arguments and exits with its
code. It stamps the moment the scenario function is entered and, with
TRACE = 1, records spans around the module functions the CLI calls. Both go
to SIDE_FILE as JSON, outside the scenario's output directory, so the
scenario's outputs are the same as those of a plain run.
"""

import json
import sys
import time

import spans


def main(argv):
    side_path, trace, sep = argv[:3]
    if sep != "--":
        raise SystemExit("usage: child.py SIDE_FILE TRACE -- ARGS...")
    cli_args = argv[3:]
    from simplex_stdp import cli

    scenario = cli_args[0] if cli_args else None
    tracer = spans.Tracer()
    if trace == "1":
        tracer.install(cli, scenario)
    elif scenario in cli.SCENARIOS:
        fn = cli.SCENARIOS[scenario]

        def stamped(*args, **kwargs):
            tracer.enter = time.monotonic()
            return fn(*args, **kwargs)

        cli.SCENARIOS[scenario] = stamped
    try:
        return cli.main(cli_args)
    finally:
        with open(side_path, "w") as fh:
            json.dump({"enter": tracer.enter, "spans": tracer.spans,
                       "missing_layers": tracer.missing}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
