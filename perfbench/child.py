"""One fockscan CLI invocation in a fresh process, as the benchmark runs it.

    python3 perfbench/child.py REPORT MODE fockscan-args...

MODE is one of
  run    call fockscan.cli.main(args) unchanged;
  trace  wrap the package's layers first (see tracer.py);
  setup  stop where the subcommand would start computing.

REPORT receives JSON with ``cmd_start``, the CLOCK_MONOTONIC time at which
the subcommand was entered (after interpreter start, imports, argument and
config parsing), and, when traced, the recorded spans and counters.  The
process exits with the CLI's exit code.
"""
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


class SetupDone(Exception):
    """Raised by the subcommand hook in setup mode; escapes cli.main's handlers."""


def _hook_subcommands(cli, marks, stop):
    """Mark subcommand entry; without a COMMANDS table there is no mark, and no setup_s."""
    commands = getattr(cli, "COMMANDS", None)
    if not isinstance(commands, dict):
        return

    def entering(fn):
        def entered(*args, **kwargs):
            marks["cmd_start"] = time.monotonic()
            if stop:
                raise SetupDone
            return fn(*args, **kwargs)
        return entered

    for name, fn in commands.items():
        commands[name] = entering(fn)


def main(argv) -> int:
    report_path, mode, cli_args = argv[0], argv[1], argv[2:]
    sys.path.insert(0, SRC)
    from fockscan import cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        print(f"fockscan imported from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 4
    marks: dict = {}
    tracer = None
    if mode == "trace":
        sys.path.insert(0, HERE)
        from tracer import Tracer

        tracer = Tracer().install()
    _hook_subcommands(cli, marks, stop=mode == "setup")
    try:
        code = cli.main(cli_args)
    except SetupDone:
        code = 0
    if tracer is not None:
        marks["trace"] = tracer.dump()
    with open(report_path, "w") as fh:
        json.dump(marks, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
