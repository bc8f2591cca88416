"""One chargelab CLI invocation, as the ``chargelab`` console script runs it.

    python3 perfbench/launch.py --stamp FILE [--trace FILE] -- ARGS...

Imports ``chargelab.cli`` first and nothing else, so the moment written to
the stamp file (CLOCK_MONOTONIC, comparable with the parent's clock) marks
the end of set-up: interpreter start plus the package import, including its
import-time work.  With ``--trace`` the tracer is installed after that
moment, and the spans are written when ``main`` returns.  The exit code is
``main``'s.
"""
import time
import sys

import chargelab.cli

IMPORTED = time.monotonic()


def _parse(argv):
    import argparse

    split = argv.index("--") if "--" in argv else len(argv)
    parser = argparse.ArgumentParser(prog="launch.py")
    parser.add_argument("--stamp", required=True)
    parser.add_argument("--trace")
    return parser.parse_args(argv[:split]), argv[split + 1:]


def main() -> int:
    import json

    opts, cli_args = _parse(sys.argv[1:])
    with open(opts.stamp, "w") as fh:
        json.dump({"imported": IMPORTED, "package": chargelab.cli.__file__}, fh)
    if opts.trace is None:
        return chargelab.cli.main(cli_args)

    import targets
    import tracer

    t = tracer.Tracer("chargelab")
    t.install(targets.TARGETS)
    try:
        return chargelab.cli.main(cli_args)
    finally:
        t.dump(opts.trace)


if __name__ == "__main__":
    sys.exit(main())
