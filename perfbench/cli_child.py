"""Run ``ebnarx.cli.main`` under the tracer, as one cold CLI call.

Usage: python3 perfbench/cli_child.py SUMMARY_JSON CLI_ARG...

The cold calls of a traced ``infer-chen`` run start this script instead
of ``python -m ebnarx.cli``.  It times the import of ``ebnarx.cli`` (numpy
included), traces ``main`` and everything below it, writes the span summary
to SUMMARY_JSON and exits with the CLI's exit code.  The library comes from
the ``PYTHONPATH`` the parent sets.
"""

import json
import sys
import time

start = time.perf_counter()
import ebnarx.cli  # noqa: E402 - the import is what is timed

import_s = time.perf_counter() - start

import spans  # noqa: E402 - sits next to this script


def main():
    summary_path, argv = sys.argv[1], sys.argv[2:]
    with spans.Tracer() as tracer:
        code = ebnarx.cli.main(argv)
    summary = spans.summary(tracer)
    summary["stats"]["cli.import"] = {"calls": 1, "span_s": import_s}
    summary["root_s"] += import_s
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
