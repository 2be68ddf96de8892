"""One ``toricff`` invocation in a fresh process, with timestamps.

Usage: python3 child.py STAMPS MODE -- TORICFF-ARGS...

MODE is ``run`` (plain ``toricff`` run), ``trace`` (the same run with the
outside-in spans of tracer.py installed) or ``setup`` (import ``toricff`` and
parse the problem file, then stop). STAMPS receives JSON with CLOCK_MONOTONIC
readings, which the parent shares: ``parsed`` when the problem is parsed and
``rendered`` when the report text is complete. Traced runs add the spans.
"""

import sys
import time


def main(argv):
    stamps_path, mode, sep, *toricff_argv = argv
    if sep != "--" or mode not in ("run", "trace", "setup"):
        raise SystemExit("usage: child.py STAMPS run|trace|setup -- TORICFF-ARGS...")
    from toricff import cli

    stamps = {}
    if mode == "setup":
        with open(toricff_argv[1]) as handle:
            cli.parse_problem(handle.read())
        stamps["parsed"] = time.monotonic()
        code = 0
    else:
        parse_problem, emit = cli.parse_problem, cli._emit

        def timed_parse(text):
            problem = parse_problem(text)
            stamps["parsed"] = time.monotonic()
            return problem

        def timed_emit(text, out_path):
            stamps["rendered"] = time.monotonic()
            emit(text, out_path)

        cli.parse_problem, cli._emit = timed_parse, timed_emit
        if mode == "trace":
            import tracer

            spans = tracer.Tracer()
            tracer.install(spans)
        code = cli.main(toricff_argv)
        if mode == "trace":
            stamps["spans"] = spans.spans
    import json

    with open(stamps_path, "w") as handle:
        json.dump(stamps, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
