"""Run one surfshape command with the benchmark's tracer installed.

Usage: python3 perfbench/clishim.py SPANS_JSON SUBCOMMAND [OPTIONS...]

Behaves like ``python3 -m surfshape.cli SUBCOMMAND [OPTIONS...]`` and exits
with its code.  It records a ``cli.import`` span around ``import
surfshape.cli``, a ``cli.<subcommand>`` span around the command, and the
layer spans of tracer.py, then writes them to SPANS_JSON.
"""
import sys

from tracer import Recorder


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    recorder = Recorder()
    with recorder.span("cli.import"):
        import surfshape.cli
    recorder.install()
    with recorder.span(f"cli.{argv[0]}"):
        code = surfshape.cli.main(argv)
    recorder.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
