"""Start ``repro serve`` with the layer wrappers installed.

Usage::

    python -X importtime perfbench/launcher.py LAYERS_JSON serve [options] --trace TRACE_JSONL

``repro.cli`` is imported first, so ``-X importtime`` shows its whole
import chain; then :func:`layers.install` wraps the layer entry points
and the remaining arguments go to ``repro.cli.main``.  The recorded
spans are written to LAYERS_JSON when the server exits.
"""

import sys

from repro.cli import main

import layers


def serve(argv):
    recorder = layers.Recorder()
    layers.install(recorder)
    try:
        return main(argv[1:])
    finally:
        recorder.dump(argv[0])


if __name__ == "__main__":
    sys.exit(serve(sys.argv[1:]))
