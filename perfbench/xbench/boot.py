"""Traced bootstrap: ``boot.py SPANS_JSON serve|replica [repro CLI args]``.

Wraps the public callables listed in :mod:`xbench.hooks`, runs the
ordinary ``repro.cli.main`` with the remaining arguments, and writes the
recorded spans to ``SPANS_JSON`` when the process exits.  Spawned shard
workers import this file as ``__mp_main__`` and so run unwrapped; their
time is read from the engine's ``stats()`` instead.
"""

import sys
from pathlib import Path


def main(argv) -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
    from xbench.hooks import install_primary, install_replica
    from xbench.spans import SpanRecorder

    spans_path, cli_args = argv[0], argv[1:]
    rec = SpanRecorder()
    if cli_args[0] == "serve":
        install_primary(rec)
    else:
        install_replica(rec)
    from repro.cli import main as cli_main

    try:
        return cli_main(cli_args)
    finally:
        rec.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
