"""Run ``repro serve`` with the layer wrappers installed.

    python3 perfbench/traced_serve.py SPANS_DIR serve --port N ...

The wrappers go in before the daemon forks its worker pool, so pool
workers inherit them; each process writes its spans into SPANS_DIR when
it exits.  Everything after SPANS_DIR is the ``repro`` command line.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)


def main() -> int:
    import tracing

    spans_dir, argv = sys.argv[1], sys.argv[2:]
    recorder = tracing.Recorder()
    tracing.install(recorder, dump_dir=spans_dir)
    from repro.cli import main as repro_main

    try:
        return repro_main(argv)
    finally:
        path = os.path.join(spans_dir, f"spans-{os.getpid()}.json")
        with open(path, "w") as handle:
            json.dump(recorder.state(), handle)


if __name__ == "__main__":
    sys.exit(main())
