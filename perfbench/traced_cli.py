"""Run one ``oscoul`` command line with the layer tracer installed.

    python perfbench/traced_cli.py SPANS_JSON <oscoul arguments...>

Behaves like ``python -m oscoul.cli <arguments...>`` (same entry point,
same exit code) and writes the spans of the call to SPANS_JSON.
"""

import json
import sys

from tracer import Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    import oscoul.cli

    tracer = Tracer()
    tracer.install()
    try:
        return oscoul.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(spans_path, "w") as fh:
            json.dump(tracer.dump(), fh)


if __name__ == "__main__":
    sys.exit(main())
