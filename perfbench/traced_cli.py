"""The `grasspoly` command line with the library's layers traced.

    python3 perfbench/traced_cli.py SUMMARY_JSON SPANS_FILE ARGS...

runs `grasspoly ARGS...` in this process after wrapping the layers
(spans.py), writes the per-layer summary and the spans, and exits with the
command's exit code.  What the command prints is unchanged.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from spans import Tracer  # noqa: E402


def main():
    summary_path, spans_path, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    import grasspoly.cli
    tracer = Tracer()
    tracer.install()
    try:
        code = grasspoly.cli.main(argv)
    finally:
        sys.stdout.flush()
        with open(summary_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.summarize(), fh)
        tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
