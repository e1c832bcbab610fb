"""Run ``repro serve`` with the benchmark's layer wrappers installed.

Usage, from the root of a checkout with ``src`` on ``PYTHONPATH``::

    python3 perfbench/traced_serve.py SPANS.jsonl serve --host 127.0.0.1 --port 0

Installs :class:`perfbench.tracing.Patches` in the server process, then
hands the remaining arguments to the program's own command line.  When
the server stops (``POST /shutdown``), its spans are written to
``SPANS.jsonl`` and the span names whose wrapper could not be installed
to ``SPANS.jsonl.missing.json``.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench import tracing  # noqa: E402


def main(argv: list[str]) -> int:
    spans_path, args = argv[0], argv[1:]
    # Loaded before wrapping, so the names they import are replaced too.
    import repro.cli
    import repro.service  # noqa: F401

    recorder = tracing.SpanRecorder()
    with tracing.Patches(recorder) as patches:
        code = repro.cli.main(args)
    recorder.write_jsonl(spans_path)
    with open(spans_path + ".missing.json", "w") as fh:
        json.dump(sorted(patches.missing_spans()), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
