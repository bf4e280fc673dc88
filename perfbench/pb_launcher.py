"""Start ``repro.cli`` with every layer boundary traced.

Usage::

    python3 pb_launcher.py SPANS_JSON <repro.cli arguments...>

Installs the span wrappers of :mod:`pb_spans`, then runs
``repro.cli.main`` with the remaining arguments (the same server the
untraced run starts with ``python3 -m repro.cli``).  When the command
returns, the recorded spans are written to SPANS_JSON.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
sys.path.insert(1, str(Path(__file__).resolve().parent))

import pb_spans  # noqa: E402


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    recorder = pb_spans.install()
    from repro.cli import main as cli_main

    try:
        return cli_main(cli_args)
    finally:
        recorder.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
