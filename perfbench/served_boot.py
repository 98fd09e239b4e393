"""Start ``nanoxbar serve`` with the benchmark's layer timers installed.

Usage: ``python served_boot.py DUMP serve [serve options...]``.  The
timers wrap the layers a served request crosses before the server
starts; when the server stops, their totals are written to ``DUMP`` as
JSON for the traced ``served-mix`` cell to read.
"""

from __future__ import annotations

import json
import sys

import layers


def main() -> int:
    dump, argv = sys.argv[1], sys.argv[2:]
    clock = layers.LayerClock()
    layers.install_synthesis(clock)
    layers.install_campaigns(clock)
    layers.install_server(clock)
    from repro.eval.cli import main as cli_main

    code = cli_main(argv)
    with open(dump, "w", encoding="utf-8") as handle:
        json.dump(clock.snapshot(), handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
