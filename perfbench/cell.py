"""One benchmark cell in a fresh interpreter.

Usage: ``python cell.py '<json cell config>'`` runs one cell of a
workload (see ``workloads.py``) and prints its result as one JSON line;
``python cell.py record WORKDIR`` rewrites ``reference.json``.
``run.py`` is the only intended caller.
"""

from __future__ import annotations

import json
import os
import sys

import layers
import workloads


def main() -> int:
    if sys.argv[1] == "record":
        workloads.record_reference(sys.argv[2])
        return 0
    cfg = workloads.CellConfig(**json.loads(sys.argv[1]),
                               env=dict(os.environ))
    clock = layers.LayerClock() if cfg.traced else None
    result = workloads.CELLS[cfg.workload](cfg, clock)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
