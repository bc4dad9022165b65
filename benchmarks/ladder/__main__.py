"""Entry point: ``python3 benchmarks/ladder/__main__.py ...`` from the root
of a checkout, or ``PYTHONPATH=src python -m benchmarks.ladder ...``."""

import sys
from pathlib import Path

if __name__ == "__main__":
    here = Path(__file__).resolve().parent
    root = here.parents[1]
    # Run as a script, Python puts this directory first on sys.path, which
    # would import the package's modules a second time as top-level ones.
    sys.path[:] = [entry for entry in sys.path
                   if Path(entry or ".").resolve() != here]
    for entry in (root / "src", root):
        if str(entry) not in sys.path:
            sys.path.insert(0, str(entry))
    from benchmarks.ladder.cli import main

    raise SystemExit(main())
