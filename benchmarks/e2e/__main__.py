"""``python -m benchmarks.e2e``: see ``cli.py``."""

import sys

from benchmarks.e2e.cli import main

if __name__ == "__main__":
    sys.exit(main())
