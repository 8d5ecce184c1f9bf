"""``python -m polyfin``: the command line of polyfin.cli."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
