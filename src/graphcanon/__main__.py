"""``python -m graphcanon``: the command line of :mod:`graphcanon.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
