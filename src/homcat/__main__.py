"""``python -m homcat``: the command-line front end of ``homcat.cli``."""

import sys

from homcat.cli import main

if __name__ == "__main__":
    sys.exit(main())
