"""``python -m dflsim``: the command-line harness of ``dflsim.cli``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
