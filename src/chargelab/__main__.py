"""``python -m chargelab``: the same command line as the ``chargelab`` script."""
import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
