"""``python -m wreathchar``: the same command line as the ``wreathchar`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
