"""python -m fforbits: the same command line as the fforbits script."""

import sys

from .cli import main

sys.exit(main())
