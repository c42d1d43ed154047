"""``python -m qetsim``: the command-line interface without an installed script."""

import sys

from .cli import main

sys.exit(main())
