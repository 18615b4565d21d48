"""``python -m dialnet``: the same command line as the ``dialnet`` script."""

import sys

from .cli import main

sys.exit(main())
