"""``python -m twoflags``: the twoflags command line without an installed script."""

import sys

from .cli import main

sys.exit(main())
