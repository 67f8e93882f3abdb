"""``python -m repro.cli``: the ``repro-experiments`` front end."""

import sys

from . import main

sys.exit(main())
