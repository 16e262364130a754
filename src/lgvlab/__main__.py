"""``python -m lgvlab``: the ``lgvlab`` command without an installed script."""

import sys

from .cli import main

sys.exit(main())
