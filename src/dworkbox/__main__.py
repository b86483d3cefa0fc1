"""``python -m dworkbox``: the command-line interface of `dworkbox.cli`."""

import sys

from .cli import main

sys.exit(main())
