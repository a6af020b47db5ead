"""Run the onebit CLI as ``python -m onebit``."""

from .cli import main

raise SystemExit(main())
