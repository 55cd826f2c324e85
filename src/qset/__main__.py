"""``python -m qset``: the qset command line, runnable from a checkout."""

from .cli import main

raise SystemExit(main())
