"""`python -m surfscan`: the `surfscan` command, for a checkout that is not installed."""
from .cli import main

raise SystemExit(main())
