"""`python -m costap`: the costap command line."""
from .harness_cli import main

raise SystemExit(main())
