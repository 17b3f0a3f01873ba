"""``python -m repro.analysis`` — run repro-lint from the command line.

Exit codes: 0 clean, 1 violations found, 2 usage error (including a
path that holds no Python file).
"""

from __future__ import annotations

import sys

from repro.analysis import main

if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
