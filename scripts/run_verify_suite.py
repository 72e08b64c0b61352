#!/usr/bin/env python3
"""Run every exact certification suite and write reports under out/verify.

These are the identity checks backed by the enumeration oracle: residuals
under rigorous tail bounds for the ladder-pair identity, and total-variation
distance exactly zero for the reversal, local-time and meander identities.
Each suite runs at its declared defaults (the keyword defaults of its
``certify_*`` function).
"""

import sys

from fluctwalk.cli import VERIFY, main

if __name__ == "__main__":
    worst = 0
    for suite in VERIFY:
        print(f"== verify {suite}")
        code = main(["--out", f"out/verify/{suite}", "verify", suite])
        worst = max(worst, code)
    sys.exit(worst)
