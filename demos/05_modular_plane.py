"""Maximum general-position point sets over Z_n x Z_n.

The modular relaxation replaces exact distances by squares in Z_n, lines by
parametric images and circles by solution sets of (x-a)^2+(y-b)^2 = r^2.
Small moduli are solved exactly; larger ones (try --modulus 50) report a
lower bound under a node budget.
"""

import argparse
import time

from intpoints import mod_max_general_position

parser = argparse.ArgumentParser()
parser.add_argument("--modulus", type=int, default=None, help="single modulus instead of the 2..13 table")
parser.add_argument("--budget", type=int, default=None, help="search node budget")
args = parser.parse_args()

moduli = [args.modulus] if args.modulus else list(range(2, 14))
for n in moduli:
    t0 = time.perf_counter()
    res = mod_max_general_position(n, node_budget=args.budget)
    bound = "=" if res.exact else ">="
    print(
        f"max general-position points over Z_{n}^2 {bound} {res.size}"
        f"  witness {res.witness}  ({time.perf_counter() - t0:.2f}s)"
    )
