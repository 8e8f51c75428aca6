"""Walkthrough: the sign-complexity constructions checked numerically.

For each (k, n) cell this enumerates the basis-vector construction exactly
and verifies both sides of the sandwich: the finite class value reaches
sqrt(kn/2) while the single-center coordinate value stays below 3 sqrt(n).
"""

import math

from kkmlab import (
    khintchine_check,
    lower_bound_construction,
    rad_check_cell,
    theorem_bound_value,
)

print(f"{'k':>3} {'n':>4} {'finite_class':>13} {'sqrt(kn/2)':>11} "
      f"{'coordinate':>11} {'3*sqrt(n)':>10} {'verdict':>9}")
for k, n in ((2, 4), (2, 8), (4, 8), (4, 16)):
    (fc, coord, kh), _ = rad_check_cell(lower_bound_construction(k, n), trials=10_000,
                                        master_seed=3)
    ok = fc.verdict == coord.verdict == kh.verdict == "satisfied"
    print(f"{k:>3} {n:>4} {fc.value:>13.6f} {fc.bound:>11.6f} "
          f"{coord.value:>11.6f} {coord.bound:>10.6f} {'ok' if ok else 'VIOLATED':>9}")

print("\nsign-sum averages per block (half of E|sum| vs sqrt(block/8)):")
for block in (1, 2, 4, 8, 16):
    res = khintchine_check(block)
    print(f"  block={block:<3d} lhs={res.lhs:.6f}  rhs={res.rhs:.6f}  "
          f"{'ok' if res.lhs >= res.rhs else 'VIOLATED'}")

print("\nupper-bound formula growth in k (value relative to k=1):")
base = theorem_bound_value(1, 256, 10.0, 0.01, 1.0)
for k in (1, 2, 4, 9, 16):
    v = theorem_bound_value(k, 256, 10.0, 0.01, 1.0)
    print(f"  k={k:<3d} value={v:10.3f}  ratio={v / base:.3f}  sqrt(k)={math.sqrt(k):.3f}")
