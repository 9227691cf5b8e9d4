#!/usr/bin/env python3
"""Print the limiting idemprimality verdict for every shipped builtin
instance, next to the expected value from the literature.  Exits 1 when a
verdict that is not advisory disagrees with the literature, else 0."""

import sys
import time

from maltkit.analysis import canonical_transversal
from maltkit.closure import compute_closure
from maltkit.library import (builtin_label, builtin_system, default_instances,
                             expected_verdict)
from maltkit.params import idemprimality_verdict, p_of_k, parameters


def main() -> int:
    print(f"{'system':26s} {'d_M':>3s} {'p(2)':>5s} {'limit':>9s} "
          f"{'a.s.':>5s} {'expected':>8s} {'time':>7s}")
    mismatches = 0
    for fam, args in default_instances():
        t0 = time.perf_counter()
        spec = builtin_system(fam, *args)
        pars = parameters(canonical_transversal(compute_closure(spec)))
        v = idemprimality_verdict(pars)
        exp = expected_verdict(fam, *args)
        mark = ""
        if v.almost_surely != exp.almost_surely:
            mark = "  (advisory mismatch)" if exp.advisory else "  MISMATCH"
            mismatches += not exp.advisory
        print(f"{builtin_label(fam, *args):26s} {pars.d_M:3d} "
              f"{p_of_k(pars, 2):5d} {v.limit_label:>9s} "
              f"{str(v.almost_surely):>5s} {str(exp.almost_surely):>8s} "
              f"{time.perf_counter() - t0:6.2f}s{mark}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
