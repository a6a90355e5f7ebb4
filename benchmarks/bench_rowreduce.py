"""Benchmark the compiled row-reduction kernel against the pure-Python one.

Matrices are the actual per-degree relation systems of two representative
rings (a torus-equivariant flag ring and a complex Grassmannian), so the
timings reflect the shapes the engine really reduces.

Run:  python benchmarks/bench_rowreduce.py [--repeat 5] [--max-degree 14]
"""

from __future__ import annotations

import argparse
import time

from flagcohom import SpaceDescriptor, build_ring, equivariant_space
from flagcohom import linalg
from flagcohom._rowreduce_py import rref as rref_py
from flagcohom.algebra import degree_matrix

try:
    from flagcohom._rowreduce import rref as rref_c
except ImportError:
    rref_c = None


def cases(max_degree):
    eq = equivariant_space("complex", 3, "flag", cutoff=max_degree)
    for d in range(max_degree - 2, max_degree + 1):
        cols, rows = degree_matrix(eq.presentation, d)
        if rows:
            yield f"equivariant Fl(C^3), degree {d}", rows, len(cols)
    gr = build_ring(SpaceDescriptor("complex-grassmannian", 3, 6))
    for d in (14, 16, 18):
        if d <= gr.cutoff:
            cols, rows = degree_matrix(gr.presentation, d)
            if rows:
                yield f"G_3(C^6), degree {d}", rows, len(cols)


def best_time(kernel, rows, repeat):
    best = float("inf")
    for _ in range(repeat):
        copies = [list(r) for r in rows]
        start = time.perf_counter()
        kernel(copies)
        best = min(best, time.perf_counter() - start)
    return best


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeat", type=int, default=5)
    parser.add_argument("--max-degree", type=int, default=14)
    args = parser.parse_args()

    print(f"selected backend at import: {linalg.BACKEND}")
    if rref_c is None:
        print("compiled kernel not built; timing the pure-Python kernel only")

    header = f"{'case':36} {'rows':>5} {'cols':>5} {'python':>10}"
    if rref_c is not None:
        header += f" {'c':>10} {'speedup':>8}"
    print(header)
    for name, rows, ncols in cases(args.max_degree):
        t_py = best_time(rref_py, rows, args.repeat)
        line = f"{name:36} {len(rows):>5} {ncols:>5} {t_py * 1e3:>8.2f}ms"
        if rref_c is not None:
            assert rref_c([list(r) for r in rows]) == rref_py([list(r) for r in rows])
            t_c = best_time(rref_c, rows, args.repeat)
            line += f" {t_c * 1e3:>8.2f}ms {t_py / t_c:>7.2f}x"
        print(line)


if __name__ == "__main__":
    main()
