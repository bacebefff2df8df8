"""Set-up probe: time a fresh interpreter's import plus the workload warm-up.

Run as ``python3 perfbench/probe.py <workload>`` with ``src`` on PYTHONPATH;
prints the seconds from before ``import latticeframes`` to the end of the
warm-up.  The warm-up is what the benchmark does once before it times cases:
the first table, classification and LAPACK call of the process.
"""

import sys
import time


def warm_phi(lf):
    table = lf.compute_phi(lf.BSpline(1), lf.new_lattice([[1.0]]), 8)
    lf.classify_table(table)


def warm_gram(lf):
    warm_phi(lf)
    lf.gram_eigen_bounds(lf.gram_matrix(lf.Gaussian(1.0), lf.new_lattice([[1.0]]), 2))


# cli_presets starts a new interpreter per case, so its set-up is the import
WARMUPS = {"cli_presets": lambda lf: None, "phi_grid": warm_phi, "gram_oracle": warm_gram}


if __name__ == "__main__":
    start = time.perf_counter()
    import latticeframes

    WARMUPS[sys.argv[1]](latticeframes)
    print(repr(time.perf_counter() - start))
