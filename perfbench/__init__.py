"""Benchmark harness for sldkit.

Run ``python3 perfbench/run.py --workload qfi_sweep --seed 1 --seconds 20
--trace 0`` from the repository root; see ``perfbench/README.md``.  Nothing in
this package imports numpy at import time, so ``procenv.configure`` can still
fix the BLAS thread count before numpy loads.
"""
