"""Truncated-oscillator toolkit: exact spectra and shot-sampled VQE for
quantum-mechanical potentials and Wheeler-DeWitt mini-superspace models."""

import os

# OpenBLAS reads this once, when the library loads (with numpy, at the first
# import of a submodule).  An idle worker then spins 2^20 cycles (about
# 0.4 ms) before it sleeps, not OpenBLAS's default 2^28 (about 0.1 s of a core
# after load and after every threaded BLAS call); 2^20 still keeps it awake
# between eigh's back-to-back BLAS calls.  A value the user set wins.  If
# numpy was imported before mssq this has no effect, which is harmless: the
# timeout only decides when an idle worker sleeps, so no result depends on it.
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "20")
