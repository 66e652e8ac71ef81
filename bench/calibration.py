"""A fixed calibration kernel that measures how fast the host runs right now.

A few virtual cores of a shared machine can drift in speed by up to 2x
over tens of seconds, with no CPU steal to show for it: a fixed amount of
work simply takes longer. Every CLI call of an iteration is
therefore bracketed by runs of this kernel, and the end-to-end times are
rescaled by REF_KERNEL_S / (the kernel's time in that iteration). The
rescaled figures read as seconds on a host that runs the kernel in
REF_KERNEL_S; a change to the program moves them as it moves the raw ones,
while the host's drift moves the program and the kernel alike and cancels.

The kernel does not import nmcollide, so no change to the program can
change it. Its work resembles the program's inner loops: small dense numpy
products, a Kronecker product, a Hermitian eigensolve, and interpreted
float and dict work between them. Two threads run it at once and share
the interpreter lock, as the CLI's thread pool does. Against one thread,
this tracks the host as well on the single-threaded workloads and better
on the pooled one (bench/README.md gives the figures).
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

THREADS = 2
ROUNDS = 2000  # per thread
# time of kernel() on the reference host, about its median there: a 2-vCPU Intel Xeon
# virtual machine, Python 3.11.7, numpy 2.4.6 with scipy-openblas 0.3.31
REF_KERNEL_S = 0.15

_rng = np.random.default_rng(0)
_A = _rng.standard_normal((8, 8))
_A = _A + _A.T
_B = _rng.standard_normal((4, 4))
_B = _B + _B.T


def _work(rounds: int) -> float:
    acc = 0.0
    seen = {}
    for _ in range(rounds):
        acc += float(np.trace(_A @ _A)) * 1e-9
        acc += float(np.linalg.eigvalsh(_B)[0])
        acc += float(np.trace(np.kron(_B, _B[:2, :2])))
        for j in range(40):
            acc += j * 0.5
            seen[j] = acc
    return acc


def kernel() -> float:
    """Run the fixed calibration work once; return its wall time in seconds."""
    with ThreadPoolExecutor(max_workers=THREADS) as pool:
        start = time.perf_counter()
        sums = list(pool.map(_work, [ROUNDS] * THREADS))
        elapsed = time.perf_counter() - start
    if not all(np.isfinite(sums)):
        raise RuntimeError("calibration kernel produced a non-finite sum")
    return elapsed
