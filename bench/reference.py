"""A fixed reference kernel that measures how fast the host runs right now.

On a shared host the speed of one process moves by up to a factor of two over
seconds to minutes, so a pass time alone says as much about the host as about
replidyn.  The benchmark runs this kernel before each pass and after every
operation, and reports each pass's time in units of the kernel's time in that
pass.  The kernel is the benchmark's own code: it never changes with replidyn,
and its inputs are fixed.  Each part does a kind of work the workloads spend their time on:

- ``parse``: decoding JSON arrays of floats and splitting CSV lines of floats
  in pure Python, as the artifact reads of ``audit`` and the per-step
  bookkeeping of the 1D runs do;
- ``splu``: a sparse LU solve of a 2D five-point system on a 41x41 grid, as
  the torsion and Poincare solves and the 41x41 steps do;
- ``splu81``: the same on an 81x81 grid, as the 81x81 steps do.
"""

from __future__ import annotations

import json
import random
from time import perf_counter

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

_rng = random.Random(0)
_JSON = json.dumps([[_rng.random() for _ in range(41)] for _ in range(120)])
_CSV = [",".join(repr(_rng.random()) for _ in range(8)) for _ in range(600)]


def _five_point(n: int):
    """A shifted five-point Laplacian on an n x n grid and a right-hand side."""
    t = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
    i = sp.identity(n)
    a = (sp.kron(i, t) + sp.kron(t, i) + 0.1 * sp.identity(n * n)).tocsc()
    return a, np.linspace(0.0, 1.0, n * n)


_SYSTEMS = {n: _five_point(n) for n in (41, 81)}


def _parse() -> None:
    rows = json.loads(_JSON)
    total = sum(row[3] for row in rows)
    for line in _CSV:
        total += sum(float(x) for x in line.split(","))


def _splu(n: int) -> None:
    a, b = _SYSTEMS[n]
    spla.splu(a).solve(b)


KERNELS = {"parse": _parse, "splu": lambda: _splu(41), "splu81": lambda: _splu(81)}


def reference_seconds(parts) -> float:
    """Wall time of one run of the named kernel parts."""
    start = perf_counter()
    for part in parts:
        KERNELS[part]()
    return perf_counter() - start
