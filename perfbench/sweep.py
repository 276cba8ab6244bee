"""Kernel sweep of the traced run: ms per call of the pair kernels and
the two distance diagnostics on seeded sphere configurations.

Bytes are the kernels' main temporaries computed from N (and the mesh
size), not measured.  Against the caches of the 2-core Xeon the bounds
were set on (L2 4 MiB per core, L3 300 MiB shared): at N <= 1000 every
working set fits in L3; at N = 4000 the gradient's 640 MB does not.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from rieszfield import diagnostics, fields, geometry, optimizer

from workloads import sphere_points

SIZES = (200, 1000, 4000)
KERNELS = ("energy_gradient", "energy", "separation", "covering_radius")


def _ms_per_call(fn, min_calls, budget_s):
    times = []
    t_end = time.perf_counter() + budget_s
    while len(times) < min_calls or (time.perf_counter() < t_end and len(times) < 100):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def kernel_sweep(seed, minimal=False):
    min_calls, budget_s = (1, 0.0) if minimal else (3, 0.25)
    rng = np.random.default_rng(seed)
    cset, fld, s = geometry.make_sphere(), fields.catalog("d"), 4.0
    mesh = cset.mesh()  # built once, outside the timed calls
    out = {}
    for n in SIZES:
        config = optimizer.Configuration(sphere_points(n, rng), cset)
        kernels = {
            # diff tensor (n*n*3 doubles) plus two n*n arrays
            "energy_gradient": (lambda: optimizer.energy_gradient(config, fld, s), 40 * n * n),
            # pdist vector and its power
            "energy": (lambda: optimizer.energy(config, fld, s), 8 * n * (n - 1)),
            "separation": (lambda: diagnostics.separation(config), 4 * n * (n - 1)),
            # mesh points read, distance and index written per mesh point
            "covering_radius": (lambda: diagnostics.covering_radius(config, mesh), 40 * len(mesh[0])),
        }
        for name, (fn, nbytes) in kernels.items():
            out[f"sweep.{name}.n{n}.ms_per_call"] = _ms_per_call(fn, min_calls, budget_s)
            out[f"sweep.{name}.n{n}.bytes_computed"] = nbytes
    return out
