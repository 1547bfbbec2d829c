#!/usr/bin/env python
"""Where PoseCNN's GEMMs change a probe's bits as the batch widens.

BLAS gives a row (or column) of a matrix product the same bits only within
one GEMM shape: as the batch dimension crosses the library's small-matrix
and threading thresholds, it picks another kernel, and a frame's result can
change in its last places.  This probe measures those thresholds for every
PoseCNN product, in the operand layout its caller passes:

* serving FC columns, ``W @ x.T`` (:class:`repro.serve.kernel` puts the
  batch on the column axis, ``x.T`` a transposed view of contiguous rows);
* serving conv rows, ``cols @ filters`` (one frame is ``out_h * out_w`` rows
  of the im2col patch matrix, the filters contiguous ``(patch, O)``);
* fold FC rows, ``x @ W.T`` and ``grad @ W`` (the shared-base products of
  :func:`repro.nn.linear_lowrank_batched`).

For each width from 1 to :data:`MAX_WIDTH` frames, one probe frame sits in the
first slot and again in the last, with random frames between them.  A width
is listed, per slot, when the probe's result there differs bitwise from its
result in the same slot one frame narrower.  A product that lists nothing
keeps its bits at every width.

Usage::

    python scripts/blas_regimes.py                          # the host's BLAS threads
    OPENBLAS_NUM_THREADS=1 python scripts/blas_regimes.py   # one BLAS thread
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import numpy as np

try:
    import repro  # noqa: F401
except ImportError:  # a checkout without an install: use its src/ tree
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro import nn  # noqa: E402
from repro.core.models import PoseCNN  # noqa: E402
from repro.nn.cols import filters_nhwc  # noqa: E402

#: Widest batch probed, in frames.
MAX_WIDTH = 128


def _products(model) -> list:
    """``(name, layout, frame_rows, k, product)`` per PoseCNN product, where
    ``product(rows)`` multiplies a contiguous ``(width * frame_rows, k)``
    row block in the caller's layout and returns the result, one row a
    frame."""
    convs = [m.weight.data for m in model.network if isinstance(m, nn.Conv2d)]
    linears = [
        np.ascontiguousarray(m.weight.data) for m in model.network if isinstance(m, nn.Linear)
    ]
    pixels = model.config.input_height * model.config.input_width  # same padding
    products = []
    for i, w in enumerate(linears, start=1):
        products.append((
            f"serving fc{i} columns", f"W{w.shape} @ x.T", 1, w.shape[1],
            lambda x, w=w: np.matmul(w, x.T).T,
        ))
    for i, weight in enumerate(convs, start=1):
        f = np.ascontiguousarray(filters_nhwc(weight).T)  # (patch, O)
        products.append((
            f"serving conv{i} rows", f"cols @ filters{f.shape}", pixels, f.shape[0],
            lambda x, f=f: np.matmul(x, f).reshape(-1, pixels * f.shape[1]),
        ))
    for i, w in enumerate(linears, start=1):
        products.append((
            f"fold fc{i} rows forward", f"x @ W{w.shape}.T", 1, w.shape[1],
            lambda x, w=w: np.matmul(x, w.T),
        ))
        products.append((
            f"fold fc{i} rows grad_x", f"grad @ W{w.shape}", 1, w.shape[0],
            lambda g, w=w: np.matmul(g, w),
        ))
    return products


def main() -> int:
    rng = np.random.default_rng(0)
    model = PoseCNN()
    print(
        f"numpy {np.__version__}, os.cpu_count() {os.cpu_count()}, "
        f"OPENBLAS_NUM_THREADS {os.environ.get('OPENBLAS_NUM_THREADS', 'unset')}, "
        f"widths 1..{MAX_WIDTH} frames"
    )
    print(f"{'product':<26} {'layout':<26} {'slot':<6} widths where the probe's bits change")
    for name, layout, frame_rows, k, product in _products(model):
        probe = rng.normal(size=(frame_rows, k))
        frames = rng.normal(size=(MAX_WIDTH * frame_rows, k))
        changes = {"first": [], "last": []}
        previous = None
        for width in range(1, MAX_WIDTH + 1):
            rows = frames[: width * frame_rows].copy()
            rows[:frame_rows] = probe
            rows[-frame_rows:] = probe
            result = product(rows)
            slots = {"first": result[0], "last": result[-1]}
            for slot, bits in slots.items():
                if previous is not None and not np.array_equal(bits, previous[slot]):
                    changes[slot].append(width)
            previous = slots
        for slot, widths in changes.items():
            listed = ", ".join(map(str, widths)) or "-"
            print(f"{name:<26} {layout:<26} {slot:<6} {listed}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
