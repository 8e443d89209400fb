"""The package's one CSV layout and one JSON layout.

Both are byte-identical across reruns, and every float parses back exactly.
Neither writes a NaN or an infinity: both refuse before opening the file.
"""

from __future__ import annotations

import itertools
import json

import numpy as np

from .errors import NumericsError

_BATCH_ROWS = 4096


def write_csv(path, header, columns):
    """Write columns under the header: integers and bools as such, floats in full."""
    columns = [np.asarray(col) for col in columns]
    for name, col in zip(header.split(","), columns):
        if col.dtype.kind not in "biu" and not np.isfinite(col).all():
            raise NumericsError(f"column {name!r} of {path} is not finite")
    row = ",".join("%d" if col.dtype.kind in "biu" else "%.17g"
                   for col in columns) + "\n"
    flat = list(itertools.chain.from_iterable(zip(*(col.tolist() for col in columns))))
    step = _BATCH_ROWS * len(columns)
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for part in (tuple(flat[lo:lo + step]) for lo in range(0, len(flat), step)):
            fh.write(row * (len(part) // len(columns)) % part)   # a batch of rows


def write_json(path, doc):
    try:
        text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise NumericsError(f"{path} would hold a non-finite number") from exc
    with open(path, "w") as fh:
        fh.write(text + "\n")
