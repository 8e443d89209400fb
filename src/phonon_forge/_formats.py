"""The package's one CSV layout and one JSON layout.

Both are byte-identical across reruns, and every float parses back exactly.
Neither writes a NaN or an infinity: both refuse before opening the file.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import NumericsError


def write_csv(path, header, columns):
    """Write columns under the header: integers and bools as such, floats in full."""
    columns = [np.asarray(col) for col in columns]
    for name, col in zip(header.split(","), columns):
        if col.dtype.kind not in "biu" and not np.isfinite(col).all():
            raise NumericsError(f"column {name!r} of {path} is not finite")
    row = ",".join("%d" if col.dtype.kind in "biu" else "%.17g"
                   for col in columns) + "\n"
    with open(path, "w") as fh:
        fh.write(header + "\n")
        fh.writelines(row % values
                      for values in zip(*(col.tolist() for col in columns)))


def write_json(path, doc):
    try:
        text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise NumericsError(f"{path} would hold a non-finite number") from exc
    with open(path, "w") as fh:
        fh.write(text + "\n")
