"""The package's one CSV layout and one JSON layout.

Both are byte-identical across reruns, and every float parses back exactly.
Neither writes a NaN or an infinity: both refuse before opening the file.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import ConfigError, NumericsError


def _column_text(col, sep):
    """The text of each entry of col, sep included; when at most half of the
    entries are distinct, each distinct value (by bit pattern) is formatted once."""
    integral = col.dtype.kind in "biu"
    fmt = ("%d" if integral else "%.17g") + sep
    key = col if integral else col.view(f"i{col.itemsize}")   # keeps -0.0 apart
    distinct, inverse = np.unique(key, return_inverse=True)
    if 2 * distinct.size > col.size:
        return [fmt % v for v in col.tolist()]
    text = np.array([fmt % v for v in distinct.view(col.dtype).tolist()], dtype=object)
    return text[inverse]


def write_csv(path, header, columns):
    """Write columns under the header: integers and bools as such, floats in full."""
    columns = [np.asarray(col) for col in columns]
    for name, col in zip(header.split(","), columns):
        if col.dtype.kind not in "biu" and not np.isfinite(col).all():
            raise NumericsError(f"column {name!r} of {path} is not finite")
    cells = np.empty((columns[0].size, len(columns)), dtype=object)
    for j, col in enumerate(columns):
        cells[:, j] = _column_text(col, "\n" if j == len(columns) - 1 else ",")
    Path(path).write_text(header + "\n" + "".join(cells.ravel().tolist()))


def write_json(path, doc):
    """Write doc as sorted, indented JSON; a NumPy scalar is written as its number."""
    try:
        text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False,
                          default=np.generic.item) + "\n"
    except ValueError as exc:
        raise NumericsError(f"{path} would hold a non-finite number") from exc
    except TypeError as exc:
        raise ConfigError(f"{path} cannot hold a value: {exc}") from exc
    Path(path).write_text(text)
