"""The package's one CSV layout and one JSON layout.

Both are byte-identical across reruns, and every float parses back exactly.
"""

from __future__ import annotations

import json

import numpy as np


def write_csv(path, header, columns):
    """Write columns under the header: integers and bools as such, floats in full."""
    columns = [np.asarray(col) for col in columns]
    row = ",".join("%d" if col.dtype.kind in "biu" else "%.17g"
                   for col in columns) + "\n"
    with open(path, "w") as fh:
        fh.write(header + "\n")
        fh.writelines(row % values
                      for values in zip(*(col.tolist() for col in columns)))


def write_json(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
