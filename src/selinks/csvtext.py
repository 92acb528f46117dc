"""The one CSV writer, shared by the catalog writer and `scan euclidean`.

It is a module of its own so that only a command that writes CSV compiles
it: every command compiles `cli.py`, and `writer.py` is the whole catalog
writer, which `scan euclidean` does not run.
"""

from __future__ import annotations

import csv
import io
from typing import Sequence


def csv_text(header: Sequence[str], rows) -> str:
    """The header and the rows in the default CSV dialect, with \\n line ends."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()
