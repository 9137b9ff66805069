"""CSV output with a '#' metadata preamble.

Every emitted file starts with comment lines of the form '# key: value'
followed by a normal header row. Floats are rendered with %.12g so a
rerun with the same seed is byte-identical.

write_csv_lines is the one writer: it owns the file handling, the
preamble and the header, and streams lines that are already joined.
write_csv feeds it rows of cells, each formatted by format_cell; the
histogram exporter feeds it pre-joined rows built with the same
formatting, so its per-bin rows skip the per-cell calls.
"""

from __future__ import annotations

import os
from typing import Iterable, Mapping, Sequence


def format_cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.12g}"
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def write_csv_lines(path: str, metadata: Mapping[str, object], header: Sequence[str],
                    lines: Iterable[str]) -> None:
    """Write the preamble and header, then lines that each end in a newline."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        for key, value in metadata.items():
            fh.write(f"# {key}: {format_cell(value)}\n")
        fh.write(",".join(header) + "\n")
        fh.writelines(lines)


def write_csv(path: str, metadata: Mapping[str, object], header: Sequence[str], rows: Iterable[Sequence]) -> None:
    write_csv_lines(path, metadata, header, (",".join(map(format_cell, row)) + "\n" for row in rows))
