"""CSV output with a '#' metadata preamble.

Every emitted file starts with comment lines of the form '# key: value'
followed by a normal header row. Floats are rendered with %.12g so a
rerun with the same seed is byte-identical.

write_csv_lines is the one writer: it owns the file handling, the
preamble and the header, and streams text that is already joined. It
writes one or more files with the same header in lockstep, each chunk
of its input holding one text per file. write_csv feeds it one file
and one chunk: all of its rows (its tables are small), each cell
formatted by format_cell. The histogram exporter feeds it the
histograms of one time axis, a chunk of bins at a time, with floats in
format_float as format_cell has them, skipping the per-cell calls.
"""

from __future__ import annotations

import os
from typing import Iterable, Mapping, Sequence

format_float = "{:.12g}".format


def format_cell(value) -> str:
    if isinstance(value, float):
        return format_float(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def write_csv_lines(paths: Sequence[str], metadata: Sequence[Mapping[str, object]], header: Sequence[str],
                    chunks: Iterable[Sequence[str]]) -> None:
    """Write each path's preamble from its metadata and the shared header,
    then from each chunk the text of each file, in the order of paths; each
    text is whole lines that each end in a newline."""
    files = []
    try:
        for path, meta in zip(paths, metadata, strict=True):
            os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
            files.append(fh := open(path, "w", newline="\n"))
            for key, value in meta.items():
                fh.write(f"# {key}: {format_cell(value)}\n")
            fh.write(",".join(header) + "\n")
        for chunk in chunks:
            for fh, text in zip(files, chunk, strict=True):
                fh.write(text)
    finally:
        for fh in files:
            fh.close()


def write_csv(path: str, metadata: Mapping[str, object], header: Sequence[str], rows: Iterable[Sequence]) -> None:
    text = "".join([",".join(map(format_cell, row)) + "\n" for row in rows])
    write_csv_lines((path,), (metadata,), header, [(text,)])
