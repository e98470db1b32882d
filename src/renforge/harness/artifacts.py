"""The program's file access. Artifacts are written as UTF-8 with ``\\n``
line ends on every platform, so a given run always produces byte-identical
files. Every input file is read as UTF-8 text through ``read_lines``."""

from __future__ import annotations

import csv
import json
from pathlib import Path

from ..errors import InvalidParameterError


def read_lines(path, error=InvalidParameterError):
    """Yield the lines of the text file at ``path`` as iterating the file
    gives them: ``\\r\\n`` and ``\\r`` line ends come back as ``\\n``. A file
    that cannot be read raises ``error("cannot read <path>: ...")``, and one
    that is not UTF-8 ``error("<path> is not UTF-8 text: ...")``."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            yield from handle
    except OSError as exc:
        raise error(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise error(f"{path} is not UTF-8 text: {exc}") from exc


def write_text(path: Path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)


def write_json_doc(path: Path, doc) -> None:
    write_text(path, json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n")


def write_csv(path: Path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
