"""Artifact writers: UTF-8 with ``\\n`` line ends on every platform, so a
given run always produces byte-identical files."""

from __future__ import annotations

import csv
import json
from pathlib import Path


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
