"""File formats.

Group file: first line "degree N", then one permutation per line in
canonical cycle notation (1-based, cycles sorted by smallest element,
smallest element first).  Design file: first line "points V", then one
block per line as space-separated 1-based point indices.  Both accept
'#' comment lines and blank lines; writers emit canonical form.
"""

from __future__ import annotations

from .group import GroupWithChain
from .incidence import IncidenceStructure
from .perm import Permutation


class FileFormatError(ValueError):
    pass


def _content_lines(text):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield lineno, line


def parse_group_text(text):
    lines = list(_content_lines(text))
    if not lines:
        raise FileFormatError("empty group file")
    lineno, header = lines[0]
    parts = header.split()
    if len(parts) != 2 or parts[0] != "degree":
        raise FileFormatError(
            f"line {lineno}: expected 'degree N', got {header!r}")
    try:
        degree = int(parts[1])
    except ValueError:
        raise FileFormatError(f"line {lineno}: bad degree {parts[1]!r}") from None
    if degree < 1:
        raise FileFormatError(f"line {lineno}: degree must be positive")
    gens = []
    for lineno, line in lines[1:]:
        try:
            gens.append(Permutation.from_cycles(line, degree))
        except ValueError as exc:
            raise FileFormatError(f"line {lineno}: {exc}") from exc
    if not gens:
        raise FileFormatError("group file lists no generators")
    return GroupWithChain(tuple(gens))


def format_group(group, comment=None):
    out = []
    if comment:
        for line in comment.splitlines():
            out.append(f"# {line}")
    out.append(f"degree {group.degree}")
    out.extend(str(g) for g in group.generators)
    return "\n".join(out) + "\n"


def read_group_file(path):
    with open(path, encoding="utf-8") as fh:
        return parse_group_text(fh.read())


def write_group_file(path, group, comment=None):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_group(group, comment))


def parse_design_text(text):
    lines = list(_content_lines(text))
    if not lines:
        raise FileFormatError("empty design file")
    lineno, header = lines[0]
    parts = header.split()
    if len(parts) != 2 or parts[0] != "points":
        raise FileFormatError(
            f"line {lineno}: expected 'points V', got {header!r}")
    try:
        v = int(parts[1])
    except ValueError:
        raise FileFormatError(f"line {lineno}: bad point count {parts[1]!r}") from None
    if v < 1:
        raise FileFormatError(f"line {lineno}: point count must be positive")
    blocks = []
    for lineno, line in lines[1:]:
        try:
            points = [int(tok) for tok in line.split()]
        except ValueError:
            raise FileFormatError(f"line {lineno}: blocks must be integers") from None
        if any(p < 1 or p > v for p in points):
            raise FileFormatError(
                f"line {lineno}: point outside 1..{v}")
        blocks.append([p - 1 for p in points])
    if not blocks:
        raise FileFormatError("design file lists no blocks")
    try:
        return IncidenceStructure(v=v, blocks=blocks)
    except ValueError as exc:
        raise FileFormatError(str(exc)) from exc


def format_design(structure, comment=None):
    out = []
    if comment:
        for line in comment.splitlines():
            out.append(f"# {line}")
    out.append(f"points {structure.v}")
    for block in structure.blocks:
        out.append(" ".join(str(p + 1) for p in block))
    return "\n".join(out) + "\n"


def read_design_file(path):
    with open(path, encoding="utf-8") as fh:
        return parse_design_text(fh.read())


def write_design_file(path, structure, comment=None):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_design(structure, comment))
