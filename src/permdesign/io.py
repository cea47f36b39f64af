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


def _parse(text, kind, form, count, items):
    """The header's positive integer and the content lines after it, each
    as (line number, stripped text), skipping '#' comments and blank lines;
    `kind` names the file, `form` shows the header ("<keyword> <symbol>"),
    `count` names its integer and `items` what the later lines list."""
    lines = [(lineno, line) for lineno, raw in
             enumerate(text.splitlines(), start=1)
             if (line := raw.strip()) and not line.startswith("#")]
    if not lines:
        raise FileFormatError(f"empty {kind} file")
    lineno, header = lines[0]
    parts = header.split()
    if len(parts) != 2 or parts[0] != form.split()[0]:
        raise FileFormatError(
            f"line {lineno}: expected '{form}', got {header!r}")
    try:
        n = int(parts[1])
    except ValueError:
        raise FileFormatError(f"line {lineno}: bad {count} {parts[1]!r}") from None
    if n < 1:
        raise FileFormatError(f"line {lineno}: {count} must be positive")
    if len(lines) == 1:
        raise FileFormatError(f"{kind} file lists no {items}")
    return n, lines[1:]


def _layout(comment, header, lines):
    """The file text: the comment's lines behind '# ', the header, then
    the lines, each ended by a newline."""
    out = [f"# {line}" for line in comment.splitlines()] if comment else []
    return "\n".join([*out, header, *lines]) + "\n"


def parse_group_text(text):
    degree, lines = _parse(text, "group", "degree N", "degree", "generators")
    gens = []
    for lineno, line in lines:
        try:
            gens.append(Permutation.from_cycles(line, degree))
        except ValueError as exc:
            raise FileFormatError(f"line {lineno}: {exc}") from exc
    return GroupWithChain(tuple(gens))


def format_group(group, comment=None):
    return _layout(comment, f"degree {group.degree}",
                   (str(g) for g in group.generators))


def read_group_file(path):
    with open(path, encoding="utf-8") as fh:
        return parse_group_text(fh.read())


def write_group_file(path, group, comment=None):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_group(group, comment))


def parse_design_text(text):
    v, lines = _parse(text, "design", "points V", "point count", "blocks")
    blocks = []
    for lineno, line in lines:
        try:
            points = [int(tok) for tok in line.split()]
        except ValueError:
            raise FileFormatError(f"line {lineno}: blocks must be integers") from None
        if any(p < 1 or p > v for p in points):
            raise FileFormatError(
                f"line {lineno}: point outside 1..{v}")
        blocks.append([p - 1 for p in points])
    try:
        return IncidenceStructure(v=v, blocks=blocks)
    except ValueError as exc:
        raise FileFormatError(str(exc)) from exc


def format_design(structure, comment=None):
    return _layout(comment, f"points {structure.v}",
                   (" ".join(str(p + 1) for p in block)
                    for block in structure.blocks))


def read_design_file(path):
    with open(path, encoding="utf-8") as fh:
        return parse_design_text(fh.read())


def write_design_file(path, structure, comment=None):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_design(structure, comment))
