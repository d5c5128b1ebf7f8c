"""Small shared helpers: exact-ratio rendering, the lone-surrogate rule for
identifiers, deterministic randomness, atomic file writes."""

from __future__ import annotations

import hashlib
import math
import os
import re
import tempfile
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Iterator, Mapping


def ratio_str(numerator: int, grid: int) -> str:
    """Render the exact ratio numerator/grid un-normalized on that grid.

    "4/10" rather than "2/5" keeps window quantities legible.
    """
    return f"{numerator}/{grid}"


def reduced_str(numerator: int, denominator: int) -> str:
    """Render numerator/denominator in lowest terms, exactly as str(Fraction)."""
    common = math.gcd(numerator, denominator)
    numerator //= common
    denominator //= common
    return str(numerator) if denominator == 1 else f"{numerator}/{denominator}"


# A JSON \ud800 escape reads as a lone surrogate, which no UTF-8 file and no
# digest can hold; an ASCII string holds none.
_SURROGATE = re.compile("[\ud800-\udfff]").search


def lone_surrogate(text: str) -> bool:
    """Whether ``text`` holds a code point in U+D800-U+DFFF."""
    return not text.isascii() and _SURROGATE(text) is not None


def grid_count(value: Fraction, grid: int) -> int:
    """Numerator of ``value`` on the 1/grid grid; ValueError when off the grid."""
    scaled = Fraction(value) * grid
    if scaled.denominator != 1:
        raise ValueError(f"{value} does not lie on the 1/{grid} grid")
    return scaled.numerator


def round_half_away(numerator: int, denominator: int) -> int:
    """Round numerator/denominator (denominator > 0) to the nearest integer,
    halves away from zero."""
    whole, remainder = divmod(abs(numerator), denominator)
    if 2 * remainder >= denominator:
        whole += 1
    return whole if numerator >= 0 else -whole


def derive_seed(seed: int, *parts: str) -> int:
    """Stable 64-bit stream id for (seed, *parts).

    Uses a keyed digest rather than hash() so results do not depend on
    PYTHONHASHSEED, the platform, or the process.
    """
    digest = hashlib.blake2b(digest_size=8)
    digest.update(str(seed).encode("ascii"))
    for part in parts:
        digest.update(b"\x1f")
        digest.update(part.encode("utf-8"))
    return int.from_bytes(digest.digest(), "big")


def unit_open_xy(seed: int, keys: Iterable[tuple[str, ...]]
                 ) -> Iterator[tuple[float, float]]:
    """Draws in the open interval (0, 1) for each ``parts`` of ``keys``: the x
    and y of ``(derive_seed(seed, *parts, axis) + 0.5) / 2**64``, bit for bit.

    The seed is hashed once and its state copied per key, which feeds
    ``\\x1f part \\x1f ... \\x1f`` once and is copied again for x and y. The
    bytes hashed are those of ``derive_seed``: UTF-8 encodes a joined string
    as the join of its encoded parts.
    """
    seeded = hashlib.blake2b(digest_size=8)
    seeded.update(str(seed).encode("ascii"))
    for parts in keys:
        y = seeded.copy()
        y.update("\x1f".join(("", *parts, "")).encode("utf-8"))
        x = y.copy()
        x.update(b"x")
        y.update(b"y")
        yield ((int.from_bytes(x.digest(), "big") + 0.5) / 2.0**64,
               (int.from_bytes(y.digest(), "big") + 0.5) / 2.0**64)


def _umask() -> int:
    mask = os.umask(0)
    os.umask(mask)
    return mask


def atomic_write(files: Mapping[Path, Iterable[str]]) -> None:
    """Write each path's pieces of text to it, all the files or none.

    Each file is written with ``writelines`` to a temp file beside it, and
    the temp files are renamed over their paths only after the last one is
    written; any failure before then unlinks every temp file and leaves the
    paths as they were. A file gets the mode open() would give a new file
    (0o666 less the umask), not the 0600 that mkstemp creates temp files with.
    """
    mode = 0o666 & ~_umask()
    written: list[tuple[str, Path]] = []
    try:
        for path, pieces in files.items():
            fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
            written.append((tmp_name, path))
            with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
                handle.writelines(pieces)
                os.fchmod(handle.fileno(), mode)
        for tmp_name, path in written:
            os.replace(tmp_name, path)
    except BaseException:
        for tmp_name, _ in written:
            try:
                os.unlink(tmp_name)
            except FileNotFoundError:
                pass
        raise
