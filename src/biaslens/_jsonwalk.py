"""The streamed JSON walk that the SPARQL JSON reader and ``parse_report``
share: a window over a JSON text or handle (``_JsonCursor``), the walk of
an array at the cursor one entry, or one batch of an entry pattern's
matches, at a time (``_entries``), and the translation of a failed read
into a ParseError that names its line (``located``)."""

from __future__ import annotations

import json
import re
import sys
from contextlib import contextmanager
from typing import IO, Callable, Iterator

from .errors import ParseError

_SPACE = " \t\n\r"  # JSON's four whitespace characters
_skip_space = json.decoder.WHITESPACE.match
_decode_value = json.JSONDecoder().raw_decode
_scan = json.scanner.make_scanner(json.JSONDecoder())  # (value, end) of the value at an offset
# Characters read from a handle at a time. Before each entry or member,
# the window is topped up until this many lie past the cursor.
_WINDOW = 1 << 16
# A decode that fails this close to the window's end may fail for the cut.
_LOOKAHEAD = 16
# Characters an entry pattern scans at a time: bounds the matches held at once.
_BATCH = 1 << 13
# What ``_entries`` appends to an entry pattern: the space and the comma after
# the entry, or the space before the array's "]" or before the scanned text's end.
_SEPARATED = r"[ \t\n\r]*+(?:,[ \t\n\r]*+|(?=\])|\Z)"


class _JsonCursor:
    """A position in a JSON text, kept past whitespace, and the window of the
    text around it. A handle is read once, from where it stands, in pieces of
    ``_WINDOW`` characters, and never sought; a ``str`` source is a window
    already at the end of its text. ``value``
    decodes the value at the cursor whole, and ``members`` walks the object
    there one member at a time. Offsets are into the window, ``text``:
    ``fill`` lets go of the text before an offset and counts its lines in
    ``lines``, and every other read appends, so offsets keep their meaning.
    A read that stops at the window's end, or that fails where the window's
    end may be the cause, is tried again on a longer window, until the source
    is exhausted (``more`` is false). Syntax errors are JSONDecodeErrors
    worded by the json module, whose line is counted in the window."""

    __slots__ = ("text", "pos", "lines", "limit", "more", "_source")

    def __init__(self, source: str | IO[str]):
        self._source = source
        self.text, self.more = (source, False) if isinstance(source, str) else ("", True)
        self.lines = 0
        self.pos = self.skip(self.fill(0, 0))

    def fill(self, keep: int, pos: int) -> int:
        """Let go of the text before offset ``keep``, counting its newlines,
        and read on until ``_WINDOW`` characters lie past ``pos`` or the
        source is exhausted. Offsets move back by ``keep``; the cursor moves
        to ``pos``, whose new offset is returned. ``limit`` becomes the offset
        past which the window is due to be topped up again."""
        self.lines += self.text.count("\n", 0, keep)
        self.text = self.text[keep:]
        self.pos = pos = pos - keep
        while self.more and len(self.text) - pos < _WINDOW:
            self.extend()
        self.limit = len(self.text) - _WINDOW if self.more else len(self.text)
        return pos

    def extend(self) -> None:
        """Read on by a piece, or by as much as the window holds if that is
        more, so that a long value tried again and again is read in linear time."""
        piece = self._source.read(max(_WINDOW, len(self.text)))
        self.more = bool(piece)
        self.text += piece

    def skip(self, pos: int) -> int:
        """The offset of the first non-space at or after ``pos``."""
        while (pos := _skip_space(self.text, pos).end()) == len(self.text) and self.more:
            self.extend()
        return pos

    def read(self, decode: Callable[[str, int], tuple[object, int]],
             pos: int) -> tuple[object, int]:
        """``decode(text, pos)``: the value that starts at ``pos`` and the
        offset where it ends. A value that ends at the window's end (a number
        may go on) is read again on a longer window, and so is one that fails
        within ``_LOOKAHEAD`` characters of it or as an unterminated string,
        which json locates at its start. Any other failure lies in the window
        and is raised at once, before a later byte is read. An integer too
        long for ``int()`` is a JSONDecodeError at ``pos``."""
        while True:
            try:
                value, end = decode(self.text, pos)
                if end < len(self.text) or not self.more:
                    return value, end
            except StopIteration as stop:
                if not self.more or stop.value < len(self.text) - _LOOKAHEAD:
                    raise
            except json.JSONDecodeError as exc:
                if not self.more or (exc.pos < len(self.text) - _LOOKAHEAD
                                     and not exc.msg.startswith("Unterminated string")):
                    raise
            except ValueError:  # an integer too long for int(), however it ends
                raise json.JSONDecodeError(f"integer longer than "
                                           f"{sys.get_int_max_str_digits()} digits",
                                           self.text, pos) from None
            self.extend()

    def line(self, at: int) -> int:
        """The 1-based line of offset ``at`` in the whole text."""
        return self.lines + self.text.count("\n", 0, at) + 1

    def at(self, token: str) -> bool:
        return self.text.startswith(token, self.pos)

    def value(self) -> object:
        value, end = self.read(_decode_value, self.pos)
        self.pos = self.skip(end)
        return value

    def members(self, watched: tuple[str, ...], path: str) -> Iterator[str]:
        """Yield each key of the object at the cursor, with the cursor at its
        value; the caller moves the cursor past the value before the next. The
        window is topped up before each member. A key in ``watched`` that
        comes again is a ParseError at its line."""
        since, prefix, seen = self.pos, "", set()  # where json words an error from
        pos = self.skip(since + 1)
        more = not self.text.startswith("}", pos)
        while more:
            if pos > self.limit:
                pos, since = self.fill(since, pos), 0
            key_start = pos
            if self.text.startswith('"', pos):
                key, pos = self.read(_decode_value, pos)
                pos = self.skip(pos)
            if pos == key_start or not self.text.startswith(":", pos):
                raise _syntax_error(self.text, pos, since, prefix)
            if key in seen:
                raise ParseError(f"member {key!r} is repeated", path=path,
                                 line=self.line(key_start), field=key)
            if key in watched:
                seen.add(key)
            self.pos = self.skip(pos + 1)
            yield key
            since = pos = self.pos
            prefix = '{"":0'
            if more := self.text.startswith(",", pos):
                pos = self.skip(pos + 1)
            elif not self.text.startswith("}", pos):
                raise _syntax_error(self.text, pos, since, prefix)
        self.pos = self.skip(pos + 1)


def _entries(cursor: _JsonCursor,
             walk: Callable[[_JsonCursor], tuple[object, int]] | None = None,
             pattern: str | None = None) -> Iterator[object]:
    """Yield each entry of the array at the cursor, then move the cursor past
    the array. With ``pattern``, the text of a regular expression that
    matches an object entry, compiled here with ``_SEPARATED`` after it, the
    entries it matches one after another, with the separators between them,
    are yielded as one tuple of their matches: a batch is scanned in a C
    loop over at most ``_BATCH`` characters, and an entry longer than that
    is tried once on the whole window. The first entry the pattern does
    not take ends its use: that entry and every later one are decoded by one
    call of json's C scanner or, with ``walk``, ``walk(cursor)`` reads the
    entry at the cursor and returns it and the offset where it ends. The
    cursor stands at each entry's start while it is yielded, unless ``walk``
    moved it on, so the caller can name the entry's line. The window is
    topped up before each entry or batch, so an entry shorter than
    ``_WINDOW`` is never missed for being cut off, and only the entries kept
    outlive the text."""
    if pattern:
        pattern = re.compile(f"(?:{pattern}){_SEPARATED}")
    since, prefix, first = cursor.pos, "", True  # where json words an error from
    pos = cursor.skip(since + 1)
    text = cursor.text
    while not first or not text.startswith("]", pos):  # breaks at the last entry
        first = False
        if pos > cursor.limit:
            pos, since = cursor.fill(since, pos), 0
            text = cursor.text
        cursor.pos = pos
        if pattern and (entry := _batch(pattern, text, pos)):
            end = text.rindex("}", pos, entry[-1].end()) + 1  # the last object's end
        else:
            pattern = None  # one miss, then the scanner reads the rest
            try:
                entry, end = cursor.read(_scan, pos) if walk is None else walk(cursor)
            except StopIteration as stop:  # PEP 479 would make it a RuntimeError
                raise _syntax_error(cursor.text, stop.value, since, prefix) from None
            text = cursor.text
        yield entry
        since, prefix = end, "[0"
        if text.startswith(",", end):
            pos = end + 1
        else:
            pos = cursor.skip(end)
            text = cursor.text
            if not text.startswith(",", pos):
                break
            pos += 1
        if text[pos:pos + 1] in _SPACE:  # also at the window's end
            pos = cursor.skip(pos)
            text = cursor.text
    if not text.startswith("]", pos):
        raise _syntax_error(text, pos, since, prefix)
    cursor.pos = cursor.skip(pos + 1)


def _batch(pattern: re.Pattern[str], text: str, pos: int) -> tuple[re.Match[str], ...]:
    """The matches of ``pattern``, which takes the separator after an entry
    too, one after another from ``pos`` within ``_BATCH`` characters or,
    when there are none, its one match on the whole text; () if it does not
    match at ``pos``."""
    return (tuple(iter(pattern.scanner(text, pos, pos + _BATCH).match, None))
            or ((one,) if (one := pattern.match(text, pos)) else ()))


def _syntax_error(text: str, pos: int, since: int, prefix: str) -> json.JSONDecodeError:
    """json's own error for the syntax error met at ``pos`` in an array or
    object: json decodes only the text from ``since`` on, after ``prefix``.
    ``since`` is the container's opener, after no prefix, or where the item or
    member before ends, after ``[0`` or ``{"":0`` standing in for the
    container up to there."""
    try:
        _decode_value(prefix + text[since:pos + 1])
    except json.JSONDecodeError as exc:
        return json.JSONDecodeError(exc.msg, text, exc.pos - len(prefix) + since)
    raise AssertionError("the text up to a syntax error decoded")


@contextmanager
def located(cursor: _JsonCursor, path: str) -> Iterator[None]:
    """Run a walk of the whole text at ``cursor``: text after the document is
    an "Extra data" error, and a JSONDecodeError becomes a ParseError worded
    by json at its line, counted in the window. A value nested too deeply for
    the decoder is a ParseError that names no line."""
    try:
        yield
        if cursor.pos != len(cursor.text):
            raise json.JSONDecodeError("Extra data", cursor.text, cursor.pos)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", path=path,
                         line=cursor.lines + exc.lineno) from None
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply", path=path) from None
