"""Line input: KB, document, gold, base-sentence, bench and rule files are
all read and checked here, through `open_lines`. Every one of them skips
a line of whitespace only and a UTF-8 byte order mark opening the input,
and a JSON line may carry whitespace around its object. With
surrogateescape, a byte that is not UTF-8 fails its own line, not a whole
read-ahead block. A bad line raises InputError (or a subclass) reading
"<file>: line <n>: <message>", with "standard input" for "-"."""

import contextlib
import io
import json
import sys
from typing import Iterable, Iterator


class InputError(ValueError):
    """A line of an input is malformed; the message names the file and line."""


def _lone_surrogate(text: str) -> str | None:
    """"U+XXXX" for the first lone surrogate in `text`, else None."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError as exc:
        return f"U+{ord(text[exc.start]):04X}"
    return None


class Lines:
    """Numbered lines of a text file or a text in memory, and errors naming
    them. Iterating yields (lineno, line) from 1 for each line with a
    non-whitespace character, without its line end; the lines skipped are
    counted. A line holding an undecoded byte (a lone surrogate) raises.
    A text in memory is split as a file opened with universal newlines is:
    at LF, CR and CR LF only, not at the other line boundaries of
    `str.splitlines` (VT, FF, FS, GS, RS, NEL, U+2028, U+2029). With
    `name` None, errors read "line <n>: ..."."""
    _decoder = json.JSONDecoder()

    def __init__(self, source: str | Iterable[str], name: str | None = None,
                 error: type[InputError] = InputError):
        self._source = io.StringIO(source, newline=None) if isinstance(source, str) else source
        self.name = name
        self._error = error

    def __iter__(self) -> Iterator[tuple[int, str]]:
        for lineno, line in enumerate(self._source, start=1):
            if line.isspace():  # no lone surrogate is whitespace
                continue
            # isascii is O(1), so only lines with other characters are scanned
            if not line.isascii() and _lone_surrogate(line):
                raise self.error(lineno, "not valid UTF-8")
            yield lineno, line.removesuffix("\n")

    def error(self, lineno: int, message: str) -> InputError:
        where = f"line {lineno}" if self.name is None else f"{self.name}: line {lineno}"
        return self._error(f"{where}: {message}")

    def json_object(self, lineno: int, line: str) -> dict:
        """The JSON object on a line, whitespace around it ignored. Rejects
        invalid or too deep JSON, other values, and a lone surrogate in a
        top-level string or string list."""
        try:  # decoded in place, so an error's column is the line's own
            obj, end = self._decoder.raw_decode(line, len(line) - len(line.lstrip()))
            if rest := line[end:].lstrip():
                raise json.JSONDecodeError("Extra data", line, len(line) - len(rest))
        except (ValueError, RecursionError) as exc:
            raise self.error(lineno, f"invalid JSON: {exc}") from None
        if not isinstance(obj, dict):
            raise self.error(lineno, f"expected a JSON object, got {type(obj).__name__}")
        # the line decoded as UTF-8, so only a \u escape can make a surrogate
        if "\\u" in line:
            for field, value in obj.items():
                for text in value if isinstance(value, list) else [value]:
                    if isinstance(text, str) and (bad := _lone_surrogate(text)):
                        raise self.error(lineno, f"{field} is not valid UTF-8 text "
                                                 f"(lone surrogate {bad})")
        return obj


@contextlib.contextmanager
def open_lines(path: str, error: type[InputError] = InputError) -> Iterator[Lines]:
    """The `Lines` of the file at `path`, or of standard input for "-"; a
    byte order mark opening either is dropped."""
    if path != "-":
        with open(path, encoding="utf-8-sig", errors="surrogateescape") as fp:
            yield Lines(fp, path, error)
        return
    # detached afterwards, so closing the wrapper leaves stdin open
    fp = io.TextIOWrapper(sys.stdin.buffer, encoding="utf-8-sig", errors="surrogateescape")
    try:
        yield Lines(fp, "standard input", error)
    finally:
        fp.detach()
