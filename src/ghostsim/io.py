"""File formats: matrix-text maps, ASCII graymaps, patterns, configs.

matrix-text: '#'-prefixed "key = value" header lines followed by one row of
space-separated decimal values per y row; UTF-8, LF line endings. Graymaps
are ASCII portable graymaps (magic "P2"); negative values are clipped to 0
and noted in a sidecar file.

The written bytes are a contract: each matrix-text value is printf "%.17g"
of the float (so it reads back exactly, "nan", "inf" and "-0" included), each
graymap sample is "%d", values in a row are joined by single spaces, and
every line, the last included, ends in one LF. An integer array whose values
all lie within +-2**53 is written with "%d", which gives those same bytes.
Those integer bodies and every graymap body are assembled as bytes in numpy,
a block of whole rows at a time (_integer_rows), with the bytes "%d" per
value gives; float bodies are formatted a row at a time.

Readers accept exactly what Python's float() and int() accept per token, with
the same values and the same ConfigError messages; a file that is not UTF-8
text raises ConfigError naming it (_read_text). A body of plain integer
text, which the writers make of every integer array, is parsed in one numpy
call: ASCII digits, spaces and LF, a "-" only at the start of a token and
directly before a digit 1-9, and no value at either int64 limit; a
matrix-text body also needs rows of one width with single spaces between
tokens. Any other body ("%.17g" floats, "nan", "-0", "+", tabs, "1_0",
non-ASCII digits, int64 overflow, bad tokens, ragged rows, and in
matrix-text runs of spaces) is read with float() per token, a row per numpy
call, or with int() per token; every error comes from that path. The bulk
path only ever returns what that path would, or declines.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator, Optional, TextIO, Tuple, Union

import numpy as np

from .detector import CountFrame
from .errors import ConfigError, ParameterError
from .experiments import CoincidenceMap, PhasePattern, pattern_from_extent
from .grids import PIXEL_HEADER_KEYS

PGM_MAXVAL = 65535

# every integer of at most this magnitude is exactly a float64
_EXACT_INT = 2**53

_RADIANS_KEY = "values_are_radians"

_INT64 = np.iinfo(np.int64)

# the bytes of plain integer text, as save_matrix_text and save_pgm write it
_PLAIN_INTEGER_BYTES = b"0123456789 \n-"

# values per block of whole rows that _integer_rows assembles at once
_BLOCK_VALUES = 8192

_SPACE, _LF, _MINUS, _ZERO = b" \n-0"


@contextmanager
def _read_text(path: str) -> Iterator[TextIO]:
    """open(path) as UTF-8 text to read; a decoding error, wherever it is met
    inside the block, becomes a ConfigError that names the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc})") from None


# ---------------------------------------------------------------------------
# plain integer text, read by both formats
# ---------------------------------------------------------------------------


def _plain_integer_text(body: str) -> bool:
    """True when body is plain integer text, as the writers write it: it
    starts with a token and holds only ASCII digits, spaces and LF, with a
    "-" only at the start of a token and directly before a digit 1-9.

    On such text numpy's parser reads whole tokens, split as str.split()
    splits them. On other text it can differ from int() and float(): it
    reads "- 1" as -1, "1 -" as 1 0, "-0" without its sign bit and a body of
    whitespace alone as one 0.
    """
    raw = body.encode()
    if raw[:1].isspace() or raw.translate(None, _PLAIN_INTEGER_BYTES):
        return False
    if b"-" not in raw:
        return True
    view = np.frombuffer(raw, dtype=np.uint8)
    signs = np.flatnonzero(view == ord("-"))
    if signs[-1] == view.size - 1:
        return False
    after, before = view[signs + 1], view[signs - 1]
    # before[0] wraps round to the last byte when body starts with a sign
    return bool(np.all((after >= ord("1")) & (after <= ord("9")))
                and np.all((before <= ord(" ")) | (signs == 0)))


def _bulk_integers(body: str) -> Optional[np.ndarray]:
    """The integers of plain integer text as floats, parsed in one numpy
    call; None for any other body, and for one holding either int64 limit,
    where numpy saturates an overflowing token."""
    # the check's byte copy of body is freed before the arrays are made
    if not _plain_integer_text(body):
        return None
    data = np.fromstring(body, dtype=np.int64, sep=" ")
    if data.size and (data.min() == _INT64.min or data.max() == _INT64.max):
        return None
    return data.astype(float)


# ---------------------------------------------------------------------------
# matrix-text
# ---------------------------------------------------------------------------


def _format_rows(values: np.ndarray, fmt: str) -> Iterator[str]:
    """One LF-ended line per row of a 2D array, made as it is consumed: fmt
    per value, joined by single spaces."""
    row_fmt = " ".join([fmt] * values.shape[1]) + "\n"
    return (row_fmt % tuple(row.tolist()) for row in values)


def _integer_rows(values: np.ndarray) -> Iterator[bytes]:
    """The bytes of _format_rows(values, "%d") for a non-empty 2D array of
    integers within +-2**53, or of floats that hold such integers, made a
    block of whole rows (about _BLOCK_VALUES values) at a time.

    Each value of a block gets a field of its sign, the block's widest digit
    count and its separator; digits come from repeated // 10, and one
    compress keeps the sign of negative values, the digits from the first
    nonzero one (the last digit always) and the separator.
    """
    ny, nx = values.shape
    step = max(1, _BLOCK_VALUES // nx)
    for r0 in range(0, ny, step):
        # int64 before abs: abs of int8's -128 overflows in int8
        v = values[r0:r0 + step].astype(np.int64).ravel()
        a = np.abs(v)
        width = len(str(int(a.max())))
        if width <= 9:
            a = a.astype(np.int32)
        neg = v < 0
        lead = int(bool(neg.any()))
        out = np.empty((v.size, lead + width + 1), dtype=np.uint8)
        keep = np.ones(out.shape, dtype=bool)
        if lead:
            out[:, 0] = _MINUS
            keep[:, 0] = neg
        last = lead + width - 1
        for col in range(lead, last):
            np.greater_equal(a, 10 ** (last - col), out=keep[:, col])
        q = np.empty_like(a)
        for col in range(last, lead - 1, -1):
            np.floor_divide(a, 10, out=q)
            a -= q * 10
            np.add(a, _ZERO, out=out[:, col], casting="unsafe")
            a, q = q, a
        seps = out[:, -1].reshape(-1, nx)
        seps[:] = _SPACE
        seps[:, -1] = _LF
        yield np.compress(keep.ravel(), out.ravel()).tobytes()


def _exact_integers(values: np.ndarray) -> bool:
    """True when values, a non-empty array, holds integers whose every entry
    float holds exactly, so "%d" prints what "%.17g" of its float would."""
    # min and max, not abs: abs of int64's minimum overflows
    return (
        np.issubdtype(values.dtype, np.integer)
        and -_EXACT_INT <= values.min()
        and values.max() <= _EXACT_INT
    )


def _check_matrix(path: str, values: np.ndarray) -> None:
    """Raise ParameterError unless values is a non-empty 2D array."""
    if values.ndim != 2 or values.size == 0:
        raise ParameterError(f"{path}: values must be a non-empty 2D array, got {values.shape}")


def save_matrix_text(path: str, values: np.ndarray, meta: Optional[dict] = None) -> None:
    """Write a non-empty 2D array as headered rows of decimals, one row per
    y; any other shape raises ParameterError before the file is opened."""
    values = np.asarray(values)
    _check_matrix(path, values)
    meta = meta or {}
    header = "".join(f"# {key} = {meta[key]}\n" for key in sorted(meta))
    with open(path, "wb") as fh:
        fh.write(header.encode("utf-8"))
        if _exact_integers(values):
            fh.writelines(_integer_rows(values))
        else:
            fh.writelines(row.encode() for row in _format_rows(values, "%.17g"))


def load_matrix_text(path: str) -> Tuple[np.ndarray, dict]:
    """Read a matrix-text file back into (values, header dict)."""
    meta = {}
    rows = []
    linenos = []
    with _read_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if "=" in body:
                    key, _, val = body.partition("=")
                    meta[key.strip()] = val.strip()
                continue
            rows.append(line)
            linenos.append(lineno)
    if not rows:
        raise ConfigError(f"{path}: no data rows")
    values = _bulk_rows(rows)
    if values is not None:
        return values, meta
    arrays = []
    for lineno, line in zip(linenos, rows):
        try:
            arrays.append(np.array(line.split(), dtype=float))
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: non-numeric token ({exc})") from None
    width = arrays[0].size
    if any(a.size != width for a in arrays):
        raise ConfigError(f"{path}: ragged rows")
    return np.stack(arrays), meta


def _bulk_rows(rows: list) -> Optional[np.ndarray]:
    """The stripped, non-empty data rows as one float array, parsed in one
    numpy call, or None unless they are plain integer text in rows of one
    width.

    A row holds its spaces plus one tokens at most, and exactly that many
    unless spaces run together, so equal space counts and a token total of
    width times rows prove that every row holds width tokens.
    """
    # a float body is declined on its first row, before the body is joined
    if not _plain_integer_text(rows[0]):
        return None
    data = _bulk_integers("\n".join(rows))
    if data is None:
        return None
    width = rows[0].count(" ") + 1
    if data.size != width * len(rows) or any(row.count(" ") + 1 != width for row in rows):
        return None
    return data.reshape(len(rows), width)


# ---------------------------------------------------------------------------
# ASCII portable graymap
# ---------------------------------------------------------------------------


def save_pgm(path: str, values: np.ndarray) -> None:
    """Write values rescaled to [0, PGM_MAXVAL] as an ASCII graymap (magic P2).

    Negative inputs are clipped to 0; if any were present, a sidecar file
    <path>.note records how many. Non-finite values and any shape but a
    non-empty 2D array raise ParameterError before the file is opened.
    """
    # one float copy, rescaled in place in the order rint(v / top * maxval)
    gray = np.array(values, dtype=float)
    _check_matrix(path, gray)
    if not np.all(np.isfinite(gray)):
        raise ParameterError(f"{path}: a graymap needs finite values")
    clipped = int(np.count_nonzero(gray < 0))
    np.clip(gray, 0.0, None, out=gray)
    top = float(gray.max())
    if top > 0:
        gray /= top
        gray *= PGM_MAXVAL
        np.rint(gray, out=gray)
    ny, nx = gray.shape
    with open(path, "wb") as fh:
        fh.write(f"P2\n{nx} {ny}\n{PGM_MAXVAL}\n".encode())
        fh.writelines(_integer_rows(gray))
    note = path + ".note"
    if clipped:
        with open(note, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(f"{clipped} negative values clipped to 0 in {os.path.basename(path)}\n")
    elif os.path.exists(note):
        os.remove(note)


def load_pgm(path: str) -> Tuple[np.ndarray, int]:
    """Read an ASCII graymap; returns (values, maxval).

    The header must give a positive width and height and a maxval in
    [1, PGM_MAXVAL] (the format's limit), and every sample must lie in
    [0, maxval]; anything else raises ConfigError.
    """
    with _read_text(path) as fh:
        text = fh.read()
    if "#" in text:
        text = "\n".join(line.split("#", 1)[0] for line in text.split("\n"))
    head = text.split(None, 4)
    if not head or head[0] != "P2":
        raise ConfigError(f"{path}: not an ASCII graymap (magic P2 missing)")
    body = head.pop() if len(head) == 5 else ""
    try:
        nx, ny, maxval = map(int, head[1:4])
        data = _bulk_integers(body)
        if data is None:
            data = np.array(list(map(int, body.split())), dtype=float)
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"{path}: malformed graymap ({exc})") from None
    if nx < 1 or ny < 1:
        raise ConfigError(f"{path}: width and height must be positive, got {nx} {ny}")
    if not 1 <= maxval <= PGM_MAXVAL:
        raise ConfigError(f"{path}: maxval must lie in [1, {PGM_MAXVAL}], got {maxval}")
    if data.size != nx * ny:
        raise ConfigError(f"{path}: expected {nx * ny} samples, found {data.size}")
    if data.min() < 0 or data.max() > maxval:
        raise ConfigError(
            f"{path}: samples must lie in [0, {maxval}], found "
            f"{data.min():.0f} to {data.max():.0f}"
        )
    return data.reshape(ny, nx), maxval


# ---------------------------------------------------------------------------
# phase patterns
# ---------------------------------------------------------------------------


def load_pattern(
    path: str,
    phase_scale: float = np.pi,
    extent: Tuple[float, float] = (4e-3, 4e-3),
) -> PhasePattern:
    """Load a phase pattern from a graymap or a numeric matrix file.

    Gray value g maps to phase phase_scale * g / g_max, so a binary image at
    the default scale becomes a pi/0 two-region pattern. Matrix files saved by
    save_pattern carry their values in radians and are restored exactly. A
    matrix file whose header holds all four pitch_*_m/origin_*_m entries
    (save_pattern writes them) keeps that pixel geometry; any other file
    covers extent, centred on the axis. A matrix file holding a non-finite
    value or header length raises ConfigError.
    """
    with _read_text(path) as fh:
        head = fh.read(2)
    lengths = None
    if head == "P2":
        gray, maxval = load_pgm(path)
        grid = phase_scale * gray / maxval
    else:
        gray, meta = load_matrix_text(path)
        if not np.all(np.isfinite(gray)):
            raise ConfigError(f"{path}: pattern values must be finite")
        if meta.get(_RADIANS_KEY) == "true":
            grid = gray
        else:
            top = float(gray.max())
            grid = phase_scale * gray / top if top > 0 else np.zeros_like(gray)
        if all(key in meta for key in PIXEL_HEADER_KEYS):
            try:
                lengths = [float(meta[key]) for key in PIXEL_HEADER_KEYS]
            except ValueError:
                lengths = [np.nan]
            if not np.all(np.isfinite(lengths)):
                raise ConfigError(f"{path}: pitch and origin must be finite numbers")
    if lengths is not None:
        return PhasePattern(grid=grid, pitch=lengths[:2], origin=lengths[2:])
    return pattern_from_extent(grid, extent)


def save_pattern(path: str, pattern: PhasePattern) -> None:
    """Write a pattern's phase grid (radians) as matrix-text; loads back exactly."""
    save_matrix_text(path, pattern.grid, {_RADIANS_KEY: "true", **pattern.pixel_header()})


# ---------------------------------------------------------------------------
# map / frame serialization
# ---------------------------------------------------------------------------

Saveable = Union[CoincidenceMap, CountFrame]


def _values_and_meta(obj: Saveable) -> Tuple[np.ndarray, dict]:
    if isinstance(obj, CoincidenceMap):
        meta = obj.pixel_header()
        meta.update((str(key), val) for key, val in obj.meta.items())
        return obj.values, meta
    if isinstance(obj, CountFrame):
        counts = obj.counts
        if not _exact_integers(counts):
            counts = counts.astype(float)
        return counts, {str(k): v for k, v in obj.meta.items()}
    raise ParameterError(f"cannot serialize {type(obj).__name__}")


def save_map(obj: Saveable, path: str, fmt: str = "matrix-text") -> None:
    """Serialize a map or count frame as matrix-text or an ASCII graymap."""
    values, meta = _values_and_meta(obj)
    if fmt == "matrix-text":
        save_matrix_text(path, values, meta)
    elif fmt == "graymap":
        save_pgm(path, values)
    else:
        raise ParameterError(f"unknown format {fmt!r}; use matrix-text or graymap")


# ---------------------------------------------------------------------------
# flat key=value configs
# ---------------------------------------------------------------------------


def parse_config(path: str) -> dict:
    """Parse a flat key=value config file; '#' starts a comment."""
    out = {}
    with _read_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            body = line.split("#", 1)[0].strip()
            if not body:
                continue
            if "=" not in body:
                raise ConfigError(f"{path}:{lineno}: expected key = value, got {body!r}")
            key, _, val = body.partition("=")
            key = key.strip()
            val = val.strip()
            if not key:
                raise ConfigError(f"{path}:{lineno}: empty key")
            if key in out:
                raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
            out[key] = val
    return out


def write_config_echo(path: str, resolved: dict) -> None:
    """Write the fully resolved configuration, sorted, deterministic."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for key in sorted(resolved):
            fh.write(f"{key} = {resolved[key]}\n")
