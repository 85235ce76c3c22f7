import contextlib
import importlib.metadata
import io as stdio
import shutil
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from ghostsim import (
    ApertureSamplingWarning,
    CoincidenceMap,
    ConfigError,
    CountFrame,
    DoubleSlit,
    GridSpec,
    ParameterError,
    ParaxialWarning,
    SourceParams,
    SourceRegimeWarning,
    build_ghost_image,
    ghost_interference_map,
    load_matrix_text,
    load_pattern,
    load_pgm,
    parse_config,
    pattern_from_extent,
    save_map,
    save_matrix_text,
    save_pattern,
    save_pgm,
    uniform_pattern,
    write_config_echo,
)
from ghostsim.cli import main

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def run_cli(argv, quiet_sampling=True):
    """Invoke the CLI in-process; returns (exit_code, stdout_text)."""
    buf = stdio.StringIO()
    with warnings.catch_warnings():
        if quiet_sampling:
            warnings.simplefilter("ignore", ApertureSamplingWarning)
        with contextlib.redirect_stdout(buf):
            code = main(argv)
    return code, buf.getvalue()


# ---------------------------------------------------------------------------
# matrix-text
# ---------------------------------------------------------------------------


def test_matrix_text_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(31)
    vals = rng.normal(size=(7, 5)) * 10.0 ** rng.integers(-12, 12, size=(7, 5))
    path = tmp_path / "m.txt"
    save_matrix_text(str(path), vals, {"alpha": 1.5, "note": "check"})
    back, meta = load_matrix_text(str(path))
    np.testing.assert_array_equal(back, vals)
    assert meta["alpha"] == "1.5"
    assert meta["note"] == "check"


def test_matrix_text_uses_lf_and_hash_headers(tmp_path):
    path = tmp_path / "m.txt"
    save_matrix_text(str(path), np.ones((2, 2)), {"k": "v"})
    raw = path.read_bytes()
    assert b"\r" not in raw
    assert raw.startswith(b"# k = v\n")


def test_matrix_text_error_diagnostics(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("1 2\n3 oops\n")
    with pytest.raises(ConfigError, match=":2:"):
        load_matrix_text(str(bad))
    ragged = tmp_path / "ragged.txt"
    ragged.write_text("1 2\n3\n")
    with pytest.raises(ConfigError, match="ragged"):
        load_matrix_text(str(ragged))
    empty = tmp_path / "empty.txt"
    empty.write_text("# only a header\n")
    with pytest.raises(ConfigError, match="no data"):
        load_matrix_text(str(empty))


# The bytes the writers must keep, as the original per-element formatting
# produced them: f"{v:.17g}" per value, str() per gray level.
def _reference_matrix_text(values, meta):
    lines = [f"# {key} = {meta[key]}" for key in sorted(meta)]
    for row in np.asarray(values):
        lines.append(" ".join(f"{v:.17g}" for v in row))
    return ("\n".join(lines) + "\n").encode()


def _reference_pgm(values, maxval=65535):
    vals = np.clip(np.asarray(values, dtype=float), 0.0, None)
    top = float(vals.max())
    gray = np.rint(vals / top * maxval).astype(int) if top > 0 else vals.astype(int)
    lines = ["P2", f"{gray.shape[1]} {gray.shape[0]}", f"{maxval}"]
    for row in gray:
        lines.append(" ".join(str(g) for g in row))
    return ("\n".join(lines) + "\n").encode()


_FORMAT_CASES = {
    "special": np.array(
        [[np.nan, np.inf, -np.inf, -0.0], [5e-324, 1 / 3, 1.2345678901234568e17, 2.0]]
    ),
    "integer": np.array([[0, 3, 17], [250_000, 1, 2**40]]),
    "signed": np.array([[5, -3], [0, -2**31]]),
    "row": np.random.default_rng(33).normal(size=(1, 9)) * 1e-7,
    "column": np.random.default_rng(34).normal(size=(9, 1)) * 1e7,
}


@pytest.mark.parametrize("case", sorted(_FORMAT_CASES))
def test_writers_keep_their_bytes_and_loaders_read_them_back(tmp_path, case):
    values = _FORMAT_CASES[case]
    txt, pgm = tmp_path / "m.txt", tmp_path / "m.pgm"
    save_matrix_text(str(txt), values, {"k": "v", "a": 1.5})
    assert txt.read_bytes() == _reference_matrix_text(values, {"k": "v", "a": 1.5})
    back, meta = load_matrix_text(str(txt))
    np.testing.assert_array_equal(back, values)
    np.testing.assert_array_equal(np.signbit(back), np.signbit(values))
    assert meta == {"a": "1.5", "k": "v"}

    finite = np.where(np.isfinite(values), values, 0)
    save_pgm(str(pgm), finite)
    want = _reference_pgm(finite)
    assert pgm.read_bytes() == want
    gray, maxval = load_pgm(str(pgm))
    levels = [line.split() for line in want.decode().splitlines()[3:]]
    np.testing.assert_array_equal(gray, np.array(levels, dtype=float))
    assert maxval == 65535


@pytest.mark.parametrize("signed", [False, True], ids=["CountFrame", "signed-CountFrame"])
def test_save_map_keeps_count_frame_bytes(tmp_path, signed):
    counts = np.array([[5, 0], [0, 2], [70_000, 1]])
    if signed:
        counts = counts - 3
    frame = CountFrame(counts=counts, meta={"seed": 4, "signal_gates": 12}, signed=signed)
    save_map(frame, str(tmp_path / "f.txt"))
    save_map(frame, str(tmp_path / "f.pgm"), fmt="graymap")
    as_float = counts.astype(float)
    assert (tmp_path / "f.txt").read_bytes() == _reference_matrix_text(as_float, frame.meta)
    assert (tmp_path / "f.pgm").read_bytes() == _reference_pgm(as_float)


def test_loader_error_messages_are_kept(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("1 2\n3 oops\n")
    with pytest.raises(ConfigError) as err:
        load_matrix_text(str(bad))
    assert str(err.value) == (
        f"{bad}:2: non-numeric token (could not convert string to float: 'oops')"
    )
    short = tmp_path / "short.pgm"
    short.write_text("P2\n2 2\n255\n1 2 3\n")
    with pytest.raises(ConfigError) as err:
        load_pgm(str(short))
    assert str(err.value) == f"{short}: expected 4 samples, found 3"
    word = tmp_path / "word.pgm"
    word.write_text("P2\n2 2\n255\n1 2 x 4\n")
    with pytest.raises(ConfigError) as err:
        load_pgm(str(word))
    assert str(err.value) == (
        f"{word}: malformed graymap (invalid literal for int() with base 10: 'x')"
    )


# The readers as they were before their bulk paths: float() and int() per
# token. The bulk readers must give the same values, bit for bit, and the
# same messages.
def _per_token_matrix_text(path):
    meta = {}
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
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
            try:
                rows.append(list(map(float, line.split())))
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: non-numeric token ({exc})") from None
    if not rows:
        raise ConfigError(f"{path}: no data rows")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ConfigError(f"{path}: ragged rows")
    return np.array(rows, dtype=float), meta


def _per_token_pgm(path):
    tokens = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            body = line.split("#", 1)[0]
            tokens.extend(body.split())
    if not tokens or tokens[0] != "P2":
        raise ConfigError(f"{path}: not an ASCII graymap (magic P2 missing)")
    try:
        nx, ny, maxval = map(int, tokens[1:4])
        data = np.array(list(map(int, tokens[4:])), dtype=float)
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"{path}: malformed graymap ({exc})") from None
    if nx < 1 or ny < 1:
        raise ConfigError(f"{path}: width and height must be positive, got {nx} {ny}")
    if not 1 <= maxval <= 65535:
        raise ConfigError(f"{path}: maxval must lie in [1, 65535], got {maxval}")
    if data.size != nx * ny:
        raise ConfigError(f"{path}: expected {nx * ny} samples, found {data.size}")
    if data.min() < 0 or data.max() > maxval:
        raise ConfigError(
            f"{path}: samples must lie in [0, {maxval}], found "
            f"{data.min():.0f} to {data.max():.0f}"
        )
    return data.reshape(ny, nx), maxval


def _outcome(reader, path):
    try:
        return reader(str(path)), None
    except ConfigError as exc:
        return None, str(exc)


def _assert_reads_like_per_token(reader, reference, path):
    """reader and reference agree on path: bit-identical values (NaN, signs of
    zero) and the other return value, or the same ConfigError message."""
    got, got_err = _outcome(reader, path)
    want, want_err = _outcome(reference, path)
    assert got_err == want_err
    if want is None:
        return want_err
    assert got[0].dtype == want[0].dtype == np.float64
    assert np.array_equal(got[0], want[0], equal_nan=True)
    assert np.array_equal(np.signbit(got[0]), np.signbit(want[0]))
    assert got[1] == want[1]
    return None


def _mc_frame():
    """A 256^2 background-subtracted count frame like the Monte Carlo's."""
    rng = np.random.default_rng(41)
    counts = rng.poisson(300, size=(256, 256)) - rng.poisson(300, size=(256, 256))
    return CountFrame(counts=counts, meta={"seed": 41, "signal_gates": 9}, signed=True)


def test_readers_match_per_token_readers_on_a_saved_frame(tmp_path):
    frame = _mc_frame()
    txt, pgm = tmp_path / "f.txt", tmp_path / "f.pgm"
    save_map(frame, str(txt))
    save_map(frame, str(pgm), fmt="graymap")
    assert _assert_reads_like_per_token(load_matrix_text, _per_token_matrix_text, txt) is None
    assert _assert_reads_like_per_token(load_pgm, _per_token_pgm, pgm) is None
    np.testing.assert_array_equal(load_matrix_text(str(txt))[0], frame.counts)


def test_load_pgm_peak_memory_stays_small(tmp_path):
    # the per-token reader held a str and an int per sample: 4.3 MB on this file
    pgm = tmp_path / "f.pgm"
    save_map(_mc_frame(), str(pgm), fmt="graymap")
    load_pgm(str(pgm))
    tracemalloc.start()
    try:
        load_pgm(str(pgm))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5e6


def test_load_matrix_text_peak_memory_stays_small(tmp_path):
    # one int64 and one float64 array of the 256^2 frame take 1.05 MB; the
    # per-token reader held a Python float per value: 2.7 MB on this file
    txt = tmp_path / "f.txt"
    save_map(_mc_frame(), str(txt))
    load_matrix_text(str(txt))
    tracemalloc.start()
    try:
        load_matrix_text(str(txt))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.0e6


# body of each graymap after its "P2\n2 2\n" header line, and the message
# both readers must give (None: it reads)
_GRAYMAP_BODIES = {
    "plain": ("255\n1 2 3 4\n", None),
    "comments between samples": ("# a\n255 # b\n1 2# c\n3 # d 9 9\n4\n", None),
    "form feed inside a comment": ("255\n1 2 # c\x0c 9\v9\n3 4\n", None),
    "tabs, CR and space runs": ("255\r\n1\t2\r\n   3 \t  4   \r\n", None),
    "lone CR line ends": ("255\r1\r2\r3\r4\r", None),
    "signed and padded tokens": ("255\n+5 007 +0 -0\n", None),
    "underscore and Arabic digit": ("255\n1_0 \u0663 0 1\n", None),
    "sign before a space": ("255\n+ 1 2 3 4\n", "malformed graymap"),
    "minus before a space": ("255\n- 0 1 2 3\n", "malformed graymap"),
    "non-breaking space": ("255\n1\xa02 3 4\n", None),
    "word": ("255\n1 2 x 4\n", "malformed graymap"),
    "decimal point": ("255\n1 2.0 3 4\n", "malformed graymap"),
    "negative sample": ("255\n1 -7 3 4\n", "found -7 to 4"),
    "sample above maxval": ("255\n1 256 3 4\n", "found 1 to 256"),
    "int64 overflow": ("255\n1 99999999999999999999 3 4\n", "found 1 to 100000000000000000000"),
    "negative int64 overflow": ("255\n1 -99999999999999999999 3 4\n", "to 4"),
    "too few samples": ("255\n1 2 3\n", "expected 4 samples, found 3"),
    "too many samples": ("255\n1 2 3 4 5\n", "expected 4 samples, found 5"),
    "no samples": ("255\n", "expected 4 samples, found 0"),
    "maxval too large": ("70000\n1 2 3 4\n", "maxval must lie"),
    "overflow beyond a bad maxval": ("99999999999999999999999\n1 99999999999999999999 3 4\n",
                                     "maxval must lie"),
}


@pytest.mark.parametrize("case", sorted(_GRAYMAP_BODIES))
def test_load_pgm_matches_per_token_reader(tmp_path, case):
    body, message = _GRAYMAP_BODIES[case]
    path = tmp_path / "g.pgm"
    path.write_text("P2\n2 2\n" + body, encoding="utf-8", newline="")
    err = _assert_reads_like_per_token(load_pgm, _per_token_pgm, path)
    if message is None:
        assert err is None
    else:
        assert message in err


@pytest.mark.parametrize(
    "text",
    ["P2\n", "P2\n2 2\n", "P2\n0 0\n255\n", "P2\n2 x\n255\n1 2 3 4\n", "P2 2 2 255 1 2 3 4"],
)
def test_load_pgm_matches_per_token_reader_on_headers(tmp_path, text):
    path = tmp_path / "g.pgm"
    path.write_text(text, encoding="utf-8", newline="")
    _assert_reads_like_per_token(load_pgm, _per_token_pgm, path)


_MATRIX_TEXTS = {
    "specials": "nan -nan inf -inf\n-0 0 1e400 -1e400\n",
    "python float spellings": "1_0 \u0663 infinity +1.5\n1e-400 4.9e-324 007 .5\n",
    "tabs, CR and headers": "# k = v\r\n1\t2\r\n\r\n  3    4 \r\n# note\n",
    "bad token on line 4": "# k = v\n1 2\n3 4\n5 oops 6\n7 8\n",
    "first bad token named": "1 x y\n",
    "ragged": "1 2\n3\n",
    "no rows": "# k = v\n\n",
    # integer text, which the bulk path reads or leaves to float() per token
    "minus zero": "1 -0\n2 3\n",
    "signed leading zeros": "-007 1\n2 3\n",
    "leading zeros": "007 1\n2 3\n",
    "sign before a space": "1 - 1\n2 3\n",
    "sign inside a token": "1-2 3\n4 5\n",
    "two signs": "--1 2\n3 4\n",
    "trailing sign": "1 2\n3 -\n",
    "2**53 + 1": "9007199254740993 1\n-9007199254740993 2\n",
    "int64 overflow": "99999999999999999999 1\n2 3\n",
    "negative int64 overflow": "-99999999999999999999 1\n2 3\n",
    "double space": "1  2\n3  4\n",
    "tab": "1\t2\n3 4\n",
    "header between rows": "1 -2\n# k = v\n-3 4\n",
    "ragged rows of an even total": "1 2 3\n4\n5 6\n",
    "ragged rows of the first row's width": "1 2\n3\n4 5 6\n",
}


@pytest.mark.parametrize("case", sorted(_MATRIX_TEXTS))
def test_load_matrix_text_matches_per_token_reader(tmp_path, case):
    path = tmp_path / "m.txt"
    path.write_text(_MATRIX_TEXTS[case], encoding="utf-8", newline="")
    _assert_reads_like_per_token(load_matrix_text, _per_token_matrix_text, path)


def test_load_matrix_text_names_the_line_and_token(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text(_MATRIX_TEXTS["bad token on line 4"])
    with pytest.raises(ConfigError) as err:
        load_matrix_text(str(path))
    assert str(err.value) == (
        f"{path}:4: non-numeric token (could not convert string to float: 'oops')"
    )


_BULK_FRAMES = {
    "Monte Carlo frame": _mc_frame().counts,
    "first value negative": np.array([[-5, 3], [0, -1]]),
    "at 2**53": np.array([[-(2**53), 2**53], [10, -10]]),
}


@pytest.mark.parametrize("case", sorted(_BULK_FRAMES))
def test_written_integer_frames_are_read_in_bulk(tmp_path, monkeypatch, case):
    from ghostsim import io as gio

    counts = _BULK_FRAMES[case]
    txt, pgm = tmp_path / "f.txt", tmp_path / "f.pgm"
    save_matrix_text(str(txt), counts)
    save_pgm(str(pgm), counts)
    bulk, parsed = gio._bulk_integers, []
    monkeypatch.setattr(gio, "_bulk_integers", lambda body: parsed.append(bulk(body)) or parsed[-1])
    np.testing.assert_array_equal(load_matrix_text(str(txt))[0], counts)
    load_pgm(str(pgm))
    assert len(parsed) == 2 and all(data is not None for data in parsed)


def test_bulk_integers_read_like_int_per_token_or_decline():
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from ghostsim.io import _bulk_integers

    pieces = ["0", "1", "7", "-", "+", " ", "  ", "\n", "\t", "x", "_", "\u0663",
              "99999999999999999999", "9223372036854775807", "-9223372036854775808"]

    @settings(derandomize=True, deadline=None, max_examples=400)
    @given(st.lists(st.sampled_from(pieces), max_size=10).map("".join))
    def check(body):
        got = _bulk_integers(body)
        if got is None:
            return
        for parse in (int, float):
            want = np.array(list(map(parse, body.split())), dtype=float)
            assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))

    check()


_INT64 = np.iinfo(np.int64)
_INTEGER_ARRAYS = {
    "small": np.array([[0, 1, -1], [7, -250_000, 3]]),
    "at 2**53": np.array([[2**53, -(2**53)], [0, 1]]),
    "beyond 2**53": np.array([[2**53 + 1, -(2**53 + 1)], [0, 1]]),
    "int64 extremes": np.array([[_INT64.min, _INT64.max], [0, -1]], dtype=np.int64),
    # np.abs of int64's minimum overflows to itself
    "int64 minimum alone": np.array([[_INT64.min, 0]], dtype=np.int64),
    "uint64 max": np.array([[np.iinfo(np.uint64).max, 0]], dtype=np.uint64),
    "int8": np.array([[-128, 127]], dtype=np.int8),
    "uint16": np.array([[65535, 0]], dtype=np.uint16),
}


@pytest.mark.parametrize("case", sorted(_INTEGER_ARRAYS))
def test_integer_matrix_text_bytes_match_their_floats(tmp_path, case):
    values = _INTEGER_ARRAYS[case]
    path = tmp_path / "m.txt"
    save_matrix_text(str(path), values, {"k": "v"})
    assert path.read_bytes() == _reference_matrix_text(values.astype(float), {"k": "v"})
    frame = tmp_path / "f.txt"
    save_map(CountFrame(counts=values, meta={"k": "v"}, signed=True), str(frame))
    assert frame.read_bytes() == path.read_bytes()


# ---------------------------------------------------------------------------
# integer bodies: _integer_rows against "%d" per value
# ---------------------------------------------------------------------------


def _assert_integer_rows_match_percent_d(values):
    from ghostsim.io import _format_rows, _integer_rows

    want = "".join(_format_rows(values, "%d")).encode()
    assert b"".join(_integer_rows(values)) == want


def _edge_integers(dtype):
    """0, the dtype's limits within +-2**53, and 10**k - 1, 10**k and
    -10**k for every k the dtype holds."""
    info = np.iinfo(dtype)
    lo, hi = max(int(info.min), -(2**53)), min(int(info.max), 2**53)
    edges = {0, lo, hi}
    for k in range(17):
        edges.update({10**k - 1, 10**k, -(10**k), 1 - 10**k})
    return np.array(sorted(v for v in edges if lo <= v <= hi), dtype=dtype), lo, hi


_KERNEL_DTYPES = [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64]


@pytest.mark.parametrize("dtype", _KERNEL_DTYPES, ids=lambda d: np.dtype(d).name)
def test_integer_rows_match_percent_d_for_every_dtype(dtype):
    edges, lo, hi = _edge_integers(dtype)
    rng = np.random.default_rng(27)
    # magnitudes spread over every digit count the dtype holds
    scale = 10.0 ** rng.uniform(0, np.log10(hi), size=300)
    sign = rng.choice([-1, 1], size=300) if lo < 0 else 1
    draws = np.clip(np.round(sign * scale * rng.random(300)), lo, hi)
    values = np.concatenate([edges, draws.astype(np.int64).astype(dtype)])
    _assert_integer_rows_match_percent_d(np.resize(values, (37, 11)))
    _assert_integer_rows_match_percent_d(edges[None, :])


@pytest.mark.parametrize("dtype", [np.int64, np.uint64], ids=["int64", "uint64"])
def test_integer_rows_match_percent_d_at_2_53(dtype):
    top = np.array([2**53, 2**53 - 1, 0, 1], dtype=dtype)
    if dtype is np.int64:
        top = np.concatenate([top, -top])
    _assert_integer_rows_match_percent_d(np.resize(top, (3, 5)))


_KERNEL_SHAPES = {
    "all zero": np.zeros((6, 7), dtype=np.int64),
    "1x1": np.array([[-7]]),
    "1x1 zero": np.array([[0]]),
    "1xN wider than a block": np.arange(-10_000, 10_001)[None, :],
    "Nx1 longer than a block": np.arange(-10_000, 10_001)[:, None],
    # 256 columns run 32 rows a block; 300 run 27
    "rows not a multiple of the block": np.arange(101 * 256).reshape(101, 256) - 12_000,
    "width not dividing the block": np.arange(-45_000, 45_000).reshape(300, 300),
    "signs in some blocks only": np.arange(-300, 100 * 256 - 300).reshape(100, 256)[::-1],
}


@pytest.mark.parametrize("case", sorted(_KERNEL_SHAPES))
def test_integer_rows_match_percent_d_for_every_shape(case):
    _assert_integer_rows_match_percent_d(_KERNEL_SHAPES[case])


@pytest.mark.parametrize("view", ["fortran", "transpose", "strided"])
def test_integer_rows_match_percent_d_on_views(view):
    base = np.random.default_rng(8).integers(-(10**6), 10**6, size=(150, 91))
    values = {
        "fortran": np.asfortranarray(base),
        "transpose": base.T,
        "strided": base[::2, ::3],
    }[view]
    _assert_integer_rows_match_percent_d(values)


def test_integer_rows_match_percent_d_property(monkeypatch):
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings
    from hypothesis import strategies as st
    from hypothesis.extra import numpy as hnp

    from ghostsim import io as gio

    def arrays(dtype):
        info = np.iinfo(dtype)
        elements = st.integers(max(int(info.min), -(2**53)), min(int(info.max), 2**53))
        shape = hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=24)
        return hnp.arrays(dtype, shape, elements=elements)

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(st.sampled_from(_KERNEL_DTYPES).flatmap(arrays),
           st.sampled_from(["C", "F", "T", "strided"]), st.integers(1, 64))
    def check(values, layout, block):
        # small blocks put block boundaries inside these small arrays
        monkeypatch.setattr(gio, "_BLOCK_VALUES", block)
        values = {"C": values, "F": np.asfortranarray(values), "T": values.T,
                  "strided": values[::2, ::-1]}[layout]
        _assert_integer_rows_match_percent_d(values)

    check()


def test_save_pgm_leaves_the_callers_array_unchanged(tmp_path):
    values = np.array([[3.0, -1.5], [0.25, 7.0]])
    kept = values.copy()
    save_pgm(str(tmp_path / "g.pgm"), values)
    np.testing.assert_array_equal(values, kept)


def _peak_bytes(write):
    write()
    tracemalloc.start()
    try:
        write()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_integer_frame_writers_peak_memory_stays_small(tmp_path):
    # blocks keep the text writer at O(block); the graymap holds one float
    # copy of the 8.4 MB frame (four float temporaries peaked at 32 MB)
    rng = np.random.default_rng(13)
    counts = rng.poisson(300, size=(1024, 1024)) - rng.poisson(300, size=(1024, 1024))
    frame = CountFrame(counts=counts, meta={"seed": 13}, signed=True)
    txt, pgm = str(tmp_path / "f.txt"), str(tmp_path / "f.pgm")
    assert _peak_bytes(lambda: save_map(frame, txt)) < 1e6
    assert _peak_bytes(lambda: save_map(frame, pgm, fmt="graymap")) < 17e6


# ---------------------------------------------------------------------------
# graymaps
# ---------------------------------------------------------------------------


def test_pgm_round_trip(tmp_path):
    vals = np.array([[0.0, 0.5], [0.25, 1.0]])
    path = tmp_path / "g.pgm"
    save_pgm(str(path), vals)
    back, maxval = load_pgm(str(path))
    assert maxval == 65535
    np.testing.assert_allclose(back / maxval, vals, atol=0.5 / 65535)
    assert path.read_text().startswith("P2\n2 2\n65535\n")


def test_pgm_negative_clipping_writes_sidecar(tmp_path):
    path = tmp_path / "g.pgm"
    save_pgm(str(path), np.array([[1.0, -2.0]]))
    note = tmp_path / "g.pgm.note"
    assert note.exists()
    assert "1 negative" in note.read_text()
    back, maxval = load_pgm(str(path))
    np.testing.assert_array_equal(back, [[maxval, 0]])
    # a later all-positive save clears the stale note
    save_pgm(str(path), np.array([[1.0, 2.0]]))
    assert not note.exists()


@pytest.mark.parametrize(
    "values", [[[np.nan, 1.0], [0.5, 0.0]], [[np.inf, 1.0]], [[-np.inf, 1.0]]]
)
def test_pgm_writer_rejects_non_finite_values(tmp_path, values):
    path = tmp_path / "g.pgm"
    with pytest.raises(ParameterError, match="finite"):
        save_pgm(str(path), np.array(values))
    assert list(tmp_path.iterdir()) == []


NOT_A_MATRIX = {
    "int 1D": np.arange(3),
    "float 1D": np.arange(3.0),
    "3D": np.zeros((2, 2, 2)),
    "no rows": np.zeros((0, 3)),
    "no columns": np.zeros((3, 0)),
}


@pytest.mark.parametrize("writer", [save_matrix_text, save_pgm], ids=["matrix-text", "pgm"])
@pytest.mark.parametrize("values", NOT_A_MATRIX.values(), ids=NOT_A_MATRIX.keys())
def test_writers_refuse_what_is_not_a_non_empty_2d_array(tmp_path, writer, values):
    path = tmp_path / "out"
    with pytest.raises(ParameterError, match="non-empty 2D array"):
        writer(str(path), values)
    assert list(tmp_path.iterdir()) == []


def test_pgm_loader_rejects_truncated_and_foreign_files(tmp_path):
    bad = tmp_path / "bad.pgm"
    bad.write_text("P2\n2 2\n255\n1 2 3\n")
    with pytest.raises(ConfigError, match="expected 4 samples"):
        load_pgm(str(bad))
    other = tmp_path / "other.pgm"
    other.write_text("P5\n2 2\n255\n")
    with pytest.raises(ConfigError, match="P2"):
        load_pgm(str(other))


_BAD_GRAYMAPS = {
    "negative size": ("P2\n-2 -2\n255\n1 2 3 4\n", "width and height must be positive"),
    "zero maxval": ("P2\n2 2\n0\n0 0 0 0\n", r"maxval must lie in \[1, 65535\], got 0"),
    "sample above maxval": ("P2\n2 2\n255\n0 999 0 0\n", r"samples must lie in \[0, 255\]"),
}


@pytest.mark.parametrize("case", sorted(_BAD_GRAYMAPS))
def test_pgm_loader_rejects_what_its_header_does_not_allow(tmp_path, case):
    body, match = _BAD_GRAYMAPS[case]
    path = tmp_path / "bad.pgm"
    path.write_text(body)
    with warnings.catch_warnings():
        # maxval 0 used to reach load_pattern's division by zero
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match=match):
            load_pgm(str(path))
        with pytest.raises(ConfigError, match=match):
            load_pattern(str(path))


# ---------------------------------------------------------------------------
# phase-pattern files
# ---------------------------------------------------------------------------


def test_load_pattern_from_binary_graymap(tmp_path):
    path = tmp_path / "pat.pgm"
    path.write_text("P2\n# a comment\n4 2\n255\n0 0 255 255\n0 0 255 255\n")
    pat = load_pattern(str(path), extent=(4e-3, 2e-3))
    np.testing.assert_allclose(pat.grid, [[0, 0, np.pi, np.pi]] * 2, atol=1e-12)
    assert pat.pitch[0] == pytest.approx(1e-3)
    assert pat.pitch[1] == pytest.approx(1e-3)


def test_load_pattern_all_zero_graymap_is_flat(tmp_path):
    path = tmp_path / "flat.pgm"
    path.write_text("P2\n2 2\n255\n0 0 0 0\n")
    pat = load_pattern(str(path))
    np.testing.assert_array_equal(pat.grid, np.zeros((2, 2)))


def test_pattern_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(32)
    pat = uniform_pattern(n=6)
    pat = pat.__class__(
        grid=rng.uniform(-np.pi, np.pi, size=(6, 6)),
        pitch=pat.pitch,
        origin=pat.origin,
    )
    path = tmp_path / "pat.txt"
    save_pattern(str(path), pat)
    back = load_pattern(str(path), extent=(4e-3, 4e-3))
    np.testing.assert_array_equal(back.grid, pat.grid)


def test_pattern_round_trip_keeps_its_pixels(tmp_path):
    # loading used to rebuild the pixels from the default 4 x 4 mm extent:
    # pitch (6.25e-5, 1.25e-4) here
    grid = np.arange(32 * 64).reshape(32, 64) % 3 * 0.5
    pat = pattern_from_extent(grid, (4e-3, 2e-3), center=(1e-3, 0.0))
    path = tmp_path / "pat.txt"
    save_pattern(str(path), pat)
    back = load_pattern(str(path))
    np.testing.assert_array_equal(back.grid, pat.grid)
    assert back.pitch == pat.pitch == (6.25e-5, 6.25e-5)
    assert back.origin == pat.origin


def test_load_pattern_rejects_a_non_finite_pixel_header(tmp_path):
    path = tmp_path / "bad.txt"
    save_pattern(str(path), uniform_pattern(n=2))
    path.write_text(path.read_text().replace("pitch_x_m = ", "pitch_x_m = nan#"))
    with pytest.raises(ConfigError, match="bad.txt: pitch and origin must be finite"):
        load_pattern(str(path))


def test_load_pattern_scales_foreign_matrix_by_its_max(tmp_path):
    path = tmp_path / "levels.txt"
    path.write_text("0 1\n2 4\n")
    pat = load_pattern(str(path), phase_scale=np.pi)
    np.testing.assert_allclose(pat.grid, np.pi / 4 * np.array([[0, 1], [2, 4]]))


@pytest.mark.parametrize(
    "text",
    ["1 nan\n0 1\n", "1 0\ninf 1\n", "# values_are_radians = true\n1 nan\n0 1\n"],
    ids=["scaled nan", "scaled inf", "radians nan"],
)
def test_load_pattern_rejects_non_finite_values(tmp_path, text):
    # a NaN maximum used to make top > 0 false, so the pattern came back blank
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(ConfigError, match="bad.txt: pattern values must be finite"):
        load_pattern(str(path))


# ---------------------------------------------------------------------------
# map serialization
# ---------------------------------------------------------------------------


def _small_fringe_map():
    params = SourceParams(wavelength=810e-9, sigma=3e-3, s1=1.33, s2=1.0)
    grid = GridSpec(nx=256, ny=3, extent_x=6e-3, extent_y=0.3e-3)
    return ghost_interference_map(params, DoubleSlit(d=2e-3), grid)


def test_save_map_matrix_text_headers(tmp_path):
    cmap = _small_fringe_map()
    path = tmp_path / "map.txt"
    save_map(cmap, str(path))
    vals, meta = load_matrix_text(str(path))
    np.testing.assert_allclose(vals, cmap.values, rtol=1e-15)
    assert float(meta["pitch_x_m"]) == pytest.approx(cmap.pitch[0])
    assert float(meta["origin_y_m"]) == pytest.approx(cmap.origin[1])
    assert float(meta["raw_peak"]) == pytest.approx(cmap.meta["raw_peak"])


def test_save_map_graymap_keeps_fringes_countable(tmp_path):
    cmap = _small_fringe_map()
    path = tmp_path / "map.pgm"
    save_map(cmap, str(path), fmt="graymap")
    gray, _ = load_pgm(str(path))
    x = cmap.x_centers()
    row = gray[1]
    interior = (x > -2e-3) & (x < 2e-3)
    peaks = (
        (row[1:-1] > row[:-2]) & (row[1:-1] >= row[2:]) & interior[1:-1]
    ).sum()
    assert peaks >= 3


def test_save_map_signed_frame_and_unknown_format(tmp_path):
    frame = CountFrame(
        counts=np.array([[5, -3], [0, 2]]), meta={"seed": 1}, signed=True
    )
    save_map(frame, str(tmp_path / "f.txt"))
    vals, meta = load_matrix_text(str(tmp_path / "f.txt"))
    np.testing.assert_array_equal(vals, [[5, -3], [0, 2]])
    assert meta["seed"] == "1"
    save_map(frame, str(tmp_path / "f.pgm"), fmt="graymap")
    assert (tmp_path / "f.pgm.note").exists()
    with pytest.raises(ParameterError):
        save_map(frame, str(tmp_path / "f.bin"), fmt="binary")


def test_geometry_header_bytes_are_kept(tmp_path):
    # pitch and origin are written as "%.17g" of the floats
    pat = pattern_from_extent(np.zeros((3, 5)), (3e-3, 2e-3), center=(1e-3, -0.5e-3))
    save_pattern(str(tmp_path / "p.txt"), pat)
    grid = GridSpec(nx=7, ny=3, extent_x=6e-3, extent_y=0.3e-3, center=(0.1e-3, 0.0))
    cmap = CoincidenceMap(
        values=np.ones((3, 7)), pitch=grid.pitch, origin=grid.origin, meta={"raw_peak": 1.0}
    )
    save_map(cmap, str(tmp_path / "m.txt"))

    def header(name):
        lines = (tmp_path / name).read_bytes().splitlines(keepends=True)
        return b"".join(line for line in lines if line.startswith(b"#"))

    assert header("p.txt") == (
        b"# origin_x_m = -0.00019999999999999998\n"
        b"# origin_y_m = -0.0011666666666666668\n"
        b"# pitch_x_m = 0.00060000000000000006\n"
        b"# pitch_y_m = 0.00066666666666666664\n"
        b"# values_are_radians = true\n"
    )
    assert header("m.txt") == (
        b"# origin_x_m = -0.0024714285714285715\n"
        b"# origin_y_m = -9.9999999999999991e-05\n"
        b"# pitch_x_m = 0.00085714285714285721\n"
        b"# pitch_y_m = 9.9999999999999991e-05\n"
        b"# raw_peak = 1.0\n"
    )


# ---------------------------------------------------------------------------
# config files
# ---------------------------------------------------------------------------


def test_parse_config_values_and_comments(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("# run\nnx = 96\n\nsigma=3e-3  # inline\n")
    assert parse_config(str(path)) == {"nx": "96", "sigma": "3e-3"}


def test_parse_config_diagnostics(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("nx 96\n")
    with pytest.raises(ConfigError, match=":1:"):
        parse_config(str(path))
    path.write_text("nx = 96\nnx = 128\n")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config(str(path))
    path.write_text("= 5\n")
    with pytest.raises(ConfigError, match="empty key"):
        parse_config(str(path))


@pytest.mark.parametrize("reader, body", [
    (parse_config, b"nx = 16  # Gr\xf6\xdfe\n"),
    (load_matrix_text, b"1 2\n3 \xff\n"),
    (load_pgm, b"P2\n1 1\n255\n\xfe\n"),
    (load_pattern, b"P5\n2 2\n255\n\xff\x00\x80\xfe"),
])
def test_readers_name_a_file_that_is_not_utf8(tmp_path, reader, body):
    path = tmp_path / "foreign.txt"
    path.write_bytes(body)
    with pytest.raises(ConfigError, match=r"foreign\.txt: not UTF-8 text \('utf-8' codec"):
        reader(str(path))


def test_config_echo_is_sorted_and_deterministic(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    write_config_echo(str(a), {"zeta": 1, "alpha": 2.5})
    write_config_echo(str(b), {"alpha": 2.5, "zeta": 1})
    assert a.read_bytes() == b.read_bytes()
    assert a.read_text() == "alpha = 2.5\nzeta = 1\n"


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------


def test_cli_chsh_default_and_visibility():
    code, out = run_cli(["chsh"])
    assert code == 0
    assert out.strip() == "S = -2.8284"
    code, out = run_cli(["chsh", "--visibility", "0.9086"])
    assert code == 0
    assert out.strip() == "S = -2.5699"


def test_cli_chsh_reads_config(tmp_path):
    cfg = tmp_path / "bell.cfg"
    cfg.write_text("visibility = 0.5\n")
    code, out = run_cli(["chsh", "--config", str(cfg)])
    assert code == 0
    assert out.strip() == f"S = {-np.sqrt(2):.4f}"


def test_cli_interference_outputs_and_determinism(tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    for out in (out1, out2):
        code, _ = run_cli(["interference", "--out", str(out)])
        assert code == 0
    for name in ("interference.txt", "interference.pgm", "interference_config.txt"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    vals, meta = load_matrix_text(str(out1 / "interference.txt"))
    assert vals.shape == (128, 512)
    assert meta["slit_axis"] == "x"


def test_cli_image_precedence_and_echo(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("pattern_n = 48\nnx = 96\nny = 96\nnodes = 512\nexposure = 5\n")
    out = tmp_path / "img"
    code, _ = run_cli(
        ["image", "--config", str(cfg), "--nx", "128", "--out", str(out)]
    )
    assert code == 0
    echo = parse_config(str(out / "image_config.txt"))
    assert echo["nx"] == "128"          # flag beats config
    assert echo["ny"] == "96"           # config beats default
    assert echo["pattern_n"] == "48"
    assert float(echo["telescope_scale"]) == pytest.approx(0.87 / 1.1278195488721807)
    vals, meta = load_matrix_text(str(out / "image.txt"))
    assert vals.shape == (96, 128)
    assert float(meta["total_scale"]) == pytest.approx(0.87)


def test_cli_rejects_unknown_and_malformed_config(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("sigm = 3e-3\n")
    code, _ = run_cli(["image", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 2
    cfg.write_text("sigma 3e-3\n")
    code, _ = run_cli(["image", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 2
    cfg.write_text("nx = big\n")
    code, _ = run_cli(["image", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == 2


@pytest.mark.parametrize(
    "key", ["pump_waist", "gate_width", "gate_delay", "object_distance", "image_distance"]
)
def test_cli_rejects_removed_inert_keys(tmp_path, capsys, key):
    # the pump waist and the gate width and delay changed no output and are
    # gone; the lens distances are derived from s1 + s2 and the focal length
    cfg = tmp_path / "old.cfg"
    cfg.write_text(f"{key} = 1e-9\n")
    err = _fails_fast(["montecarlo", "--config", str(cfg)], tmp_path / "cfg", capsys)
    assert f"unknown configuration key '{key}'" in err
    flag = "--" + key.replace("_", "-")
    err = _fails_fast(["montecarlo", flag, "1e-9"], tmp_path / "flag", capsys)
    assert err == f"error: unrecognized arguments: {flag} 1e-9\n"


def test_cli_shared_config_drives_image_and_montecarlo(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "pattern_n = 48\nnx = 64\nny = 64\nnodes = 512\nexposure = 5\nseed = 9\n"
    )
    code, _ = run_cli(["image", "--config", str(cfg), "--out", str(tmp_path / "a")])
    assert code == 0
    code, _ = run_cli(["montecarlo", "--config", str(cfg), "--out", str(tmp_path / "b")])
    assert code == 0
    counts, meta = load_matrix_text(str(tmp_path / "b" / "montecarlo.txt"))
    assert counts.shape == (64, 64)
    assert meta["seed"] == "9"
    assert float(meta["signal_gates"]) > 0


def test_cli_montecarlo_worker_invariance(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("pattern_n = 32\nnx = 48\nny = 48\nnodes = 512\nexposure = 2\n")
    outs = []
    for tag, workers in (("w1", "1"), ("w4", "4")):
        out = tmp_path / tag
        code, _ = run_cli(
            ["montecarlo", "--config", str(cfg), "--workers", workers, "--out", str(out)]
        )
        assert code == 0
        outs.append(out)
    assert (outs[0] / "montecarlo.txt").read_bytes() == (outs[1] / "montecarlo.txt").read_bytes()


def test_cli_amplitude_matches_library(tmp_path):
    from ghostsim import closed_form_amplitude

    out = tmp_path / "amp"
    code, _ = run_cli(["amplitude", "--samples", "9", "--out", str(out)])
    assert code == 0
    table, meta = load_matrix_text(str(out / "amplitude.txt"))
    assert table.shape == (9, 4)
    assert meta["columns"] == "x1 re im abs"
    assert meta["quadrature_nodes"] == "0"
    p = SourceParams(wavelength=810e-9, sigma=3e-3, s1=1.33, s2=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        want = closed_form_amplitude(p, table[:, 0], 0.0, 0.0, 0.0)
    np.testing.assert_allclose(table[:, 1] + 1j * table[:, 2], want, rtol=1e-12)
    np.testing.assert_allclose(table[:, 3], np.abs(want), rtol=1e-12)


def test_cli_amplitude_oracle_reports_its_node_count(tmp_path):
    # the sized count depends on the line's ends only, so 9 samples over the
    # default extent take the 879 of the default 201
    out = tmp_path / "amp"
    code, _ = run_cli(["amplitude", "--samples", "9", "--oracle", "1", "--out", str(out)])
    assert code == 0
    table, meta = load_matrix_text(str(out / "amplitude.txt"))
    assert meta["quadrature_nodes"] == "879"
    assert table.shape == (9, 4)


def test_cli_oracle_reports_unconverged_nodes(tmp_path, monkeypatch):
    from ghostsim import biphoton

    # 64 steps do not resolve the default source's chirp: the table is
    # still written, and the miss is reported
    monkeypatch.setattr(biphoton, "oracle_nodes", lambda *args: 64)
    argv = ["amplitude", "--oracle", "1", "--out", str(tmp_path)]
    with pytest.warns(ApertureSamplingWarning, match="refining 64 -> 80 nodes"):
        code, _ = run_cli(argv, quiet_sampling=False)
    assert code == 0


def test_cli_oracle_resolves_a_sigma_40mm_source(tmp_path):
    # 2048 Gauss-Legendre nodes left |Phi| at 0.41 where the closed form
    # gives 0.999; the sized count (146,933) passes its check, and only the
    # source's regime warning is left
    tables = []
    for oracle in ("0", "1"):
        out = tmp_path / oracle
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _ = run_cli(["amplitude", "--sigma", "0.04", "--oracle", oracle,
                               "--out", str(out)], quiet_sampling=False)
        assert code == 0
        assert {w.category.__name__ for w in caught} == {"SourceRegimeWarning"}
        tables.append(load_matrix_text(str(out / "amplitude.txt")))
    (closed, _), (oracle, meta) = tables
    assert meta["quadrature_nodes"] == "146933"
    assert np.max(np.abs(oracle - closed)) <= 1e-11 * np.max(closed[:, 3])


@pytest.mark.parametrize("argv, message", [
    (["--oracle", "2"], "oracle must be 0 or 1, got 2"),
    (["--oracle=-1"], "oracle must be 0 or 1, got -1"),
    (["--extent=-1"], "extent must be finite and > 0, got -1.0"),
    (["--extent", "0"], "extent must be finite and > 0, got 0.0"),
    (["--extent", "nan"], "extent must be finite and > 0, got nan"),
    (["--oracle", "1", "--extent", "inf"], "extent must be finite and > 0, got inf"),
], ids=" ".join)
def test_cli_amplitude_checks_its_keys_before_any_work(
    tmp_path, capsys, monkeypatch, argv, message
):
    import ghostsim.cli as cli

    def no_amplitude(*args, **kwargs):
        raise AssertionError("an amplitude was computed with a bad key")

    # --oracle 2 and -1 ran the oracle and echoed them; --extent -1 wrote a
    # reversed line, and --extent nan blamed the closed form
    monkeypatch.setattr(cli, "closed_form_amplitude", no_amplitude)
    monkeypatch.setattr(cli, "quadrature_oracle_amplitude", no_amplitude)
    err = _fails_fast(["amplitude", *argv], tmp_path / "amp", capsys)
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("key", ["--fixed", "--x2"])
def test_cli_oracle_refuses_a_non_finite_point(tmp_path, capsys, key):
    # refused before the count is sized, whose bandwidth would be NaN
    err = _fails_fast(["amplitude", "--oracle", "1", key, "nan"], tmp_path / "amp", capsys)
    assert err == "error: the oracle's points must be finite\n"


@pytest.mark.parametrize("argv", [
    ["interference"], ["image"], ["montecarlo"], ["amplitude"],
    ["amplitude", "--oracle", "1"], ["chsh"],
], ids=lambda argv: "-".join(argv))
def test_every_subcommand_runs_warning_free_at_its_defaults(tmp_path, argv):
    # the oracle's node check runs on every call; at the defaults it passes
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _ = run_cli(argv + ["--out", str(tmp_path)], quiet_sampling=False)
    assert code == 0
    assert [str(w.message) for w in caught] == []


def _fails_fast(argv, out, capsys):
    """Run the CLI in-process: exit 2, an error line, and no file written."""
    code, stdout = run_cli(argv + ["--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err
    assert stdout == ""
    assert not out.exists() or not any(out.iterdir())
    return err


def test_cli_interference_rejects_a_slit_narrower_than_the_wavelength(tmp_path, capsys):
    err = _fails_fast(["interference", "--slit-width", "1e-12"], tmp_path / "int", capsys)
    assert err == ("error: slit width 1e-12 m is below the wavelength 8.1e-07 m, "
                   "outside the scalar model\n")


@pytest.mark.parametrize("width", ["0", "0.5e-3"])
def test_cli_interference_refuses_a_map_that_is_zero_everywhere(tmp_path, capsys, width):
    # it wrote an all-zero map and exited 0
    argv = ["interference", "--slit-center", "0.3", "--slit-width", width]
    with pytest.warns(ParaxialWarning):
        err = _fails_fast(argv, tmp_path / "int", capsys)
    assert err.startswith("error: interference map is zero at every pixel")


@pytest.mark.parametrize("argv", [
    ["image", "--nodes", "-5"],
    ["image", "--telescope-scale", "-2"],
    ["image", "--extent-x", "-1"],
    ["image", "--extent-y=-1e-3"],
    ["montecarlo", "--extent-x", "-1"],
], ids=" ".join)
def test_cli_rejects_a_negative_derived_value_before_any_map(
    tmp_path, capsys, monkeypatch, argv
):
    import ghostsim.cli as cli

    def no_maps(*args, **kwargs):
        raise AssertionError("a map was computed with a negative derived value")

    # each used to run, as if 0 (derive) had been given
    monkeypatch.setattr(cli, "ghost_image_map", no_maps)
    monkeypatch.setattr(cli, "quadrature_oracle_amplitude", no_maps)
    err = _fails_fast(argv, tmp_path / argv[0], capsys)
    assert "must be >= 0 (0 derives it)" in err


def test_cli_closed_form_amplitude_refuses_a_node_count(tmp_path, capsys, monkeypatch):
    import ghostsim.cli as cli

    def no_amplitude(*args, **kwargs):
        raise AssertionError("the closed form ran with a node count it ignores")

    # amplitude has no nodes key: the oracle sizes its own rule
    monkeypatch.setattr(cli, "closed_form_amplitude", no_amplitude)
    err = _fails_fast(["amplitude", "--nodes", "128"], tmp_path / "amp", capsys)
    assert err == "error: unrecognized arguments: --nodes 128\n"


def test_cli_oracle_takes_no_node_count(tmp_path, capsys, monkeypatch):
    import ghostsim.cli as cli

    def no_amplitude(*args, **kwargs):
        raise AssertionError("the oracle ran with a node count")

    # the oracle sizes its own rule; amplitude has no nodes key
    monkeypatch.setattr(cli, "quadrature_oracle_amplitude", no_amplitude)
    argv = ["amplitude", "--oracle", "1", "--nodes", "64"]
    err = _fails_fast(argv, tmp_path / "amp", capsys)
    assert err == "error: unrecognized arguments: --nodes 64\n"


@pytest.mark.parametrize("command", ["image", "montecarlo"])
def test_cli_checks_pattern_n_although_a_pattern_file_is_given(
    tmp_path, capsys, monkeypatch, command
):
    import ghostsim.cli as cli

    def no_maps(*args, **kwargs):
        raise AssertionError("a map was computed with pattern_n = 0")

    # image ran and exited 0, montecarlo exited 2
    monkeypatch.setattr(cli, "ghost_image_map", no_maps)
    pattern = tmp_path / "pat.txt"
    save_pattern(str(pattern), uniform_pattern(n=8))
    argv = [command, "--pattern", str(pattern), "--pattern-n", "0"]
    err = _fails_fast(argv, tmp_path / command, capsys)
    assert err == "error: pattern size n must be >= 1, got 0\n"


def test_cli_montecarlo_negative_seed_fails_before_any_map(tmp_path, capsys, monkeypatch):
    import ghostsim.cli as cli

    def no_maps(*args, **kwargs):
        raise AssertionError("a map was computed before the seed was checked")

    monkeypatch.setattr(cli, "ghost_image_map", no_maps)
    err = _fails_fast(["montecarlo", "--seed", "-1"], tmp_path / "mc", capsys)
    assert "seed" in err


def test_cli_image_rejects_a_graymap_with_a_bad_header(tmp_path, capsys):
    bad = tmp_path / "bad.pgm"
    bad.write_text(_BAD_GRAYMAPS["negative size"][0])
    err = _fails_fast(["image", "--pattern", str(bad)], tmp_path / "img", capsys)
    assert "width and height must be positive" in err


def test_cli_image_rejects_a_non_finite_pattern_before_any_map(tmp_path, capsys, monkeypatch):
    import ghostsim.cli as cli

    def no_maps(*args, **kwargs):
        raise AssertionError("a map was computed from a non-finite pattern")

    monkeypatch.setattr(cli, "ghost_image_map", no_maps)
    bad = tmp_path / "nan.txt"
    bad.write_text("1 nan\n0 1\n")
    err = _fails_fast(["image", "--pattern", str(bad)], tmp_path / "img", capsys)
    assert "nan.txt" in err and "finite" in err


def test_cli_image_rejects_an_infinite_pattern_extent_before_any_map(
    tmp_path, capsys, monkeypatch
):
    import ghostsim.cli as cli

    def no_maps(*args, **kwargs):
        raise AssertionError("a map was computed from an infinite pattern pitch")

    # it used to warn three times in the contraction before exiting 2
    monkeypatch.setattr(cli, "ghost_image_map", no_maps)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        err = _fails_fast(["image", "--pattern-extent-x=inf"], tmp_path / "img", capsys)
    assert err == "error: pattern pitch must be two finite positive lengths\n"


@pytest.mark.parametrize("flag", ["--pattern-extent-x", "--pattern-extent-y"])
@pytest.mark.parametrize("value", ["inf", "nan", "0", "-4e-3"])
def test_cli_image_rejects_a_bad_pattern_extent_that_a_pattern_header_leaves_unused(
    tmp_path, capsys, monkeypatch, flag, value
):
    import ghostsim.cli as cli

    def no_maps(*args, **kwargs):
        raise AssertionError("a map was computed with a bad pattern extent")

    # a saved pattern's header sets its pixels; the bad extent once ran
    # to exit 0, while a bad pattern_n with the same file exits 2
    monkeypatch.setattr(cli, "ghost_image_map", no_maps)
    pattern = tmp_path / "saved.txt"
    save_pattern(str(pattern), uniform_pattern(n=8, extent=2e-3))
    argv = ["image", "--nx=16", "--ny=16", "--pattern-n=4", f"--pattern={pattern}",
            f"{flag}={value}"]
    err = _fails_fast(argv, tmp_path / "img", capsys)
    assert err == f"error: {flag[2:].replace('-', '_')} must be finite and > 0, got {float(value)}\n"


def test_cli_image_rejects_a_pattern_beyond_the_paraxial_model_before_any_kernel(
    tmp_path, capsys, monkeypatch
):
    from ghostsim import optics

    def no_contraction(*args, **kwargs):
        raise AssertionError("the image field was contracted for a 1e300 m pattern")

    # it used to warn four times in the contraction before exiting 2
    monkeypatch.setattr(optics, "_image_field", no_contraction)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        err = _fails_fast(["image", "--pattern-extent-x=1e300"], tmp_path / "img", capsys)
    assert "beyond the paraxial model's limit min(s1, s2) = 1.33 m" in err


@pytest.mark.parametrize("argv, message", [
    (["amplitude", "--oracle", "1", "--x2", "1e308"], "oracle needs inf nodes"),
    (["amplitude", "--oracle", "1", "--fixed", "1e308"], "oracle needs inf nodes"),
    (["amplitude", "--oracle", "1", "--extent", "1e308"], "oracle needs inf nodes"),
    (["amplitude", "--oracle", "1", "--y2", "1e300"], "oracle needs 4.81e+304 nodes"),
    (["image", "--sigma", "0.04", "--center-x", "1e308", "--pattern-n", "8", "--nx", "16",
      "--ny", "16"], "bandwidth is inf rad"),
], ids=["x2", "fixed", "extent", "y2", "image"])
def test_cli_refuses_a_node_count_past_any_limit_with_one_error_line(
    tmp_path, capsys, argv, message
):
    # an infinite count ended in OverflowError and exit 1; a finite one past
    # the oracle's limit printed all its 300 digits
    with warnings.catch_warnings(), np.errstate(over="ignore", invalid="ignore"):
        warnings.simplefilter("ignore", SourceRegimeWarning)
        err = _fails_fast(argv, tmp_path / "out", capsys)
    assert message in err and len(err.splitlines()) == 1 and len(err) < 200


def test_cli_image_under_an_aperture_too_wide_to_square_is_the_unclipped_map(tmp_path):
    # (rho - r)**2 raised OverflowError above rho ~ 1.3e154
    argv = ["image", "--nx", "16", "--ny", "16", "--pattern-n", "8"]
    for name, extra in (("wide", ["--aperture-radius", "1e200"]), ("default", [])):
        assert run_cli(argv + extra + ["--out", str(tmp_path / name)])[0] == 0
    wide, meta = load_matrix_text(str(tmp_path / "wide" / "image.txt"))
    default, _ = load_matrix_text(str(tmp_path / "default" / "image.txt"))
    assert meta["lens_path"] == "closed-form" and float(meta["clip_bound"]) == 0.0
    np.testing.assert_array_equal(wide, default)


@pytest.mark.parametrize("flag, name, message", [
    ("--pattern", "missing.pgm", "No such file or directory"),
    ("--config", "missing.txt", "No such file or directory"),
    ("--pattern", "folder", "Is a directory"),
    ("--config", "latin1.txt", "codec can't decode"),
    ("--pattern", "binary.pgm", "codec can't decode"),
])
def test_cli_reports_an_unreadable_file_as_an_error_line(tmp_path, capsys, flag, name, message):
    # each of these ended in a traceback and exit 1
    (tmp_path / "folder").mkdir()
    (tmp_path / "latin1.txt").write_bytes("nx = 16  # Größe\n".encode("latin-1"))
    (tmp_path / "binary.pgm").write_bytes(b"P5\n2 2\n255\n\xff\x00\x80\xfe")
    err = _fails_fast(["image", flag, str(tmp_path / name)], tmp_path / "img", capsys)
    assert message in err
    assert name in err


@pytest.mark.parametrize("flag", ["--a=nan", "--b=inf", "--a-prime=-inf", "--b-prime=nan"])
def test_cli_chsh_rejects_non_finite_angles(tmp_path, capsys, flag):
    err = _fails_fast(["chsh", flag], tmp_path / "chsh", capsys)
    assert "polarizer angle must be finite" in err


@pytest.mark.parametrize("flag", ["--delta1=nan", "--delta2=inf"])
def test_cli_image_rejects_non_finite_angles_before_the_contraction(
    tmp_path, capsys, monkeypatch, flag
):
    from ghostsim import optics

    def no_contraction(*args, **kwargs):
        raise AssertionError("the image field was contracted at a non-finite angle")

    monkeypatch.setattr(optics, "_image_field", no_contraction)
    err = _fails_fast(["image", flag], tmp_path / "img", capsys)
    assert "polarizer angle must be finite" in err


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_cli_amplitude_rejects_fewer_than_one_sample(tmp_path, capsys, samples):
    err = _fails_fast(["amplitude", "--samples", samples], tmp_path / "amp", capsys)
    assert "samples" in err


def test_cli_montecarlo_rejects_an_empty_background_before_any_map(
    tmp_path, capsys, monkeypatch
):
    import ghostsim.cli as cli

    def no_maps(*args, **kwargs):
        raise AssertionError("a map was computed before the pattern size was checked")

    monkeypatch.setattr(cli, "ghost_image_map", no_maps)
    # pattern_n is checked even though the background takes its pixels from
    # the pattern file
    pattern = tmp_path / "p.txt"
    save_pattern(str(pattern), uniform_pattern(n=4))
    err = _fails_fast(
        ["montecarlo", "--pattern-n", "0", "--pattern", str(pattern)], tmp_path / "mc", capsys
    )
    assert "pattern size" in err


def test_cli_montecarlo_background_has_the_pattern_files_pixels(tmp_path, monkeypatch):
    import ghostsim.cli as cli

    maps = []

    def keep_maps(signal, background, *args, **kwargs):
        maps.extend((signal, background))
        return build_ghost_image(signal, background, *args, **kwargs)

    monkeypatch.setattr(cli, "build_ghost_image", keep_maps)
    # a flat, non-square pattern: its background map is its signal map. A
    # background built from pattern_n and pattern_extent_x alone was square,
    # 4 x 4 mm, and left a residual of 0.55 of peak here
    pattern = tmp_path / "flat.txt"
    save_pattern(str(pattern), pattern_from_extent(np.zeros((32, 64)), (4e-3, 2e-3)))
    code, _ = run_cli([
        "montecarlo", "--pattern", str(pattern), "--pattern-extent-x", "4e-3",
        "--pattern-extent-y", "2e-3", "--pattern-n", "64", "--nx", "64", "--ny", "32",
        "--delta2", "45", "--exposure", "0.01", "--out", str(tmp_path / "mc"),
    ])
    assert code == 0
    signal, background = maps
    assert signal.meta["raw_peak"] > 0
    np.testing.assert_array_equal(background.values, signal.values)
    assert background.meta["raw_peak"] == signal.meta["raw_peak"]


def test_cli_image_has_no_workers_key(tmp_path, capsys):
    err = _fails_fast(["image", "--workers", "2"], tmp_path / "image", capsys)
    assert err == "error: unrecognized arguments: --workers 2\n"
    code, _ = run_cli(["image", "--nx", "32", "--ny", "32", "--pattern-n", "16",
                       "--out", str(tmp_path / "ok")])
    assert code == 0
    assert "workers" not in parse_config(str(tmp_path / "ok" / "image_config.txt"))


@pytest.mark.parametrize("argv, message", [
    (["montecarlo", "--nx=abc"], "key 'nx': expected integer, got 'abc'"),
    (["interference", "--slit-width"], "argument --slit-width: expected one argument"),
    (["nonsense"], "argument command: invalid choice: 'nonsense'"),
    ([], "the following arguments are required: command"),
])
def test_cli_bad_command_lines_end_in_one_error_line(capsys, argv, message):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("key, text, kind", [("nx", "abc", "integer"), ("sigma", "1e-3m", "number")])
def test_cli_bad_value_reads_the_same_from_a_flag_and_a_file(tmp_path, capsys, key, text, kind):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"{key} = {text}\n")
    from_file = _fails_fast(["image", "--config", str(cfg)], tmp_path / "file", capsys)
    from_flag = _fails_fast(["image", f"--{key}={text}"], tmp_path / "flag", capsys)
    assert from_file == from_flag == f"error: key '{key}': expected {kind}, got '{text}'\n"


SMALL_RUNS = {
    "interference": ["--nx", "64", "--ny", "8", "--extent-x", "3e-3"],
    "image": ["--nx", "32", "--ny", "32", "--pattern-n", "16"],
    "montecarlo": ["--nx", "32", "--ny", "32", "--pattern-n", "16", "--exposure", "1"],
    "amplitude": ["--samples", "9", "--oracle", "1"],
}


@pytest.mark.parametrize("command", sorted(SMALL_RUNS))
def test_cli_config_echo_reproduces_the_run(tmp_path, command):
    first, again = tmp_path / "first", tmp_path / "again"
    code, _ = run_cli([command, "--s2", "1.6", *SMALL_RUNS[command], "--out", str(first)])
    assert code == 0
    echo = first / f"{command}_config.txt"
    code, _ = run_cli([command, "--config", str(echo), "--out", str(again)])
    assert code == 0
    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(p.name for p in again.iterdir())
    for name in names:
        assert (first / name).read_bytes() == (again / name).read_bytes(), name


def test_cli_image_derives_the_lens_distances_from_s2(tmp_path):
    # u = s1 + s2 and v from the lens equation; a second key holding the
    # default u = 2.83 m used to make any other s2 exit 2
    code, _ = run_cli(["image", "--s2", "1.6", "--out", str(tmp_path)])
    assert code == 0
    _, meta = load_matrix_text(str(tmp_path / "image.txt"))
    v = 1 / (1 / 1.5 - 1 / (1.33 + 1.6))
    assert float(meta["total_scale"]) == pytest.approx(0.87)
    assert float(meta["telescope_scale"]) == 0.87 / (v / (1.33 + 1.6))


def test_cli_camera_covers_the_pattern_imaged(tmp_path):
    from ghostsim import (
        LensSystem, ghost_image_map, ghost_magnification, half_plane_pattern,
    )

    # the built-in pattern spans pattern_extent_x by pattern_extent_y; it
    # used to stay 4 x 4 mm and be cropped to a camera 2 mm tall
    argv = ["image", "--nx", "64", "--ny", "64", "--pattern-n", "32"]
    code, _ = run_cli(argv + ["--pattern-extent-y", "2e-3", "--out", str(tmp_path / "a")])
    assert code == 0
    got, _ = load_matrix_text(str(tmp_path / "a" / "image.txt"))
    params = SourceParams(wavelength=810e-9, sigma=3e-3, s1=1.33, s2=1.5)
    lens = LensSystem(f=1.5, u=2.83)
    pattern = pattern_from_extent(half_plane_pattern(n=32).grid, (4e-3, 2e-3))
    scale = 0.87 / ghost_magnification(params, lens)
    total = ghost_magnification(params, lens) * scale
    grid = GridSpec(nx=64, ny=64, extent_x=total * 4e-3, extent_y=total * 2e-3)
    d = np.deg2rad(-45.0)
    want = ghost_image_map(params, lens, pattern, d, d, grid, telescope_scale=scale)
    np.testing.assert_array_equal(got, want.values)
    # a saved pattern keeps its pixels, and the camera covers them
    saved = tmp_path / "pattern.txt"
    save_pattern(str(saved), pattern)
    code, _ = run_cli(argv + ["--pattern", str(saved), "--out", str(tmp_path / "b")])
    assert code == 0
    assert (tmp_path / "b" / "image.txt").read_bytes() == (tmp_path / "a" / "image.txt").read_bytes()


def test_cli_derived_camera_centres_on_the_pattern_imaged(tmp_path):
    # phase pi on the middle half of a pattern centred at x = 1 mm; a camera
    # left centred on 0 cut the image off at its first column (0.25 of peak)
    grid = np.zeros((32, 64))
    grid[:, 16:48] = np.pi
    pattern = tmp_path / "pattern.txt"
    save_pattern(str(pattern), pattern_from_extent(grid, (4e-3, 2e-3), center=(1e-3, 0.0)))
    first, again = tmp_path / "first", tmp_path / "again"
    argv = ["image", "--pattern", str(pattern), "--nx", "128", "--ny", "64"]
    code, _ = run_cli(argv + ["--out", str(first)])
    assert code == 0
    values, meta = load_matrix_text(str(first / "image.txt"))
    assert values[:, [0, -1]].max() < 0.05 * values.max()
    # the image is inverted; an axis the pattern is centred on stays at 0.0
    echo = parse_config(str(first / "image_config.txt"))
    assert float(echo["center_x"]) == pytest.approx(-float(meta["total_scale"]) * 1e-3)
    assert echo["center_y"] == "0.0"
    code, _ = run_cli(["image", "--config", str(first / "image_config.txt"), "--out", str(again)])
    assert code == 0
    assert (again / "image.txt").read_bytes() == (first / "image.txt").read_bytes()


def test_cli_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as done:
        main(["montecarlo", "--help"])
    assert done.value.code == 0
    assert "--workers" in capsys.readouterr().out


# amplitude has no nodes key, and refuses any count at the parser
@pytest.mark.parametrize("command", ["image", "montecarlo", "amplitude"])
def test_cli_rejects_node_counts_above_the_cap(tmp_path, capsys, monkeypatch, command):
    import ghostsim.cli as cli

    def no_maps(*args, **kwargs):
        raise AssertionError("a map was computed before the node count was checked")

    monkeypatch.setattr(cli, "ghost_image_map", no_maps)
    err = _fails_fast([command, "--nodes", "100000"], tmp_path / command, capsys)
    assert "100000" in err and "nodes" in err


# image has no workers key: its map is one process's matmuls
@pytest.mark.parametrize("command", ["montecarlo"])
@pytest.mark.parametrize("workers", ["0", "-3"])
def test_cli_rejects_worker_counts_below_one(tmp_path, capsys, monkeypatch, command, workers):
    import ghostsim.cli as cli

    def no_maps(*args, **kwargs):
        raise AssertionError("a map was computed before the worker count was checked")

    monkeypatch.setattr(cli, "ghost_image_map", no_maps)
    err = _fails_fast([command, "--workers", workers], tmp_path / command, capsys)
    assert err == f"error: workers must be >= 1, got {workers}\n"


def test_cli_validate_passes():
    from ghostsim.validate import _CHECKS

    code, out = run_cli(["validate"])
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln.startswith(("PASS", "FAIL"))]
    assert len(lines) == len(_CHECKS) == 8
    assert any(ln.startswith("PASS lens-closed-form") for ln in lines)
    assert all(ln.startswith("PASS") for ln in lines)


def test_refine_peaks_puts_a_sampled_parabola_at_its_vertex():
    # the parabola step that both refine_peaks and the magnification check use
    from ghostsim.validate import refine_peaks

    x = np.linspace(0.0, 1.0, 11)
    np.testing.assert_allclose(refine_peaks(x, 1.0 - (x - 0.33) ** 2), [0.33], rtol=1e-12)


def test_magnification_check_fails_a_wrong_signed_parabola_step(monkeypatch):
    from ghostsim import validate

    right = validate._parabola_vertex

    def flipped(coords, profile, i):
        return 2 * coords[i] - right(coords, profile, i)

    assert validate.check_magnification()[0]
    monkeypatch.setattr(validate, "_parabola_vertex", flipped)
    assert not validate.check_magnification()[0]


PUBLIC_NAMES = [
    "AIRY_FIRST_ZERO", "ApertureSamplingWarning", "CoincidenceMap", "ConfigError",
    "ConvergenceError", "CountFrame", "DetectorConfig", "DoubleSlit", "GATE_BLOCKS",
    "GhostsimError", "GridMismatchError", "GridSpec", "LensSystem", "MAX_NODES",
    "NumericError", "PGM_MAXVAL", "ParameterError", "ParaxialWarning", "PhasePattern",
    "QuadSettings", "STANDARD_CHSH_ANGLES", "SamplingError", "SourceParams",
    "SourceRegimeWarning", "TwoQubitPolState", "VisibilityModel", "aperture_nodes",
    "axis_amplitude", "build_ghost_image", "chsh_S", "closed_form_amplitude",
    "correlation_E", "envelope_coefficients", "expected_fringe_period",
    "expected_gate_count", "ghost_image_map", "ghost_interference_map",
    "ghost_magnification", "half_plane_pattern", "imaging_amplitude",
    "load_matrix_text", "load_pattern", "load_pgm", "make_bell",
    "outcome_probabilities", "parse_config", "pattern_from_extent",
    "pattern_projection_coeff", "project_linear", "quadrature_oracle_amplitude",
    "save_map", "save_matrix_text", "save_pattern", "save_pgm", "simulate_exposure",
    "uniform_pattern", "write_config_echo",
]


def test_public_names_are_pinned():
    # an export added to or dropped from the package is an edit of this list
    import types

    import ghostsim

    names = sorted(
        name for name, value in vars(ghostsim).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert names == PUBLIC_NAMES


def _declared_console_script():
    """The ``ghostsim`` target declared under ``[project.scripts]``."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with open(PYPROJECT, "rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
    assert "ghostsim" in scripts, "pyproject.toml declares no ghostsim script"
    return scripts["ghostsim"]


# What a generated console-script wrapper does: import the target's module,
# take the attribute and exit with its return value, argv[0] being the script.
CONSOLE_WRAPPER = """\
import importlib, sys
module, attr = sys.argv[1:3]
sys.argv = sys.argv[3:]
sys.exit(getattr(importlib.import_module(module), attr)())
"""


def test_console_script_is_installed():
    """The ``[project.scripts]`` target runs as a console-script wrapper runs it.

    No installed ``ghostsim`` executable is needed: the declared
    ``module:attr`` is imported and called in a fresh interpreter, so a wrong
    module or attribute, a ``main`` that ignores ``sys.argv`` or a nonzero
    return fails here in a source checkout too.
    """
    result = subprocess.run(
        [sys.executable, "-m", "ghostsim.cli", "chsh"],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0
    assert result.stdout.strip() == "S = -2.8284"
    target = _declared_console_script()
    module, sep, attr = target.partition(":")
    assert sep and module and attr, f"not a module:attr target: {target!r}"
    script = subprocess.run(
        [sys.executable, "-c", CONSOLE_WRAPPER, module, attr,
         "ghostsim", "chsh", "--visibility", "0.9086"],
        capture_output=True, text=True, timeout=120,
    )
    assert script.returncode == 0, script.stderr
    assert script.stdout.strip() == "S = -2.5699"


def test_cli_prints_each_warning_as_one_line(tmp_path):
    # a warning raised inside the package was printed against a package
    # source line, with that line echoed, or against "<frozen runpy>:88"
    result = subprocess.run(
        [sys.executable, "-m", "ghostsim.cli", "image", "--sigma", "0.04",
         "--nodes", "64", "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    lines = result.stderr.splitlines()
    assert [line.split(": ")[:2] for line in lines] == [
        ["warning", "SourceRegimeWarning"],
        ["warning", "SourceRegimeWarning"],
        ["warning", "ApertureSamplingWarning"],
    ]
    assert lines[0].endswith(
        ": s1 = 1.33 m is below 50*sigma = 2 m; the far-plane model is strained"
    )
    assert lines[2].startswith("warning: ApertureSamplingWarning: refining 64 -> 80 nodes")
    # in-process, the format is restored when main returns
    formatwarning = warnings.formatwarning
    assert run_cli(["chsh"]) == (0, "S = -2.8284\n")
    assert warnings.formatwarning is formatwarning


@pytest.mark.skipif(
    shutil.which("ghostsim") is None,
    reason="ghostsim console script not on PATH (package not installed)",
)
def test_installed_console_script_runs():
    target = _declared_console_script()
    for dist in importlib.metadata.distributions(name="ghostsim"):
        installed = dist.entry_points.select(group="console_scripts", name="ghostsim")
        assert [ep.value for ep in installed] == [target], "stale ghostsim install"
    script = subprocess.run(
        ["ghostsim", "chsh", "--visibility", "0.9086"],
        capture_output=True, text=True, timeout=120,
    )
    assert script.returncode == 0, script.stderr
    assert script.stdout.strip() == "S = -2.5699"
