"""Property test of the command line: any argv ends in exit 0 or in exit 2
with a line that starts with ``error:``, never in a traceback or SystemExit.

Grids stay small (cameras up to 32 x 32, patterns up to 16 x 16, exposures
of at most a few seconds), so one run takes milliseconds. Every other value
is drawn from plausible settings, or from bad ones: zero, negative, huge,
non-finite and non-numeric text, and the values in ALWAYS_BAD that fail for
their key alone. One test sets a few keys at a time, each bad one time in
four; the other sets every key of a subcommand at once, each bad one time
in twenty, so that many of its runs reach a map.
"""

import contextlib
import io as stdio
import math
import os
import tempfile
import warnings

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from ghostsim.cli import COMMANDS as CLI_COMMANDS  # noqa: E402
from ghostsim.cli import main  # noqa: E402
from ghostsim.experiments import uniform_pattern  # noqa: E402
from ghostsim.io import save_pattern  # noqa: E402

BAD_NUMBERS = ["0", "-1", "-2.5", "1e300", "-1e300", "1e308", "inf", "-inf", "nan", "abc", "",
               "1.5"]
# counts and sizes: bad values, but none huge enough to cost time or memory
BAD_COUNTS = ["0", "-1", "-7", "abc", "", "1.5", "nan"]
# values the CLI refuses for their key alone, drawn as bad values of that
# key only: a good pool holding one would end every draw of it in exit 2,
# and fewer runs would reach a map
ALWAYS_BAD = dict(
    axis=["z"],
    # narrower than the wavelength, outside the scalar model
    slit_width=["1e-12"],
    state=["bogus"],
    pattern=["missing.pgm"],
    # an infinite extent once ran the whole contraction before it failed
    pattern_extent_x=["inf"],
    nodes=["100000"],
)

SOURCE = dict(
    wavelength=["810e-9", "1e-6"],
    sigma=["3e-3", "1e-3", "40e-3"],
    s1=["1.33", "0.5"],
    s2=["1.0", "1.5"],
)
IMAGE = dict(
    SOURCE,
    focal_length=["1.5"],
    aperture_radius=["25e-3", "5e-3"],
    delta1=["-45", "45", "0"],
    delta2=["-45", "45"],
    phase_scale=["3.14159"],
    pattern_phi=["180", "90"],
    pattern_extent_x=["4e-3", "2e-3"],
    pattern_extent_y=["4e-3"],
    # no file or a saved 8 x 8 pattern
    pattern=["", "saved.txt"],
    extent_x=["0", "4e-3"],
    extent_y=["0", "4e-3"],
    center_x=["0", "1e-3"],
    center_y=["0"],
    telescope_scale=["0", "1"],
)
# keys that set sizes or counts, always present so that grids stay small
IMAGE_SIZES = dict(nx=["16", "32"], ny=["16", "32"], pattern_n=["4", "8", "16"])
MONTECARLO = dict(
    IMAGE,
    trigger_rate=["2e4", "100"],
    exposure=["1", "0.01"],
    pair_detection_prob=["0.1", "1", "0"],
    dark_rate=["0", "5"],
)
COMMANDS = {
    "interference": (
        dict(
            SOURCE,
            slit_separation=["2e-3", "1e-3"],
            # a slit as wide as slit_separation's default, and one just
            # narrower than the separation
            slit_width=["0", "0.2e-3", "2e-3", "1.9e-3"],
            # slit_center against slit_separation: slits either side of the
            # axis, and one pair wholly off it
            slit_center=["0", "1e-4", "-1e-3", "2e-3"],
            axis=["x", "y"],
            extent_y=["2e-3"],
            center_x=["0"],
            center_y=["0"],
        ),
        # 2 mm slits fringe with a ~0.94 mm period: 8 pixels a period need
        # a pitch of at most ~0.12 mm
        dict(nx=["32"], ny=["8", "16"], extent_x=["2e-3", "3e-3"]),
        {},
    ),
    "image": (IMAGE, IMAGE_SIZES, dict(nodes=["0", "64"])),
    "montecarlo": (
        MONTECARLO,
        dict(IMAGE_SIZES, exposure=["1", "0.01"]),
        dict(nodes=["0"], workers=["1", "2"], seed=["0", "7", "99999999999999999999"]),
    ),
    "amplitude": (
        dict(
            SOURCE,
            axis=["x", "y"],
            extent=["6e-3", "1e-3"],
            fixed=["0", "1e-3"],
            x2=["0", "1e-3"],
            y2=["0"],
            oracle=["0", "1"],
        ),
        dict(samples=["1", "5", "17"]),
        {},
    ),
    "chsh": (
        dict(
            state=["psi_minus", "phi_plus"],
            a=["0", "45"],
            a_prime=["45"],
            b=["22.5"],
            b_prime=["67.5"],
            visibility=["1", "0.9086"],
        ),
        {},
        {},
    ),
}


# a key the CLI no longer has must not linger in a pool, where every draw
# of it would end at the parser
for _command, _pools in COMMANDS.items():
    _stale = set().union(*_pools) - CLI_COMMANDS[_command][1].keys()
    assert not _stale, f"{_command} pools hold keys the CLI lacks: {sorted(_stale)}"


# keys for which 0 means "derive"
DERIVED = ("nodes", "telescope_scale", "extent_x", "extent_y")


def _text(argv, key):
    """The value text of --key=<text> in argv, or None."""
    flag = "--" + key.replace("_", "-") + "="
    return next((arg[len(flag):] for arg in argv if arg.startswith(flag)), None)


def _number(argv, key):
    """The value of --key=<number> in argv, or None if absent or not a number."""
    try:
        return float(_text(argv, key))
    except (TypeError, ValueError):
        return None


def _must_fail(argv):
    """Whether argv holds a value the CLI must refuse with exit 2."""
    command = argv[0]
    if any(_text(argv, key) in values for key, values in ALWAYS_BAD.items()):
        return True
    # 0 derives these keys; a negative value is an error, never derived
    if any((_number(argv, key) or 0) < 0 for key in DERIVED):
        return True
    # pattern_n is checked whether or not a pattern file is given
    pattern_n = _number(argv, "pattern_n")
    if command in ("image", "montecarlo") and pattern_n is not None and pattern_n <= 0:
        return True
    # so is the pattern extent, even where a saved pattern's header sets the pixels
    if any(not 0 < value < math.inf for value in
           (_number(argv, key) for key in ("pattern_extent_x", "pattern_extent_y"))
           if value is not None):
        return True
    # amplitude takes no node count: the oracle sizes its own rule
    return command == "amplitude" and _text(argv, "nodes") is not None


def _runs_cleanly(argv):
    """Run argv and assert exit 0, or exit 2 with an error: line, never a
    traceback; "saved.txt" names an 8 x 8 pattern saved in the run's
    directory."""
    out, err = stdio.StringIO(), stdio.StringIO()
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("ignore")
        saved = os.path.join(tmp, "saved.txt")
        save_pattern(saved, uniform_pattern(n=8, extent=2e-3))
        run = [arg.replace("=saved.txt", "=" + saved) for arg in argv]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(run + ["--out", os.path.join(tmp, "out")])
    text = err.getvalue()
    assert code in (0, 2), (argv, code, text)
    if _must_fail(argv):
        assert code == 2, (argv, text)
    assert "Traceback" not in text
    if code == 2:
        assert any(line.startswith("error: ") for line in text.splitlines()), (argv, text)


def _value(key, good, bad, one_in=4):
    """One value in one_in from bad and key's ALWAYS_BAD values, the rest
    from good."""
    bad = bad + ALWAYS_BAD.get(key, [])
    return st.integers(1, one_in).flatmap(
        lambda i: st.sampled_from(bad if i == one_in else good))


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    free, sized, counts = COMMANDS[command]
    chosen = {}
    # sizes are always given: a good small value or a bad count, never the
    # large default
    for key, good in sized.items():
        chosen[key] = draw(_value(key, good, BAD_COUNTS))
    for key, good in counts.items():
        if draw(st.booleans()):
            chosen[key] = draw(_value(key, good, BAD_COUNTS))
    keys = draw(st.lists(st.sampled_from(sorted(free)), max_size=4, unique=True))
    for key in keys:
        chosen[key] = draw(_value(key, free[key], BAD_NUMBERS))
    # --key=value: a value that starts with '-' is not read as a flag
    return [command] + [f"--{key.replace('_', '-')}={text}" for key, text in chosen.items()]


# each of these ended in a traceback before its input was checked up front
@settings(derandomize=True, deadline=None, max_examples=120)
@example(argv=["image", "--nx=32", "--ny=32", "--pattern-n=0"])
@example(argv=["image", "--nx=32", "--ny=32", "--pattern-n=-1"])
@example(argv=["amplitude", "--samples=5", "--sigma=1e300"])
@example(argv=["amplitude", "--samples=5", "--s2=1e300"])
@example(argv=["montecarlo", "--nx=16", "--ny=16", "--pattern-n=8", "--exposure=1e300"])
@example(argv=["montecarlo", "--nx=16", "--ny=16", "--pattern-n=8", "--trigger-rate=1e300"])
@example(argv=["montecarlo", "--nx=16", "--ny=16", "--pattern-n=8", "--dark-rate=1e300"])
# argparse printed a usage block and raised SystemExit for these
@example(argv=["montecarlo", "--nx=abc"])
@example(argv=["image", "--workers=2"])
# a missing --pattern or --config file ended in a traceback and exit 1
@example(argv=["image", "--nx=16", "--ny=16", "--pattern=missing.pgm"])
@example(argv=["montecarlo", "--nx=16", "--ny=16", "--pattern-n=8", "--config=missing.txt"])
# a negative "derive" value ran as if 0 had been given
@example(argv=["image", "--nx=16", "--ny=16", "--pattern-n=4", "--nodes=-1"])
@example(argv=["amplitude", "--samples=5", "--oracle=1", "--nodes=-1"])
@example(argv=["montecarlo", "--nx=16", "--ny=16", "--pattern-n=4", "--telescope-scale=-1"])
@example(argv=["image", "--nx=16", "--ny=16", "--pattern-n=4", "--extent-y=-1"])
@example(argv=["amplitude", "--samples=5", "--nodes=128"])
@example(argv=["image", "--nx=16", "--ny=16", "--pattern=saved.txt", "--pattern-n=0"])
@example(argv=["montecarlo", "--nx=16", "--ny=16", "--pattern=saved.txt", "--pattern-n=-1"])
# values that fail for their key alone (ALWAYS_BAD), the extent also where
# a saved pattern's header sets the pixels
@example(argv=["interference", "--nx=32", "--ny=8", "--axis=z"])
@example(argv=["interference", "--nx=32", "--ny=8", "--slit-width=1e-12"])
@example(argv=["amplitude", "--samples=5", "--axis=z"])
@example(argv=["chsh", "--state=bogus"])
@example(argv=["image", "--nx=16", "--ny=16", "--pattern-n=4", "--pattern-extent-x=inf"])
@example(argv=["image", "--nx=16", "--ny=16", "--pattern=saved.txt", "--pattern-extent-x=inf"])
@example(argv=["montecarlo", "--nx=16", "--ny=16", "--pattern-n=4", "--nodes=100000"])
# node counts sized from an overflowing bandwidth, and squares of a huge
# aperture, ended in OverflowError
@example(argv=["amplitude", "--samples=5", "--oracle=1", "--x2=1e308"])
@example(argv=["amplitude", "--samples=5", "--oracle=1", "--fixed=1e308"])
@example(argv=["amplitude", "--samples=5", "--oracle=1", "--extent=1e308"])
@example(argv=["amplitude", "--samples=5", "--oracle=1", "--y2=1e300"])
@example(argv=["image", "--nx=16", "--ny=16", "--pattern-n=8", "--aperture-radius=1e200"])
@example(argv=["image", "--nx=16", "--ny=16", "--pattern-n=8", "--sigma=0.04",
               "--center-x=1e308"])
# a sized count past MAX_NODES was capped, and a given one whose nodes
# miss the envelope summed zeros: both exited 0 with a wrong map
@example(argv=["image", "--nx=16", "--ny=16", "--pattern-n=8", "--sigma=0.04",
               "--center-x=1e100"])
@example(argv=["image", "--nx=16", "--ny=16", "--pattern-n=8", "--aperture-radius=1e150",
               "--nodes=64"])
@given(argv=argvs())
def test_cli_ends_in_exit_0_or_an_error_line(argv):
    _runs_cleanly(argv)


@st.composite
def full_argvs(draw, command):
    """command with every pooled key set, each bad one time in twenty."""
    free, sized, counts = COMMANDS[command]
    chosen = {}
    for pools, bad in (({**sized, **counts}, BAD_COUNTS), (free, BAD_NUMBERS)):
        for key, good in pools.items():
            chosen[key] = draw(_value(key, good, bad, 20))
    return [command] + [f"--{key.replace('_', '-')}={text}" for key, text in chosen.items()]


# twelve examples a subcommand, sixty in all
@pytest.mark.parametrize("command", sorted(COMMANDS))
@settings(derandomize=True, deadline=None, max_examples=12)
@given(data=st.data())
def test_cli_with_every_key_set_ends_in_exit_0_or_an_error_line(command, data):
    _runs_cleanly(data.draw(full_argvs(command), label="argv"))
