"""Byte-for-byte golden checks of the seed -> output contract.

The fixtures in tests/golden hold the exact stdout of fixed CLI calls and
raw `next64` draws, with the version token where the CLI prints its
version (`make_goldens.versioned`).  Each fixture that holds the token
starts with a header naming the version, so a version bump changes that
one line and every other byte is compared as printed.  Any difference
fails with the first differing line.
"""

from pathlib import Path

import pytest

from golden.make_goldens import FIXTURES, versioned

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_golden_bytes(name):
    expected = (GOLDEN_DIR / name).read_text()
    got = versioned(FIXTURES[name]())
    if got == expected:
        return
    want_lines, got_lines = expected.splitlines(), got.splitlines()
    line = next(
        (i for i, (a, b) in enumerate(zip(want_lines, got_lines)) if a != b),
        min(len(want_lines), len(got_lines)),
    )
    want = want_lines[line] if line < len(want_lines) else "<end of file>"
    have = got_lines[line] if line < len(got_lines) else "<end of output>"
    pytest.fail(
        f"tests/golden/{name}:{line + 1} differs\n"
        f"  golden: {want}\n"
        f"  now:    {have}\n"
        "If the byte change is deliberate, bump the version, regenerate with "
        "`python3 tests/golden/make_goldens.py` and record it in CHANGES.md; "
        "a version bump alone rewrites only the header line of each fixture that names it.",
        pytrace=False,
    )
