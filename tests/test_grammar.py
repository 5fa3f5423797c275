"""Matrix Market files from a grammar, through the CLI, under -W error.

Small files, N = 2..7, general or symmetric, with duplicate entries,
comments and blank lines, take values from the ends of the float range
(+-1e308, subnormals, +-0, 2^k) printed in several formats. ``bounds`` and
``run ex3 --input`` must either handle each file or reject it with one
error line, and print no non-finite number but a mu that is inf; ``bounds``
rejects only a file that ``read_matrix_market`` rejects. A second
property scales every entry of a file by 2^k and checks that ``bounds``
moves by exactly that power of two. A third replaces the size line or
one entry of a file with a malformed line, which the reader must reject
with its text and its line number. On the seeded N = 512 ex3 stand-in
that the benchmark reads, the stdout of both commands is pinned.

Examples are derandomized. Tier-1 runs a few hundred; the ``grammar-long``
profile registered in conftest.py raises the budget for a longer run::

    python -m pytest -W error tests/test_grammar.py --hypothesis-profile=grammar-long
"""

import contextlib
import io
import math
import re
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, reject, settings
from hypothesis import strategies as st

from greendecay import MatrixMarketError, read_matrix_market
from greendecay.cli import main as cli_main

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"

GRAMMAR = settings(
    derandomize=True,
    deadline=None,
    max_examples=max(300, settings.default.max_examples),
    suppress_health_check=[HealthCheck.too_slow],
)

EXTREMES = [1e308, -1e308, 1.7976931348623157e308, 2.2250738585072014e-308,
            1e-320, -1e-320, 5e-324, -5e-324, 0.0, -0.0, 1.0, -1.0, 1.5, 3.0]
EXTREME_VALUES = st.one_of(
    st.sampled_from(EXTREMES),
    st.builds(lambda sign, k: sign * math.ldexp(1.0, k),
              st.sampled_from([1.0, -1.0]), st.integers(-1074, 1023)),
    st.floats(-8.0, 8.0),
)
# repr and .17e round-trip; .6g and the integer format round some values
EXACT_FORMATS = ["{!r}", "{:.17e}", "{:.17E}"]
FORMATS = EXACT_FORMATS + ["{:.6g}", "{:.0f}"]

COMMENTS = st.sampled_from(["% a comment", "%", "", "   ", "%%not a header"])


@st.composite
def mtx_files(draw, values=EXTREME_VALUES, formats=FORMATS):
    """(symmetry, N, entries, comments): entries are (i, j, value, format).

    Each diagonal entry is present with probability about 3/4, so that
    dominant files are common; off-diagonal entries come from a small set
    of positions, so duplicates are common. A symmetric file lists its
    lower triangle. ``comments`` maps a line position to the comment lines
    written before it.
    """
    n = draw(st.integers(2, 7))
    symmetry = draw(st.sampled_from(["general", "symmetric"]))
    fmt = st.sampled_from(formats)
    entries = [(k, k, draw(values), draw(fmt))
               for k in range(1, n + 1) if draw(st.integers(0, 3))]
    for _ in range(draw(st.integers(0, 2 * n + 2))):
        i, j = draw(st.integers(1, n)), draw(st.integers(1, n))
        if symmetry == "symmetric":
            i, j = max(i, j), min(i, j)
        entries.append((i, j, draw(values), draw(fmt)))
    entries = draw(st.permutations(entries))
    comments = draw(st.dictionaries(st.integers(0, len(entries) + 1),
                                    st.lists(COMMENTS, min_size=1, max_size=2), max_size=3))
    return symmetry, n, entries, comments


def render(f, scale=1.0) -> str:
    """The text of file ``f``, every value multiplied by ``scale``."""
    symmetry, n, entries, comments = f
    lines = [f"%%MatrixMarket matrix coordinate real {symmetry}"]
    body = [f"{n} {n} {len(entries)}"]
    body += [f"{i} {j} {fmt.format(v * scale)}" for i, j, v, fmt in entries]
    for pos, line in enumerate(body):
        lines += comments.get(pos, []) + [line]
    lines += comments.get(len(body), [])
    return "\n".join(lines) + "\n"


def run_cli(argv) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of ``cli.main(argv)``, warnings raised."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = cli_main(argv)
    return code, out.getvalue(), err.getvalue()


# a whole word: "dominance" holds "nan" and "infeasible" holds "inf"
NON_FINITE = re.compile(r"\b(?:inf|nan)\b", re.IGNORECASE)
MU_FIELD = re.compile(r"\bmu ?= ?inf\b")
FINITE_CELL = re.compile(r"NA|-?\d\.\d{17}e[-+]\d{2,3}|\d+")


def check_output(code: int, out: str, err: str) -> None:
    assert code in (0, 1, 2), (code, out, err)
    if code == 1:
        assert err.startswith("error: ") and len(err.splitlines()) == 1, err
        return
    assert err == ""
    # mu = inf is documented: a column sum or a ratio beyond the float range
    assert not NON_FINITE.search(MU_FIELD.sub("mu = ", out)), out


def reader_error(path: Path) -> str | None:
    """The error line ``bounds`` prints if read_matrix_market rejects the file."""
    try:
        read_matrix_market(path)
    except ValueError as exc:
        return f"error: {exc}\n"
    return None


@GRAMMAR
@given(f=mtx_files())
# dominant, mu = 0.9, but the LU and Varah denominators, 0.019 and 0.1 times
# 5e-324, round to 0: an overflowing constant (exit 2), not a division error
@example(f=("general", 3, [(1, 1, 5e-324, "{!r}"), (2, 2, 1.0, "{!r}"),
                           (3, 3, 1.0, "{!r}"), (3, 2, 0.9, "{!r}")], {}))
def test_every_file_is_handled_or_rejected_with_one_error_line(f):
    with tempfile.TemporaryDirectory() as tmp:
        path, csv = Path(tmp) / "m.mtx", Path(tmp) / "m.csv"
        path.write_text(render(f), encoding="ascii")
        code, out, err = run_cli(["bounds", str(path)])
        check_output(code, out, err)
        # once the file is read, every outcome of bounds is exit 0 or 2
        assert code != 1 or err == reader_error(path), err
        code, out, err = run_cli(["run", "ex3", "--input", str(path), "--out", str(csv)])
        check_output(code, out, err)
        if code != 1:
            header, *rows = csv.read_text().splitlines()
            for row in rows:
                for cell in row.split(","):
                    assert FINITE_CELL.fullmatch(cell), row


@st.composite
def malformed_lines(draw):
    """A line that is neither a size line nor an entry: 2 or 4 integer
    fields, or 3 with one a word, a digit group with ``_`` or, as an index,
    a number that only float reads."""
    fields = [str(draw(st.integers(1, 7))) for _ in range(draw(st.sampled_from([2, 3, 4])))]
    if len(fields) == 3:
        pos = draw(st.integers(0, 2))
        # the value field reads 1.5 and 1e3, so they replace indices only
        bad = ["x", "oops", "1_0", "2_0.5"] + (["1.5", "1e3"] if pos < 2 else [])
        fields[pos] = draw(st.sampled_from(bad))
    return " ".join(fields)


@GRAMMAR
@given(f=mtx_files(), bad=malformed_lines(), data=st.data())
def test_a_malformed_line_is_rejected_at_its_own_line(f, bad, data):
    text = render(f)
    lines = text.splitlines()
    # line numbers of the size line and the entries, past comments and blanks
    body = [k for k, line in enumerate(lines[1:], start=2)
            if line.strip() and not line.strip().startswith("%")]
    k = data.draw(st.sampled_from(body), label="k")
    lines[k - 1] = bad
    with tempfile.TemporaryDirectory() as tmp:
        clean, corrupt = Path(tmp) / "clean.mtx", Path(tmp) / "corrupt.mtx"
        clean.write_text(text, encoding="ascii")
        corrupt.write_text("\n".join(lines) + "\n", encoding="ascii")
        try:
            read_matrix_market(clean)
        except MatrixMarketError:
            reject()  # a sum that overflows: the corrupted file may fail first
        # every line before k is the clean file's, so nothing fails earlier
        with pytest.raises(MatrixMarketError) as exc:
            read_matrix_market(corrupt)
    what = "size line" if k == body[0] else "entry"
    assert str(exc.value) == f"malformed {what} {bad!r} (line {k})"


def scaled_bounds(text: str, k: int) -> tuple[int, str]:
    """Exit code and stdout of ``bounds`` with M and varah multiplied by 2^k."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.mtx"
        path.write_text(text, encoding="ascii")
        code, out, err = run_cli(["bounds", str(path)])
    assert err == ""
    lines = []
    for line in out.splitlines():
        name, _, value = line.partition(" = ")
        if name in ("M", "varah"):
            line = f"{name} = {math.ldexp(float(value), k)!r}"
        lines.append(line)
    return code, "\n".join(lines)


SCALES = [10, -40, 200]


def assert_scale_covariant(text_at, k):
    # 2^k A has the same mu and gamma bits, and M and varah times 2^-k
    assert scaled_bounds(text_at(2.0**k), k) == scaled_bounds(text_at(1.0), 0)


@pytest.fixture(scope="module")
def ex3_input(tmp_path_factory):
    """Path of the seeded N = 512 ex3 stand-in that the benchmark reads."""
    sys.path.insert(0, str(BENCHMARKS))
    try:
        from workloads import write_ex3_input
    finally:
        sys.path.remove(str(BENCHMARKS))
    path = tmp_path_factory.mktemp("ex3") / "ex3.mtx"
    write_ex3_input(path, 1)
    return path


@pytest.fixture(scope="module")
def ex3_entries(ex3_input):
    """Header, size line and entries of the ex3 stand-in."""
    lines = [line for line in ex3_input.read_text().splitlines() if not line.startswith("% ")]
    return lines[:2], [line.split() for line in lines[2:]]


# the full stdout of `run ex3 --input ex3.mtx --out ex3.csv` and of
# `bounds ex3.mtx` on the stand-in, byte for byte
EX3_RUN_STDOUT = """\
ex3: N=512, r_lower=3, r_upper=5, mu=0.531478, dominance=yes, symmetric=no
  lu           M=1.04008, gamma=0.810019
  varah        M=0.581918, gamma=0
  qr           not applicable: rate degenerate: (mu r sqrt(r))^(1/r) = 1.35089 >= 1
  dms          not applicable: nonsymmetric matrix; spectrum-based baselines skipped
  frommer      not applicable: nonsymmetric matrix; spectrum-based baselines skipped
  chui_hasson  not applicable: nonsymmetric matrix; spectrum-based baselines skipped
wrote ex3.csv
"""
EX3_BOUNDS_STDOUT = """\
N=512, r_lower=3, r_upper=5
mu = 0.48872172081417353 (satisfied: yes)
gamma = 0.7876873672930457
M = 0.7180297076010784
varah = 0.44115878710545936
"""


def test_run_ex3_and_bounds_on_the_ex3_input_are_pinned(ex3_input, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    run = ["run", "ex3", "--input", str(ex3_input), "--out", "ex3.csv"]
    assert run_cli(run) == (0, EX3_RUN_STDOUT, "")
    assert run_cli(["bounds", str(ex3_input)]) == (0, EX3_BOUNDS_STDOUT, "")


@pytest.mark.parametrize("k", SCALES)
def test_bounds_is_scale_covariant_on_the_ex3_input(ex3_entries, k):
    head, entries = ex3_entries

    def text_at(scale):
        body = [f"{i} {j} {float(v) * scale!r}" for i, j, v in entries]
        return "\n".join(head + body) + "\n"

    assert_scale_covariant(text_at, k)


# entries stay normal: 7 terms of at most 2^300 times 2^200, and the
# smallest, 2^-300 times 2^-40, are far from both ends of the range
NORMAL_VALUES = st.builds(lambda m, k: math.ldexp(m, k),
                          st.floats(-1.0, 1.0).filter(lambda m: abs(m) >= 0.5),
                          st.integers(-300, 300))


@settings(derandomize=True, deadline=None, max_examples=100)
@given(f=mtx_files(values=NORMAL_VALUES, formats=EXACT_FORMATS), k=st.sampled_from(SCALES))
def test_bounds_is_scale_covariant_on_drawn_files(f, k):
    assert_scale_covariant(lambda scale: render(f, scale), k)
