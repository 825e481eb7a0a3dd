import io

from hypothesis import example, given
from hypothesis import strategies as st

from bioling.lines import Lines

# line ends, whitespace that ends no line, and a few other characters
_TEXT = st.text(alphabet="\n\r \t\x0b\x0c\x1c\x85\u2028\u3000a{}", max_size=40)


@given(_TEXT)
@example(" \t\n\x0c\r\na\r\n\n")
def test_lines_yields_each_line_with_a_non_whitespace_character(text):
    lines = list(Lines(text))
    assert not any(line.isspace() or not line or line.endswith("\n") for _, line in lines)
    # numbered as the lines of a file read with universal newlines
    raw = list(io.StringIO(text, newline=None))
    assert lines == [(n, line.removesuffix("\n")) for n, line in enumerate(raw, 1)
                     if line.strip()]
