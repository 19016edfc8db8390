"""Hypothesis strategies for fuzzing file readers: the text of a valid file
with a few characters inserted, deleted or replaced."""

from hypothesis import settings
from hypothesis import strategies as st

# the characters `str.splitlines` ends a line at and a text file does not,
# and blanks that `str.strip` and `\s` take for whitespace and JSON does not
LINE_BREAKS = "\v\f\x1c\x1d\x1e\x85\u2028\u2029"
NON_JSON_BLANKS = "\xa0\u2003\u3000"

# digits, which keep most files well formed, characters that change the
# meaning of JSON, edge-list and arrangement text, a carriage return and
# the two sets above, then any character at all
CHARACTERS = st.one_of(
    st.sampled_from("0123456789"),
    st.sampled_from(list('-+.eE[]{},:" \n\t\\tfalsnu')),
    st.sampled_from(list("\r" + LINE_BREAKS + NON_JSON_BLANKS)),
    st.characters(codec="utf-8"),
)


@st.composite
def mutated(draw, text, max_edits=3):
    """`text` after 0..max_edits random one-character edits."""
    chars = list(text)
    for _ in range(draw(st.integers(0, max_edits))):
        i = draw(st.integers(0, len(chars)))
        edit = draw(st.sampled_from(("insert", "delete", "replace")))
        if edit == "insert":
            chars.insert(i, draw(CHARACTERS))
        elif i < len(chars):
            if edit == "delete":
                del chars[i]
            else:
                chars[i] = draw(CHARACTERS)
    return "".join(chars)


def examples(count):
    """A fuzz test's example count: `count` under the suite's profile of 100
    examples, scaled with the loaded profile's (twenty times under `long`)."""
    return count * settings().max_examples // 100
