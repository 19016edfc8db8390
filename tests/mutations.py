"""Hypothesis strategies for fuzzing file readers: the text of a valid file
with a few characters inserted, deleted or replaced."""

from hypothesis import strategies as st

# digits, which keep most files well formed, characters that change the
# meaning of JSON, edge-list and arrangement text, then any character at all
CHARACTERS = st.one_of(
    st.sampled_from("0123456789"),
    st.sampled_from(list('-+.eE[]{},:" \n\t\\tfalsnu')),
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
