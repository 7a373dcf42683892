"""Hypothesis strategy for random shapes, shared by the property tests."""

from hypothesis import strategies as st

from modmaj.partitions import Partition


@st.composite
def shapes(draw, n_min, n_max):
    """A partition of some n in [n_min, n_max], drawn largest part first."""
    remaining = part = draw(st.integers(min_value=n_min, max_value=n_max))
    parts = []
    while remaining:
        part = draw(st.integers(min_value=1, max_value=min(part, remaining)))
        parts.append(part)
        remaining -= part
    return Partition(parts)
