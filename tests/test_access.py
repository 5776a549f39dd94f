"""Access recording: programs, gaps, tags."""

import pytest

from repro.mem.access import AccessContext, TAGS, TAG_OTHER
from repro.mem.region import Region


def region(base=0, size=4096, domain=0):
    return Region(name="t", base=base, size=size, domain=domain)


def test_touch_records_line_and_gap():
    ctx = AccessContext()
    ctx.compute(100, 50)
    ctx.touch(region(base=256), 0, 4)
    assert ctx.references() == [(100, 4, TAG_OTHER)]
    assert ctx.instructions == 50


def test_gap_attaches_to_first_reference_only():
    ctx = AccessContext()
    ctx.compute(30, 10)
    ctx.touch(region(), 0, 200)  # spans 4 lines
    refs = ctx.references()
    assert [g for g, _, _ in refs] == [30, 0, 0, 0]
    assert [line for _, line, _ in refs] == [0, 1, 2, 3]


def test_touch_multiline_boundary():
    ctx = AccessContext()
    ctx.touch(region(), 60, 8)  # straddles line 0/1
    assert ctx.lines_touched() == [0, 1]


def test_touch_line_and_tags():
    tag = TAGS.register("test_tag_alpha")
    ctx = AccessContext()
    ctx.touch_line(77, tag)
    assert ctx.references() == [(0, 77, tag)]


def test_tag_registry_is_stable():
    a = TAGS.register("test_tag_stable")
    b = TAGS.register("test_tag_stable")
    assert a == b
    assert TAGS.name(a) == "test_tag_stable"
    assert "test_tag_stable" in TAGS


def test_finish_packet_moves_pending_to_trailing():
    ctx = AccessContext()
    ctx.touch(region(), 0, 1)
    ctx.compute(42, 5)
    ctx.finish_packet()
    assert ctx.trailing_gap == 42
    assert ctx.total_gap_cycles() == 42


def test_reset_clears_everything():
    ctx = AccessContext()
    ctx.compute(10, 10)
    ctx.touch(region(), 0, 1)
    ctx.mark_idle(5)
    ctx.reset()
    assert ctx.program == []
    assert ctx.instructions == 0
    assert ctx.trailing_gap == 0
    assert not ctx.is_idle


def test_mark_idle_requires_progress():
    ctx = AccessContext()
    with pytest.raises(ValueError):
        ctx.mark_idle(0)
    ctx.mark_idle(10)
    assert ctx.is_idle


def test_cost_pairs():
    ctx = AccessContext()
    ctx.cost((7, 3))
    ctx.cost((5, 2))
    ctx.touch(region(), 0, 1)
    assert ctx.references()[0][0] == 12
    assert ctx.instructions == 5


def test_touch_entry():
    ctx = AccessContext()
    ctx.touch_entry(region(), index=3, entry_bytes=64)
    assert ctx.lines_touched() == [3]


def test_n_references():
    ctx = AccessContext()
    for i in range(5):
        ctx.touch_line(i)
    assert ctx.n_references == 5


def test_program_layout_is_flat_ints():
    ctx = AccessContext()
    ctx.compute(9, 1)
    ctx.touch_line(123, 0)
    assert ctx.program == [9, 123, 0]


@pytest.mark.parametrize("offset", [0, 64, 5, 70])
@pytest.mark.parametrize("length", [0, -1])
def test_touch_rejects_empty_range(offset, length):
    # Zero bytes used to record one reference at an unaligned offset and
    # none at an aligned one; both now raise and record nothing.
    ctx = AccessContext()
    ctx.compute(11, 1)
    with pytest.raises(ValueError, match="positive"):
        ctx.touch(region(), offset, length)
    ctx.finish_packet()
    assert ctx.program == []
    assert ctx.trailing_gap == 11
