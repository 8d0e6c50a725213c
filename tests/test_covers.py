import random
from fractions import Fraction as F

import pytest

from ddmlab import symbolic
from ddmlab.covers import Cover, TruncationConfig, cover_cost, disjointify, is_valid_cover
from ddmlab.errors import RejectedInputError
from ddmlab.measures import DiracMeasure, MarkovMeasure
from ddmlab.suites import random_cover, random_measure
from ddmlab.symbolic import Window, WindowSet

ALT = DiracMeasure(2, (0, 1))
X = WindowSet.full_space(2)


def cyl(j, *word):
    return WindowSet.cylinder(2, j, word)


REFERENCE_COVER = Cover(((-1, cyl(0, 0)), (0, cyl(0, 1))), base_shift=0)


def test_reference_cover_is_valid_and_free():
    # the two-entry cover of the full space whose cost vanishes for the
    # alternating point mass
    assert is_valid_cover(X, REFERENCE_COVER)
    assert cover_cost(REFERENCE_COVER, ALT) == 0


def test_empty_cover():
    assert not is_valid_cover(cyl(0, 0), Cover((), 0))
    assert is_valid_cover(WindowSet.empty(2), Cover((), 0))


def test_grading_is_checked():
    bad = Cover(((0, cyl(-1, 0)),), base_shift=0)
    assert not is_valid_cover(cyl(-1, 0), bad)
    ok = Cover(((-1, cyl(-1, 0)),), base_shift=0)
    assert is_valid_cover(cyl(-1, 0), ok)
    deep = Cover(((0, cyl(-1, 0)),), base_shift=-1)
    assert is_valid_cover(cyl(-1, 0), deep)


def test_empty_entries_dropped_and_positive_indices_rejected():
    c = Cover(((0, WindowSet.empty(2)), (-1, cyl(0, 1))))
    assert len(c.entries) == 1
    with pytest.raises(RejectedInputError):
        Cover(((1, cyl(0, 0)),))


def test_cover_cost_total_mass():
    mu = MarkovMeasure((F(1, 3), F(2, 3)), ((F(1, 2), F(1, 2)), (F(1, 4), F(3, 4))))
    assert cover_cost(Cover(((0, X),)), mu) == 1


def test_cover_cost_fine_cells_miss_the_point():
    # covering cyl(0,[0]) by its two two-coordinate cells one grade down
    cells = WindowSet.from_words(2, Window(-1, 0), [(0, 0), (1, 0)])
    c = Cover(((-1, cells),), base_shift=0)
    assert is_valid_cover(cyl(0, 0), c)
    assert cover_cost(c, ALT) == 0


def test_cost_base_overrides_pricing():
    c = Cover(((0, cyl(0, 0)),), base_shift=0, cost_base=-1)
    assert cover_cost(c, ALT) == 0  # priced one grade down, the point moves away
    assert cover_cost(Cover(((0, cyl(0, 0)),)), ALT) == 1


class TestDisjointify:
    def test_subtraction_by_the_full_space(self):
        c = Cover(((0, X), (-1, cyl(0, 0))))
        d = disjointify(c)
        assert d.entries == ((0, X),)

    def test_already_disjoint_is_a_fixed_point(self):
        # entries come back coarsest-first; the family itself is unchanged
        d = disjointify(REFERENCE_COVER)
        assert set(d.entries) == set(REFERENCE_COVER.entries)

    def test_random_covers_keep_union_and_never_cost_more(self):
        rng = random.Random(61)
        for _ in range(100):
            c = random_cover(rng, 2, rng.choice([0, -1]), rng.randint(1, 2))
            mu = random_measure(rng, 2)
            d = disjointify(c)
            assert d.union(2) == c.union(2)
            for m1, a1 in d.entries:
                for m2, a2 in d.entries:
                    if m1 != m2:
                        assert not symbolic.meets(a1, a2)
            assert cover_cost(d, mu) <= cover_cost(c, mu)

    def test_merges_entries_sharing_an_index(self):
        c = Cover(((0, cyl(0, 0)), (0, cyl(0, 1))))
        d = disjointify(c)
        assert d.entries == ((0, X),)


def test_truncation_config_validation():
    with pytest.raises(RejectedInputError):
        TruncationConfig(-1)
    with pytest.raises(RejectedInputError):
        TruncationConfig(1, -1)
    with pytest.raises(RejectedInputError):
        TruncationConfig(1, 0, 1)
