import math
import random

import pytest

from ddmlab import symbolic
from ddmlab.errors import RejectedInputError
from ddmlab.symbolic import Window, WindowSet


def cyl(j, *word):
    return WindowSet.cylinder(2, j, word)


X = WindowSet.full_space(2)
EMPTY = WindowSet.empty(2)


def random_set(rng, n=2, lo_range=(-3, 2), max_span=3):
    lo = rng.randint(*lo_range)
    span = rng.randint(1, max_span)
    bits = rng.randrange(0, 1 << (n ** span))
    return WindowSet(n, Window(lo, lo + span - 1), bits)


# oracle: a shift by i moves the word table to the translated window verbatim
def shifted_words(s, i):
    key = s.canonical_key()
    if key in (("empty",), ("full",)):
        return key
    lo, hi, _ = key
    return (lo - i, hi - i, tuple(s.iter_words()))


def set_key(s):
    key = s.canonical_key()
    if key in (("empty",), ("full",)):
        return key
    lo, hi, _ = key
    return (lo, hi, tuple(s.iter_words()))


class TestCanonicalForm:
    def test_idempotent(self):
        rng = random.Random(11)
        for _ in range(200):
            s = random_set(rng)
            c = s.canonicalize()
            assert c.canonicalize() == c
            assert c == s

    def test_full_and_empty_collapse(self):
        w = Window(-1, 1)
        assert WindowSet(2, w, 0) == EMPTY
        assert WindowSet(2, w, (1 << 8) - 1) == X

    def test_redundant_coordinates_trimmed(self):
        # same cylinder written on a wider window
        wide = symbolic.refine(cyl(0, 1), Window(-2, 2))
        assert wide.window == Window(-2, 2)
        assert wide == cyl(0, 1)
        assert wide.canonicalize().window == Window(0, 0)

    def test_min_coordinate(self):
        assert cyl(0, 0).min_coordinate() == 0
        probe = symbolic.intersection(cyl(-3, 1), cyl(2, 0))
        assert probe.min_coordinate() == -3
        assert X.min_coordinate() == math.inf
        assert EMPTY.min_coordinate() == math.inf


class TestRefine:
    def test_adds_free_coordinates(self):
        r = symbolic.refine(cyl(0, 0), Window(-1, 0))
        assert sorted(r.words_on(Window(-1, 0))) == [(0, 0), (1, 0)]

    def test_degenerate(self):
        assert symbolic.refine(EMPTY, Window(0, 3)) == EMPTY
        r = symbolic.refine(X, Window(-2, 2))
        assert len(list(r.words_on(Window(-2, 2)))) == 32

    def test_rejects_non_containing_window(self):
        with pytest.raises(RejectedInputError):
            symbolic.refine(cyl(0, 0, 1), Window(1, 4))

    def test_rejects_out_of_bounds(self):
        with pytest.raises(RejectedInputError):
            Window(-100, 0)
        with pytest.raises(RejectedInputError):
            symbolic.shift(cyl(0, 1), -65)


class TestAlgebra:
    def test_complementary_cylinders(self):
        assert symbolic.union(cyl(0, 0), cyl(0, 1)) == X

    def test_independent_coordinates(self):
        meet = symbolic.intersection(cyl(0, 0), cyl(1, 0))
        assert set_key(meet) == (0, 1, ((0, 0),))

    def test_complement(self):
        assert symbolic.difference(X, cyl(0, 0)) == cyl(0, 1)
        assert symbolic.complement(cyl(0, 0)) == cyl(0, 1)

    def test_laws(self):
        rng = random.Random(5)
        for _ in range(120):
            a, b, c = (random_set(rng) for _ in range(3))
            assert symbolic.union(a, symbolic.union(b, c)) == symbolic.union(
                symbolic.union(a, b), c
            )
            assert symbolic.intersection(a, symbolic.intersection(b, c)) == (
                symbolic.intersection(symbolic.intersection(a, b), c)
            )
            # De Morgan
            assert symbolic.complement(symbolic.union(a, b)) == symbolic.intersection(
                symbolic.complement(a), symbolic.complement(b)
            )
            assert symbolic.difference(a, b) == symbolic.intersection(
                a, symbolic.complement(b)
            )


class TestShift:
    def test_moves_the_constraint(self):
        assert symbolic.shift(cyl(0, 0), -1) == cyl(1, 0)

    def test_full_space_invariant(self):
        for i in (-3, 0, 2):
            assert symbolic.shift(X, i) == X

    def test_round_trip_against_word_oracle(self):
        rng = random.Random(23)
        for _ in range(100):
            s = random_set(rng).canonicalize()
            i = rng.randint(-3, 3)
            moved = symbolic.shift(s, i)
            assert shifted_words(s, i) == set_key(moved)
            assert symbolic.shift(moved, -i) == s

    def test_algebra_automorphism(self):
        rng = random.Random(31)
        for _ in range(100):
            a, b = random_set(rng), random_set(rng)
            i = rng.randint(-2, 2)
            for op in ("union", "intersection", "difference"):
                lhs = symbolic.shift(symbolic.set_algebra(a, b, op), i)
                rhs = symbolic.set_algebra(
                    symbolic.shift(a, i), symbolic.shift(b, i), op
                )
                assert lhs == rhs

    def test_min_coordinate_translates(self):
        rng = random.Random(7)
        for _ in range(100):
            s = random_set(rng)
            i = rng.randint(-2, 2)
            before = s.min_coordinate()
            after = symbolic.shift(s, i).min_coordinate()
            if before != math.inf:
                assert after == before - i


class TestProjection:
    def test_saturation_forgets_left_coordinates(self):
        s = symbolic.intersection(cyl(-2, 1), cyl(0, 0))
        proj = symbolic.project_min(s, 0)
        assert proj == cyl(0, 0)
        assert symbolic.project_min(s, -2) == s
        assert symbolic.project_min(s, 1) == X

    def test_contains_original(self):
        rng = random.Random(13)
        for _ in range(100):
            s = random_set(rng)
            g = rng.randint(-2, 2)
            proj = symbolic.project_min(s, g)
            assert symbolic.is_subset(s, proj)
            assert proj.min_coordinate() >= g


def test_word_rank_layout():
    # lo is the most significant digit
    assert symbolic.word_rank(2, (1, 0, 1)) == 5
    assert symbolic.rank_word(2, 3, 5) == (1, 0, 1)
    s = WindowSet.from_words(2, Window(0, 1), [(1, 0)])
    assert s.bits == 1 << 2


def test_literal_forms():
    assert X.literal() == "full"
    assert EMPTY.literal() == "empty"
    assert cyl(-1, 1, 0).literal() == "cyl(-1,[1,0])"
    assert "union(" in symbolic.union(cyl(0, 0, 0), cyl(0, 1, 1)).literal()


class TestBornCanonical:
    """A cylinder carries its canonical key from birth, a canonical set is
    its own canonical form, and windows are shared values."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_cylinder_key_equals_the_computed_key(self, n):
        for start in (-2, 0, 3):
            for span in (1, 2, 3):
                for rank in range(n ** span):
                    word = symbolic.rank_word(n, span, rank)
                    s = WindowSet.cylinder(n, start, word)
                    assert s._key is not None
                    assert s._key == symbolic._canonical_key(n, s.window, s.bits, s._full)

    def test_canonical_set_is_its_own_canonical_form(self):
        rng = random.Random(12)
        for _ in range(200):
            s = random_set(rng)
            c = s.canonicalize()
            assert c.canonicalize() is c
            assert c == s
        c = cyl(0, 1, 0)
        assert c.canonicalize() is c
        for degenerate in (X, EMPTY):
            assert degenerate.canonicalize() is degenerate

    def test_a_canonical_bitset_set_is_born_with_its_key(self, monkeypatch):
        # the key of the set canonicalize makes is the key it just computed,
        # so neither the set nor a union of such sets computes it again
        rng = random.Random(13)
        sets = [random_set(rng) for _ in range(200)]
        made = [s.canonicalize() for s in sets]
        for s, c in zip(sets, made):
            if c.window is not None:
                assert c._key == symbolic._canonical_key(c.n, c.window, c.bits, c._full)
        computed = []
        key = symbolic._canonical_key
        monkeypatch.setattr(symbolic, "_canonical_key",
                            lambda *args: computed.append(1) or key(*args))
        u = symbolic.union(cyl(0, 0, 1), cyl(0, 0, 0))
        assert len(computed) == 1  # the union's result on [0, 1], once
        assert u.window == Window(0, 0)
        assert u.canonical_key() == key(u.n, u.window, u.bits, u._full)
        assert len(computed) == 1

    def test_redundant_set_canonicalizes_to_an_equal_new_set(self):
        wide = symbolic.refine(cyl(0, 1), Window(-2, 2))
        c = wide.canonicalize()
        assert c is not wide and c == wide and c.window == Window(0, 0)
        for degenerate in (WindowSet(2, Window(-1, 1), 0), WindowSet(2, Window(0, 1), 15)):
            c = degenerate.canonicalize()
            assert c is not degenerate and c == degenerate and c.window is None

    def test_one_window_per_pair(self):
        assert symbolic._window(-3, 2) is symbolic._window(-3, 2)
        assert cyl(-1, 0, 1).window is cyl(-1, 1, 1).window is symbolic._window(-1, 0)
        u = symbolic.union(cyl(0, 0, 1), cyl(0, 1, 0))
        assert u.window is symbolic._window(0, 1)

    def test_the_table_holds_only_valid_windows(self):
        with pytest.raises(RejectedInputError, match="coordinate 65 outside the configured bound"):
            symbolic._window(0, 65)
        with pytest.raises(RejectedInputError, match="coordinate 65 outside the configured bound"):
            WindowSet.cylinder(2, 64, (0, 1))
        with pytest.raises(RejectedInputError, match="is empty"):
            symbolic._window(2, 1)
        assert (0, 65) not in symbolic._WINDOWS and (64, 65) not in symbolic._WINDOWS
        assert (2, 1) not in symbolic._WINDOWS
        bound = symbolic.MAX_ABS_COORDINATE
        for (lo, hi), window in symbolic._WINDOWS.items():
            assert -bound <= lo <= hi <= bound
            assert (window.lo, window.hi) == (lo, hi)
        assert len(symbolic._WINDOWS) <= (2 * bound + 1) * (2 * bound + 2) // 2

    def test_rank_word_inverts_word_rank(self):
        for n in (1, 2, 3):
            for span in range(5):
                for rank in range(n ** span):
                    word = symbolic.rank_word(n, span, rank)
                    assert len(word) == span
                    assert symbolic.word_rank(n, word) == rank


class TestUnionAll:
    def test_no_sets_give_the_empty_set(self):
        u = symbolic.union_all(2, [])
        assert u == EMPTY and u.window is None

    def test_one_set_gives_its_canonical_form(self):
        wide = symbolic.refine(cyl(0, 1), Window(-2, 2))
        u = symbolic.union_all(2, iter([wide]))
        assert u == wide and u.canonicalize() is u
        with pytest.raises(RejectedInputError, match="different alphabets"):
            symbolic.union_all(3, [wide])

    def test_several_sets_fold_the_union(self):
        rng = random.Random(13)
        for count in range(2, 6):
            sets = [random_set(rng) for _ in range(count)]
            expected = EMPTY
            for s in sets:
                expected = symbolic.union(expected, s)
            u = symbolic.union_all(2, (s for s in sets))
            assert u == expected and u.canonicalize() is u
