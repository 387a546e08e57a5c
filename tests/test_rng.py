"""Deterministic RNG helpers (repro.rng)."""

from repro.rng import make_rng, stable_shuffle


class TestMakeRng:
    def test_same_seed_same_stream(self):
        a = make_rng(42)
        b = make_rng(42)
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_salt_decorrelates(self):
        a = make_rng(42, "floorplan")
        b = make_rng(42, "traffic")
        assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]

    def test_salted_streams_reproducible(self):
        a = make_rng(7, "x", 3)
        b = make_rng(7, "x", 3)
        assert a.random() == b.random()


class TestStableShuffle:
    def test_is_permutation(self):
        items = list(range(20))
        out = stable_shuffle(items, 1)
        assert sorted(out) == items

    def test_deterministic(self):
        assert stable_shuffle(range(10), 5) == stable_shuffle(range(10), 5)

    def test_does_not_mutate_input(self):
        items = [3, 1, 2]
        stable_shuffle(items, 0)
        assert items == [3, 1, 2]
