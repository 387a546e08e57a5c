"""Deterministic RNG helpers (repro.rng)."""

from repro.rng import make_rng


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

