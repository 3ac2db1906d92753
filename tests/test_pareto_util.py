"""Unit tests for the Pareto-frontier container."""


from repro.util.pareto import ParetoFrontier, dominates


class TestDominates:
    def test_strict_both(self):
        assert dominates(1.0, 5.0, 2.0, 4.0)

    def test_equal_points_do_not_dominate(self):
        assert not dominates(1.0, 5.0, 1.0, 5.0)

    def test_one_coordinate_strict(self):
        assert dominates(1.0, 5.0, 1.0, 4.0)
        assert dominates(1.0, 5.0, 2.0, 5.0)

    def test_incomparable(self):
        assert not dominates(1.0, 3.0, 2.0, 5.0)
        assert not dominates(2.0, 5.0, 1.0, 3.0)


class TestParetoFrontier:
    def test_insert_and_len(self):
        f = ParetoFrontier()
        assert f.insert(1.0, 10.0)
        assert f.insert(2.0, 20.0)
        assert len(f) == 2

    def test_dominated_rejected(self):
        f = ParetoFrontier()
        f.insert(1.0, 10.0)
        assert not f.insert(2.0, 5.0)
        assert not f.insert(1.0, 10.0)  # duplicate: incumbent wins
        assert len(f) == 1

    def test_dominating_removes(self):
        f = ParetoFrontier()
        f.insert(2.0, 5.0)
        f.insert(3.0, 8.0)
        assert f.insert(1.0, 9.0)  # dominates both
        assert len(f) == 1
        assert f.costs == (1.0,)

    def test_sorted_invariant(self):
        f = ParetoFrontier()
        pts = [(3.0, 30.0), (1.0, 10.0), (2.0, 20.0), (0.5, 5.0)]
        for c, v in pts:
            f.insert(c, v)
        assert list(f.costs) == sorted(f.costs)
        assert list(f.values) == sorted(f.values)

    def test_partial_removal(self):
        f = ParetoFrontier()
        f.insert(1.0, 1.0)
        f.insert(2.0, 2.0)
        f.insert(3.0, 3.0)
        # Dominates the middle and last but not the first.
        assert f.insert(1.5, 4.0)
        assert f.costs == (1.0, 1.5)
        assert f.values == (1.0, 4.0)

    def test_equal_cost_better_value_replaces(self):
        f = ParetoFrontier()
        f.insert(1.0, 1.0)
        assert f.insert(1.0, 2.0)
        assert len(f) == 1
        assert f.values == (2.0,)

    def test_equal_cost_worse_value_rejected(self):
        f = ParetoFrontier()
        f.insert(1.0, 2.0)
        assert not f.insert(1.0, 1.0)

    def test_best_value_within(self):
        f = ParetoFrontier()
        f.insert(1.0, 10.0, "a")
        f.insert(2.0, 20.0, "b")
        f.insert(4.0, 40.0, "c")
        assert f.best_value_within(3.0) == (20.0, "b")
        assert f.best_value_within(0.5) is None
        assert f.best_value_within(100.0) == (40.0, "c")
        assert f.best_value_within(2.0) == (20.0, "b")  # inclusive

    def test_payload_carried(self):
        f = ParetoFrontier()
        f.insert(1.0, 10.0, {"k": 1})
        (c, v, payload), = list(f)
        assert payload == {"k": 1}

    def test_mutual_nondomination_invariant_random(self):
        import random

        rnd = random.Random(42)
        f = ParetoFrontier()
        pts = [(rnd.uniform(0, 10), rnd.uniform(0, 10)) for _ in range(300)]
        for c, v in pts:
            f.insert(c, v)
        items = [(c, v) for c, v, _ in f]
        for i, a in enumerate(items):
            for j, b in enumerate(items):
                if i != j:
                    assert not dominates(a[0], a[1], b[0], b[1]) or a == b
        # Every inserted point is dominated-or-equal by something kept.
        for c, v in pts:
            assert any(kc <= c and kv >= v for kc, kv in items)
