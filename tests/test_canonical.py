import random

from intpoints.pointset import DistanceMatrix, canonical_form, is_canonical

from .oracles import naive_canonical


def random_matrix(rng, n, max_d=50):
    """Random symmetric positive matrix (not necessarily realizable)."""
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = rng.randint(1, max_d)
    return DistanceMatrix(rows)


class TestCanonicalForm:
    def test_345_triangle(self):
        m = DistanceMatrix([[0, 3, 4], [3, 0, 5], [4, 5, 0]])
        canon, perm = canonical_form(m)
        assert (canon.rows[0][1], canon.rows[0][2], canon.rows[1][2]) == (5, 4, 3)
        assert canon == m.permuted(perm)
        assert not is_canonical(m)

    def test_heptagons_already_canonical(self, heptagon1, heptagon2):
        for m in (heptagon1, heptagon2):
            canon, perm = canonical_form(m)
            assert canon == m
            assert perm == (0, 1, 2, 3, 4, 5, 6)
            assert is_canonical(m)

    def test_idempotent(self, heptagon1):
        rng = random.Random(5)
        for _ in range(20):
            m = random_matrix(rng, rng.randint(2, 6))
            canon, _ = canonical_form(m)
            again, perm = canonical_form(canon)
            assert again == canon
            assert perm == tuple(range(m.n))

    def test_single_point(self):
        m = DistanceMatrix([[0]])
        assert is_canonical(m)
        assert canonical_form(m) == (m, (0,))

    def test_diameter_lands_first(self):
        rng = random.Random(99)
        for _ in range(200):
            m = random_matrix(rng, rng.randint(2, 7))
            canon, _ = canonical_form(m)
            assert canon.entry(0, 1) == canon.diameter()

    def test_permutation_invariance_exhaustive_small(self):
        from itertools import permutations

        rng = random.Random(12)
        for _ in range(25):
            n = rng.randint(2, 5)
            m = random_matrix(rng, n, max_d=6)
            canon, _ = canonical_form(m)
            for perm in permutations(range(n)):
                assert canonical_form(m.permuted(perm))[0] == canon

    def test_permutation_invariance_randomized(self):
        rng = random.Random(174)
        for _ in range(150):
            n = rng.randint(2, 7)
            m = random_matrix(rng, n)
            canon, _ = canonical_form(m)
            perm = list(range(n))
            rng.shuffle(perm)
            canon2, _ = canonical_form(m.permuted(perm))
            assert canon2 == canon

    def test_agrees_with_naive_enumeration(self):
        rng = random.Random(8)
        for trial in range(1000):
            n = rng.randint(1, 5)
            # small distance range provokes plenty of ties
            m = random_matrix(rng, n, max_d=4 if trial % 2 else 40)
            canon, perm = canonical_form(m)
            expected, expected_perm = naive_canonical(m)
            assert canon == expected
            assert perm == expected_perm

    def test_agrees_with_naive_on_heptagon(self, heptagon1):
        rng = random.Random(13)
        perm = list(range(7))
        for _ in range(5):
            rng.shuffle(perm)
            shuffled = heptagon1.permuted(perm)
            canon, _ = canonical_form(shuffled)
            assert canon == naive_canonical(shuffled)[0] == heptagon1
