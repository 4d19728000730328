import numpy as np
import pytest

from sentprofile.errors import ConfigError, DataError
from sentprofile.folds import stratified_kfold

from conftest import validate_plan


def records(n_a, n_b, label_a="male", label_b="female"):
    return [(f"a{i}", label_a) for i in range(n_a)] + \
        [(f"b{i}", label_b) for i in range(n_b)]


class TestStratifiedKfold:
    def test_3138_users_fold_sizes(self):
        # 3 to 1 class imbalance over 3138 ids: 3138 = 3*628 + 2*627
        plan = stratified_kfold(records(2353, 785), k=5, seed=0)
        sizes = sorted(len(f) for f in plan.folds)
        assert sizes == [627, 627, 628, 628, 628]

    def test_perfect_stratification_ten_users(self):
        plan = stratified_kfold(records(5, 5), k=5, seed=1)
        for fold in plan.folds:
            labels = {uid[0] for uid in fold}
            assert len(fold) == 2
            assert labels == {"a", "b"}

    def test_deterministic(self):
        plan1 = stratified_kfold(records(40, 25), k=5, seed=9)
        plan2 = stratified_kfold(records(40, 25), k=5, seed=9)
        assert plan1 == plan2

    def test_different_seed_differs(self):
        plan1 = stratified_kfold(records(40, 25), k=5, seed=1)
        plan2 = stratified_kfold(records(40, 25), k=5, seed=2)
        assert plan1 != plan2

    def test_class_smaller_than_k(self):
        with pytest.raises(DataError, match="fewer than k"):
            stratified_kfold(records(10, 3), k=5, seed=0)

    def test_k_validation(self):
        with pytest.raises(ConfigError):
            stratified_kfold(records(5, 5), k=1, seed=0)

    def test_duplicate_ids_rejected(self):
        with pytest.raises(DataError, match="duplicate"):
            stratified_kfold([("u", "male"), ("u", "female")], k=2, seed=0)

    def test_accepts_pairs_from_a_generator(self):
        from sentprofile.corpus import VirtualDocument
        docs = [VirtualDocument(f"u{i}", "male" if i % 2 else "female",
                                ("t",)) for i in range(10)]
        plan = stratified_kfold(((d.user_id, d.gender) for d in docs), k=2,
                                seed=0)
        assert sorted(uid for fold in plan.folds for uid in fold) == \
            sorted(d.user_id for d in docs)

    def test_split_partitions(self):
        plan = stratified_kfold(records(12, 8), k=4, seed=3)
        for i in range(4):
            train, test = plan.split(i)
            assert set(train) | set(test) == {uid for fold in plan.folds
                                              for uid in fold}
            assert not set(train) & set(test)

    def test_randomized_invariants(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n_a = int(rng.integers(150, 600))
            n_b = int(rng.integers(150, 600))
            k = int(rng.integers(2, 8))
            recs = records(n_a, n_b)
            plan = stratified_kfold(recs, k=k, seed=int(rng.integers(1000)))
            report = validate_plan(plan, recs)
            assert report["disjoint"] and report["exhaustive"]
            assert report["size_spread"] <= 1
            assert report["max_proportion_deviation"] <= 0.02
