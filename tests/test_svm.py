import itertools
import math

import numpy as np
import pytest

from biasaudit.errors import (
    DegenerateDataError,
    InsufficientDataError,
    ParameterError,
    RowError,
    SchemaError,
)
from biasaudit.svm import (
    CodeMatrix,
    FeatureMode,
    _pair_rows,
    _pairwise_aucs,
    auc_from_scores,
    cross_validated_auc,
    decision_score,
    featurize,
    load_codes_csv,
    save_codes_csv,
    train_svm_smo,
)


def make_blobs(seed=2, n_per=40, d=8, offset=1.0, scale=0.6):
    rng = np.random.default_rng(seed)
    x = np.vstack(
        [
            rng.normal(offset, scale, (n_per, d)),
            rng.normal(-offset, scale, (n_per, d)),
        ]
    )
    y = np.concatenate([np.ones(n_per), -np.ones(n_per)])
    return x, y


def make_xor(seed=5, n_per=20, spread=0.3):
    rng = np.random.default_rng(seed)
    centers = [((0.0, 0.0), 1.0), ((2.0, 2.0), 1.0), ((0.0, 2.0), -1.0), ((2.0, 0.0), -1.0)]
    xs, ys = [], []
    for (cx, cy), label in centers:
        xs.append(rng.normal((cx, cy), spread, (n_per, 2)))
        ys.append(np.full(n_per, label))
    return np.vstack(xs), np.concatenate(ys)


def model_scores(model, x):
    return np.array([decision_score(model, row) for row in x])


def best_linear_accuracy(x, y, angles=3600):
    """Best 1-D threshold accuracy over a dense sweep of projection angles."""
    best = 0.0
    n = len(y)
    for k in range(angles):
        theta = math.pi * k / angles
        z = x[:, 0] * math.cos(theta) + x[:, 1] * math.sin(theta)
        order = np.argsort(z, kind="stable")
        pos_left = np.concatenate([[0], np.cumsum(y[order] > 0)])
        neg_left = np.arange(n + 1) - pos_left
        # accept "left side positive" or its mirror at every cut position
        correct = np.maximum(
            pos_left + (neg_left[-1] - neg_left),
            neg_left + (pos_left[-1] - pos_left),
        )
        best = max(best, float(correct.max()) / n)
    return best


def dual_objective(model):
    sv = model.support_vectors
    a = model.alphas  # signed alpha_i * y_i
    sq = (
        np.sum(sv * sv, axis=1)[:, None]
        + np.sum(sv * sv, axis=1)[None, :]
        - 2.0 * sv @ sv.T
    )
    kmat = np.exp(-model.gamma * np.maximum(sq, 0.0))
    return float(np.sum(np.abs(a)) - 0.5 * a @ kmat @ a)


def brute_force_dual(kmat, y, c):
    """Global maximum of the soft-margin dual by enumerating every
    at-zero / at-cap / free pattern and solving the stationarity system."""
    n = len(y)
    q = kmat * np.outer(y, y)
    best = None
    for pattern in itertools.product((0, 1, 2), repeat=n):
        at_c = [i for i, p in enumerate(pattern) if p == 1]
        free = [i for i, p in enumerate(pattern) if p == 2]
        alpha = np.zeros(n)
        alpha[at_c] = c
        if free:
            m = len(free)
            sys_a = np.zeros((m + 1, m + 1))
            sys_a[:m, :m] = q[np.ix_(free, free)]
            sys_a[:m, m] = y[free]
            sys_a[m, :m] = y[free]
            rhs = np.zeros(m + 1)
            rhs[:m] = 1.0
            if at_c:
                rhs[:m] -= q[np.ix_(free, at_c)] @ np.full(len(at_c), c)
                rhs[m] = -c * float(np.sum(y[at_c]))
            try:
                sol = np.linalg.solve(sys_a, rhs)
            except np.linalg.LinAlgError:
                continue
            if np.any(sol[:m] < -1e-9) or np.any(sol[:m] > c + 1e-9):
                continue
            alpha[free] = sol[:m]
        if abs(float(alpha @ y)) > 1e-8:
            continue
        val = float(np.sum(alpha) - 0.5 * alpha @ q @ alpha)
        if best is None or val > best:
            best = val
    return best


class TestCodeMatrix:
    def test_validation(self):
        with pytest.raises(ParameterError):
            CodeMatrix([(0, 1)], ["a"], k=1)
        with pytest.raises(ParameterError):
            CodeMatrix([()], ["a"], k=4)  # d = 0
        with pytest.raises(ParameterError):
            CodeMatrix(np.empty((0, 2), dtype=np.int64), [], k=4)  # n = 0
        with pytest.raises(ParameterError):
            CodeMatrix([(0, 1)], [""], k=4)
        with pytest.raises(ParameterError):
            CodeMatrix([(0, 1), (1, 2)], ["a"], k=4)  # one label for two rows
        with pytest.raises(ParameterError):
            CodeMatrix([(0, 4)], ["a"], k=4)
        with pytest.raises(ParameterError):
            CodeMatrix([(0, -1)], ["a"], k=4)
        with pytest.raises(ParameterError):
            CodeMatrix([(0.5, 1)], ["a"], k=4)
        with pytest.raises(ParameterError):
            CodeMatrix(np.array([[0.0, 1.0]]), ["a"], k=4)  # integral floats too
        with pytest.raises(ParameterError):
            CodeMatrix(np.array([[False, True]]), ["a"], k=4)
        with pytest.raises(ParameterError):
            CodeMatrix([0, 1, 2], ["a", "a", "a"], k=4)  # not a matrix

    def test_pipe_in_group_label_rejected(self):
        with pytest.raises(ParameterError, match=r"'y\|z'"):
            CodeMatrix([(0, 1)] * 3, ["x", "y|z", "z"], k=4)

    def test_ragged_rows_rejected(self):
        with pytest.raises(ParameterError):
            CodeMatrix([(0, 1, 2), (0, 1)] * 10, ["a", "b"] * 10, k=8)

    def test_columns(self):
        m = CodeMatrix(np.array([[3, 1], [0, 7], [2, 2]], dtype=np.uint8), ["b", "a", "b"], k=8)
        assert m.codes.dtype == np.int64 and m.codes.shape == (3, 2)
        assert not m.codes.flags.writeable and not m.group_codes.flags.writeable
        assert m.groups() == ["a", "b"]
        assert m.group_codes.tolist() == [1, 0, 1]
        assert m.labels() == ["b", "a", "b"]
        assert len(m) == 3 and m.k == 8
        sub = m.take([2, 1])
        assert sub.codes.tolist() == [[2, 2], [0, 7]]
        assert sub.labels() == ["b", "a"]


class TestFeaturize:
    def test_scaled_indices(self):
        m = CodeMatrix([(0, 7, 3)], ["g"], k=8)
        np.testing.assert_array_equal(featurize(m), [[0.0, 1.0, 3.0 / 7.0]])

    def test_histogram(self):
        m = CodeMatrix([(0, 0, 3, 1)], ["g"], k=4)
        h = featurize(m, FeatureMode.CODE_HISTOGRAM)
        np.testing.assert_array_equal(h, [[0.5, 0.25, 0.0, 0.25]])
        assert h.sum() == 1.0

    def test_histogram_length_is_codebook_size(self):
        m = CodeMatrix([(2, 2, 2)], ["g"], k=16)
        assert featurize(m, FeatureMode.CODE_HISTOGRAM).shape == (1, 16)

    def test_many_rows_match_per_row_features(self):
        rng = np.random.default_rng(31)
        codes = rng.integers(0, 10, (25, 7))
        m = CodeMatrix(codes, ["a", "b"] * 12 + ["a"], k=10)
        scaled = featurize(m, FeatureMode.SCALED_INDICES)
        hist = featurize(m, FeatureMode.CODE_HISTOGRAM)
        assert scaled.shape == (25, 7) and hist.shape == (25, 10)
        for i, row in enumerate(codes):
            assert scaled[i].tolist() == (row / 9).tolist()
            assert hist[i].tolist() == (np.bincount(row, minlength=10) / 7).tolist()


class TestTrainSvmSmo:
    def test_separable_blobs_fit_perfectly(self):
        x, y = make_blobs()
        model = train_svm_smo(x, y)
        assert model.converged
        scores = model_scores(model, x)
        assert np.all(np.sign(scores) == y)

    def test_xor_needs_the_kernel(self):
        x, y = make_xor()
        model = train_svm_smo(x, y, c=5.0)
        rbf_acc = float(np.mean(np.sign(model_scores(model, x)) == y))
        assert rbf_acc >= 0.95
        assert best_linear_accuracy(x, y) <= 0.75 + 1e-12

    def test_label_flip_negates_scores_exactly(self):
        rng = np.random.default_rng(7)
        x = rng.random((30, 5))
        y = np.where(x[:, 0] > 0.5, 1.0, -1.0)
        y[[0, 5, 9]] *= -1.0  # a few flips so the classes overlap
        m_pos = train_svm_smo(x, y, c=2.0, tol=1e-5)
        m_neg = train_svm_smo(x, -y, c=2.0, tol=1e-5)
        assert m_neg.bias == -m_pos.bias
        probe = rng.random((12, 5))
        s_pos = model_scores(m_pos, probe)
        s_neg = model_scores(m_neg, probe)
        assert np.max(np.abs(s_pos + s_neg)) == 0.0

    def test_alphas_bounded_by_cap(self):
        x, y = make_xor(seed=6, spread=0.8)
        for c in (0.5, 1.0, 3.0):
            model = train_svm_smo(x, y, c=c)
            assert np.all(np.abs(model.alphas) <= c + 1e-12)
            assert model.support_vectors.shape[0] == model.alphas.shape[0]
            assert 1 <= model.passes <= 200

    def test_kkt_violations_within_tol_at_convergence(self):
        x, y = make_xor(seed=12, spread=0.5)
        tol = 1e-6
        model = train_svm_smo(x, y, c=1.5, tol=tol, max_passes=2000)
        assert model.converged
        # rebuild the full dual vector by matching support rows to input rows
        signed = np.zeros(len(y))
        row_index = {row.tobytes(): i for i, row in enumerate(x)}
        for sv_row, a in zip(model.support_vectors, model.alphas):
            signed[row_index[sv_row.tobytes()]] = a
        alpha = signed * y
        assert np.all(alpha >= -1e-12)
        sq = (
            np.sum(x * x, axis=1)[:, None]
            + np.sum(x * x, axis=1)[None, :]
            - 2.0 * x @ x.T
        )
        kmat = np.exp(-model.gamma * np.maximum(sq, 0.0))
        resid = y - kmat @ signed
        c = model.regularization_c
        up = ((y > 0) & (alpha < c - 1e-9)) | ((y < 0) & (alpha > 1e-9))
        dn = ((y > 0) & (alpha > 1e-9)) | ((y < 0) & (alpha < c - 1e-9))
        gap = float(np.max(resid[up]) - np.min(resid[dn]))
        assert gap <= tol * 1.01 + 1e-9

    def test_free_support_vectors_sit_on_the_margin(self):
        x, y = make_blobs(seed=9, n_per=25, d=4, offset=0.9, scale=0.7)
        tol = 1e-6
        model = train_svm_smo(x, y, c=10.0, tol=tol, max_passes=2000)
        assert model.converged
        free = np.abs(model.alphas) < model.regularization_c - 1e-6
        assert free.any()
        scores = model_scores(model, model.support_vectors[free])
        assert np.max(np.abs(np.abs(scores) - 1.0)) <= 1e-4

    def test_dual_matches_exhaustive_qp(self):
        rng = np.random.default_rng(404)
        for trial in range(8):
            n = 8
            x = rng.random((n, 3))
            y = np.ones(n)
            y[rng.permutation(n)[: n // 2]] = -1.0
            c = float(rng.uniform(0.5, 2.0))
            model = train_svm_smo(x, y, c=c, gamma=0.8, tol=1e-10, max_passes=500)
            assert model.converged
            sq = (
                np.sum(x * x, axis=1)[:, None]
                + np.sum(x * x, axis=1)[None, :]
                - 2.0 * x @ x.T
            )
            kmat = np.exp(-0.8 * np.maximum(sq, 0.0))
            best = brute_force_dual(kmat, y, c)
            mine = dual_objective(model)
            assert mine <= best + 1e-9
            assert abs(mine - best) <= 1e-6

    def test_unconverged_run_reports_it(self):
        x, y = make_xor(seed=3, spread=0.9)
        model = train_svm_smo(x, y, c=50.0, tol=1e-13, max_passes=1)
        assert model.passes == 1
        assert not model.converged

    def test_kernel_memory_guard(self):
        # 12,000 rows need a 1.07 GiB kernel: refused before it is allocated
        x = np.zeros((12_000, 1))
        y = np.where(np.arange(12_000) % 2 == 0, 1.0, -1.0)
        limit = r"12000 training rows.*the limit is 1 GiB \(11585 rows\)"
        with pytest.raises(ParameterError, match=limit):
            train_svm_smo(x, y)

    def test_input_validation(self):
        x, y = make_blobs(n_per=5, d=2)
        with pytest.raises(DegenerateDataError):
            train_svm_smo(x, np.ones(10))
        with pytest.raises(ParameterError):
            train_svm_smo(x, np.where(y > 0, 1.0, 0.0))  # 0/1 labels
        with pytest.raises(ParameterError):
            train_svm_smo(x, y[:-1])
        with pytest.raises(ParameterError):
            train_svm_smo(x[0], y)
        with pytest.raises(ParameterError):
            train_svm_smo(x, y, c=0.0)
        with pytest.raises(ParameterError):
            train_svm_smo(x, y, tol=0.0)
        with pytest.raises(ParameterError):
            train_svm_smo(x, y, max_passes=0)
        with pytest.raises(ParameterError):
            train_svm_smo(x, y, gamma=-1.0)


class TestDecisionScore:
    def test_matches_kernel_expansion(self):
        x, y = make_blobs(seed=21, n_per=15, d=3)
        model = train_svm_smo(x, y)
        rng = np.random.default_rng(0)
        for _ in range(20):
            probe = rng.normal(size=3)
            direct = model.bias
            for sv, a in zip(model.support_vectors, model.alphas):
                direct += a * math.exp(-model.gamma * float(np.sum((probe - sv) ** 2)))
            assert decision_score(model, probe) == pytest.approx(direct, abs=1e-10)

    def test_distant_point_scores_the_bias(self):
        x, y = make_blobs(seed=21, n_per=15, d=3)
        model = train_svm_smo(x, y)
        far = np.full(3, 1e6)
        assert decision_score(model, far) == pytest.approx(model.bias, abs=1e-12)

    def test_dimension_mismatch_rejected(self):
        x, y = make_blobs(seed=21, n_per=15, d=3)
        model = train_svm_smo(x, y)
        with pytest.raises(ParameterError):
            decision_score(model, [0.0, 0.0])


class TestAuc:
    def test_perfect_and_inverted(self):
        assert auc_from_scores([3.0, 4.0], [1.0, 2.0]) == 1.0
        assert auc_from_scores([1.0, 2.0], [3.0, 4.0]) == 0.0

    def test_ties_give_half_credit(self):
        assert auc_from_scores([1.0], [1.0]) == 0.5
        assert auc_from_scores([1.0, 2.0], [1.0, 2.0]) == 0.5

    def test_matches_pair_counting_exactly(self):
        rng = np.random.default_rng(606)
        for _ in range(50):
            pos = list(rng.integers(0, 12, int(rng.integers(1, 25))).astype(float))
            neg = list(rng.integers(0, 12, int(rng.integers(1, 25))).astype(float))
            wins = sum(
                1.0 if p > q else 0.5 if p == q else 0.0 for p in pos for q in neg
            )
            assert auc_from_scores(pos, neg) == wins / (len(pos) * len(neg))

    def test_complement_identity(self):
        rng = np.random.default_rng(607)
        pos = list(rng.normal(size=17))
        neg = list(rng.normal(size=23))
        assert auc_from_scores(pos, neg) + auc_from_scores(neg, pos) == 1.0

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(608)
        pos = list(rng.normal(size=15))
        neg = list(rng.normal(size=15))
        base = auc_from_scores(pos, neg)
        assert auc_from_scores([math.exp(v) for v in pos], [math.exp(v) for v in neg]) == base

    def test_empty_rejected(self):
        with pytest.raises(InsufficientDataError):
            auc_from_scores([], [1.0])


def make_codes(rng, *blocks, d=8, k=32):
    """One matrix of (n, group, low, high) blocks, rows in block order, each
    code drawn uniformly from [low, high)."""
    codes = np.vstack([rng.integers(low, high, (n, d)) for n, _, low, high in blocks])
    return CodeMatrix(codes, [g for n, g, _, _ in blocks for _ in range(n)], k)


class TestCrossValidatedAuc:
    def test_unseparable_codes_score_near_chance(self):
        rng = np.random.default_rng(42)
        vecs = make_codes(rng, (40, "a", 0, 32), (40, "b", 0, 32))
        auc = cross_validated_auc(vecs)
        assert 0.3 <= auc <= 0.7

    def test_disjoint_codebooks_fully_separable(self):
        rng = np.random.default_rng(43)
        vecs = make_codes(rng, (30, "a", 0, 16), (30, "b", 16, 32))
        assert cross_validated_auc(vecs) >= 0.99

    def test_deterministic_for_seed(self):
        rng = np.random.default_rng(44)
        vecs = make_codes(rng, (25, "a", 0, 24), (25, "b", 8, 32))
        a = cross_validated_auc(vecs, folds=5, seed=3)
        b = cross_validated_auc(vecs, folds=5, seed=3)
        assert a == b

    def test_group_count_checked(self):
        rng = np.random.default_rng(45)
        with pytest.raises(ParameterError):
            cross_validated_auc(make_codes(rng, (20, "a", 0, 32)))
        three = make_codes(rng, (10, "a", 0, 32), (10, "b", 0, 32), (10, "c", 0, 32))
        with pytest.raises(ParameterError):
            cross_validated_auc(three)

    def test_small_group_rejected(self):
        rng = np.random.default_rng(46)
        vecs = make_codes(rng, (4, "a", 0, 32), (20, "b", 0, 32))
        with pytest.raises(InsufficientDataError):
            cross_validated_auc(vecs, folds=5, seed=0)

    def test_pairs_take_group_a_rows_then_group_b_rows(self):
        # heavily tied codes in shuffled group order: SMO's lowest-index
        # tie-breaks make the AUC depend on the row order
        rng = np.random.default_rng(0)
        labels = list(rng.permutation(["a"] * 40 + ["b"] * 40 + ["c"] * 10))
        m = CodeMatrix(rng.integers(0, 3, (90, 2)), labels, k=3)
        rows = {g: np.flatnonzero(np.array(labels) == g) for g in "ab"}
        in_order = m.take(np.sort(np.concatenate([rows["a"], rows["b"]])))
        a_then_b = m.take(np.concatenate([rows["a"], rows["b"]]))
        aucs = _pairwise_aucs(m, ["a", "b"], FeatureMode.SCALED_INDICES, 1.0, None, 5, 0)
        assert aucs == {"a|b": cross_validated_auc(a_then_b)}
        assert aucs["a|b"] != cross_validated_auc(in_order)

    def test_pair_inputs_checked_against_the_largest_training_fold(self):
        # with k = 5 the last fold holds out floor(n/5) rows of each group;
        # 5793 + 5792 = 11,585 training rows fit the kernel, 2 * 5793 do not
        def codes(n_a, n_b):
            return CodeMatrix(np.zeros((n_a + n_b, 1), dtype=np.int64), ["a"] * n_a + ["b"] * n_b, 2)

        rows = _pair_rows(codes(7241, 7240), ["a", "b"], 5)
        assert [len(rows["a"]), len(rows["b"])] == [7241, 7240]
        with pytest.raises(ParameterError, match="11586 training rows"):
            _pair_rows(codes(7241, 7241), ["a", "b"], 5)
        with pytest.raises(InsufficientDataError, match="group 'b'"):
            _pair_rows(codes(10, 4), ["a", "b"], 5)

    def test_folds_and_seed_validation(self):
        rng = np.random.default_rng(47)
        vecs = make_codes(rng, (10, "a", 0, 32), (10, "b", 0, 32))
        with pytest.raises(ParameterError, match="folds must be >= 2"):
            cross_validated_auc(vecs, folds=1)
        with pytest.raises(ParameterError, match="seed must be non-negative"):
            cross_validated_auc(vecs, seed=-1)


class TestCodesCsv:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(77)
        vecs = make_codes(rng, (12, "east", 0, 32), (8, "west", 0, 32))
        path = tmp_path / "codes.csv"
        save_codes_csv(vecs, path)
        text = path.read_text()
        assert text.startswith("#K=32\n")
        assert "code-00000" in text
        loaded = load_codes_csv(path)
        assert loaded.k == vecs.k
        assert loaded.labels() == vecs.labels()
        np.testing.assert_array_equal(loaded.codes, vecs.codes)

    def test_file_round_trip_is_byte_identical(self, tmp_path):
        # sample ids survive, including one that needs quoting
        text = (
            "#K=8\nsample_id,group,c0,c1\n"
            'x-7,east,3,5\n"id, with comma",west,0,7\nx-1,east,1,1\n'
        )
        path = tmp_path / "codes.csv"
        path.write_text(text)
        loaded = load_codes_csv(path)
        assert loaded.sample_ids == ("x-7", "id, with comma", "x-1")
        save_codes_csv(loaded, tmp_path / "again.csv")
        assert (tmp_path / "again.csv").read_text() == text

    def test_take_keeps_sample_ids(self):
        m = CodeMatrix([[1], [2], [3]], ["a", "b", "a"], 4, ["s0", "s1", "s2"])
        sub = m.take([2, 0])
        assert sub.sample_ids == ("s2", "s0")
        assert sub.codes.tolist() == [[3], [1]]
        with pytest.raises(ParameterError):
            CodeMatrix([[1], [2]], ["a", "b"], 4, ["s0"])
        with pytest.raises(ParameterError):
            CodeMatrix([[1], [2]], ["a", "b"], 4, ["s0", ""])

    def test_k_argument_overrides_file(self, tmp_path):
        path = tmp_path / "codes.csv"
        path.write_text("#K=64\nsample_id,group,c0,c1\ns1,a,3,5\n")
        assert load_codes_csv(path).k == 64
        assert load_codes_csv(path, k=32).k == 32

    def test_missing_k_rejected(self, tmp_path):
        path = tmp_path / "codes.csv"
        path.write_text("sample_id,group,c0\ns1,a,3\n")
        with pytest.raises(SchemaError):
            load_codes_csv(path)
        assert load_codes_csv(path, k=8).codes.tolist() == [[3]]

    def test_header_checked(self, tmp_path):
        path = tmp_path / "codes.csv"
        path.write_text("#K=8\nid,group,c0\ns1,a,3\n")
        with pytest.raises(SchemaError):
            load_codes_csv(path)
        path.write_text("#K=8\nsample_id,group,c0,c2\ns1,a,3,4\n")
        with pytest.raises(SchemaError):
            load_codes_csv(path)

    def test_row_errors_carry_line_numbers(self, tmp_path):
        path = tmp_path / "codes.csv"
        path.write_text("#K=8\nsample_id,group,c0,c1\ns1,a,3,5\ns2,b,3\n")
        with pytest.raises(RowError) as exc:
            load_codes_csv(path)
        assert "line 4" in str(exc.value)
        path.write_text("#K=8\nsample_id,group,c0\ns1,a,x\n")
        with pytest.raises(RowError):
            load_codes_csv(path)
        path.write_text("#K=8\nsample_id,group,c0\ns1,a,9\n")
        with pytest.raises(RowError):
            load_codes_csv(path)  # code 9 out of range for k=8
        path.write_text("#K=8\nsample_id,group,c0\n,a,3\n")
        with pytest.raises(RowError):
            load_codes_csv(path)

    def test_physical_line_numbers(self, tmp_path):
        # a quoted sample_id spans lines 3-4, so the bad code is on line 5
        path = tmp_path / "codes.csv"
        path.write_text('#K=8\nsample_id,group,c0\n"s\n1",a,3\ns2,a,9\n')
        with pytest.raises(RowError) as exc:
            load_codes_csv(path)
        assert exc.value.line == 5

    def test_byte_order_mark_accepted(self, tmp_path):
        path = tmp_path / "codes.csv"
        path.write_bytes(b"\xef\xbb\xbf#K=8\nsample_id,group,c0\ns1,a,3\n")
        assert load_codes_csv(path).k == 8
        path.write_bytes(b"\xef\xbb\xbfsample_id,group,c0\ns1,a,3\n")
        assert load_codes_csv(path, k=8).codes.tolist() == [[3]]

    def test_no_rows_rejected(self, tmp_path):
        path = tmp_path / "codes.csv"
        path.write_text("#K=8\nsample_id,group,c0\n")
        with pytest.raises(SchemaError):
            load_codes_csv(path)

    def test_save_empty_rejected(self, tmp_path):
        # an empty code matrix cannot be built, so none can be saved
        with pytest.raises(ParameterError):
            empty = CodeMatrix(np.empty((0, 3), dtype=np.int64), [], 8)
            save_codes_csv(empty, tmp_path / "codes.csv")
        assert not (tmp_path / "codes.csv").exists()
