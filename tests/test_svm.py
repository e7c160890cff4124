"""RBF SVM: kernel algebra, WSS2 SMO training, and the brute-force QP oracle."""

from __future__ import annotations

import math

import numpy as np
import pytest

from plastiscan import (
    MODEL_SPECS,
    PLASTIC,
    PatchSpec,
    SVMHyperParams,
    SynthConfig,
    WATER,
    gen_dataset,
    gen_scene,
    predict_svm,
    predict_svm_batch,
    train_svm,
)
from plastiscan.classifiers import svm
from plastiscan.classifiers.svm import Scaler, decision_function, rbf_kernel
from plastiscan.dataset import SampleTable
from plastiscan.dataset import _training_matrix
from plastiscan.errors import (
    ClassTooSmallError,
    ConvergenceError,
    EmptyFeaturesError,
    EmptyInputError,
    LengthMismatchError,
    SingleClassError,
    SpecMismatchError,
)
from plastiscan.raster import feature_columns
from plastiscan.spectra import FeatureVector

import qp_oracle
import scene_oracle
import svm_oracle
from conftest import band_spec, table_from_features


def random_problem(seed, n=12, d=3):
    rng = np.random.default_rng(seed)
    y = np.array([PLASTIC, WATER] * (n // 2) + [PLASTIC] * (n % 2))
    X = rng.uniform(0.0, 1.0, size=(n, d))
    # nudge classes apart so fits are non-degenerate but not trivial
    X[y == PLASTIC, 0] += 0.3
    return X, y


def hp_tight(C=10.0, sigma=0.09):
    return SVMHyperParams(C=C, sigma=sigma, tolerance=1e-9, max_passes=200_000)


def model_alpha(model, Xs_train):
    """Recover the full dual vector by matching support rows bitwise."""
    alpha = np.zeros(len(Xs_train))
    for sv, coef in zip(model.support_vectors, model.dual_coefs):
        matches = np.nonzero((Xs_train == sv).all(axis=1))[0]
        assert matches.size == 1, "support vector did not match a training row"
        alpha[matches[0]] = abs(coef)
    return alpha


class TestKernel:
    def test_zero_distance_is_one(self):
        assert rbf_kernel([0.3, 0.4], [0.3, 0.4], 0.09) == 1.0

    def test_unit_distance_published_value(self):
        assert rbf_kernel([0.0], [1.0], 0.09) == pytest.approx(0.9139312, abs=1e-7)
        assert rbf_kernel([0.0], [1.0], 0.09) == math.exp(-0.09)

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            a, b = rng.normal(size=(2, 4))
            assert rbf_kernel(a, b, 0.07) == rbf_kernel(b, a, 0.07)

    def test_range(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            a, b = rng.normal(size=(2, 3))
            assert 0.0 < rbf_kernel(a, b, 0.5) <= 1.0

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            rbf_kernel([1.0, 2.0], [1.0], 0.09)

    @pytest.mark.parametrize("sigma", [0.0, -0.09, math.nan, math.inf, -math.inf])
    def test_sigma_must_be_positive(self, sigma):
        with pytest.raises(ValueError, match="sigma"):
            rbf_kernel([1.0], [2.0], sigma)

    def test_kernel_matrix_positive_semidefinite(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(15, 4))
        K = np.array([[rbf_kernel(a, b, 0.09) for b in X] for a in X])
        assert np.linalg.eigvalsh(K).min() > -1e-8
        np.linalg.cholesky(K + 1e-8 * np.eye(len(X)))  # must not raise


class TestHyperParams:
    @pytest.mark.parametrize(
        "kwargs",
        [dict(C=0.0), dict(C=-1.0), dict(sigma=0.0), dict(sigma=-0.09),
         dict(tolerance=0.0), dict(max_passes=0),
         dict(C=True), dict(sigma=True), dict(tolerance=True),
         dict(max_passes=True), dict(max_passes=2.0), dict(max_passes=np.int64(5)),
         dict(seed=2.5), dict(seed=True), dict(seed=None),
         dict(C=math.nan), dict(C=math.inf), dict(sigma=math.nan), dict(sigma=math.inf),
         dict(sigma=-math.inf), dict(tolerance=math.nan), dict(tolerance=math.inf)],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            SVMHyperParams(**kwargs)

    def test_defaults_match_tuned_profile(self):
        hp = SVMHyperParams()
        assert hp.C == 10.0
        assert hp.sigma == 0.09


class TestScaler:
    def test_transform_is_zscore(self):
        rng = np.random.default_rng(4)
        X = rng.uniform(size=(20, 3))
        scaler = Scaler(mean=X.mean(axis=0), sd=X.std(axis=0),
                        kept=np.ones(3, dtype=bool))
        Z = scaler.transform(X)
        np.testing.assert_allclose(Z.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(Z.std(axis=0), 1.0, atol=1e-12)

    def test_model_stores_training_statistics(self):
        X, y = random_problem(5)
        model = train_svm(table_from_features(X, y), band_spec(3), hp_tight())
        np.testing.assert_array_equal(model.scaler.mean, X.mean(axis=0))
        np.testing.assert_array_equal(model.scaler.sd, X.std(axis=0))
        assert model.scaler.kept.all()
        assert (model.scaler.sd[model.scaler.kept] > 0).all()


class TestTraining:
    def test_symmetric_pair_has_zero_bias(self):
        table = table_from_features([[0.2], [0.8]], [PLASTIC, WATER])
        model = train_svm(table, band_spec(1), hp_tight())
        assert model.bias == pytest.approx(0.0, abs=1e-6)
        # the exact midpoint scales to 0 and falls to plastic by the tie rule
        assert predict_svm_batch(model, np.array([[0.5]])).tolist() == [PLASTIC]

    def test_four_point_separable_perfect_fit(self):
        X = np.array([[0.8, 0.8], [0.9, 0.7], [0.2, 0.3], [0.1, 0.2]])
        y = np.array([PLASTIC, PLASTIC, WATER, WATER])
        model = train_svm(table_from_features(X, y), band_spec(2), hp_tight())
        np.testing.assert_array_equal(predict_svm_batch(model, X), y)
        spec_id = model.spec.spec_id
        signs = [decision_function(model, FeatureVector(spec_id, tuple(row)))
                 for row in X]
        assert all(s > 0 for s, label in zip(signs, y) if label == PLASTIC)
        assert all(s < 0 for s, label in zip(signs, y) if label == WATER)

    def test_dual_coefficients_bounded_by_C(self):
        for seed in range(5):
            X, y = random_problem(seed, n=14)
            model = train_svm(table_from_features(X, y), band_spec(3),
                              hp_tight(C=4.0, sigma=0.3))
            assert np.abs(model.dual_coefs).max() <= 4.0 + 1e-9
            assert model.n_support >= 1

    def test_free_support_vector_predicts_own_label(self):
        X, y = random_problem(11, n=16)
        C = 10.0
        model = train_svm(table_from_features(X, y), band_spec(3), hp_tight(C=C))
        Xs = model.scaler.transform(X)
        alpha = model_alpha(model, Xs)
        free = np.nonzero((alpha > 1e-6 * C) & (alpha < C * (1 - 1e-6)))[0]
        assert free.size > 0
        preds = predict_svm_batch(model, X[free])
        np.testing.assert_array_equal(preds, y[free])

    def test_label_swap_flips_decision(self):
        X, y = random_problem(6, n=12)
        swapped = np.where(y == PLASTIC, WATER, PLASTIC)
        spec = band_spec(3)
        a = train_svm(table_from_features(X, y), spec, hp_tight())
        b = train_svm(table_from_features(X, swapped), spec, hp_tight())
        rng = np.random.default_rng(0)
        probes = rng.uniform(0.0, 1.3, size=(40, 3))
        fa = np.array([decision_function(a, FeatureVector(spec.spec_id, tuple(p)))
                       for p in probes])
        fb = np.array([decision_function(b, FeatureVector(spec.spec_id, tuple(p)))
                       for p in probes])
        np.testing.assert_allclose(fb, -fa, atol=1e-6)
        clear = np.abs(fa) > 1e-3
        np.testing.assert_array_equal(
            predict_svm_batch(a, probes[clear]),
            np.where(predict_svm_batch(b, probes[clear]) == PLASTIC, WATER, PLASTIC),
        )

    def test_zero_variance_feature_dropped_with_warning(self):
        X, y = random_problem(7)
        X[:, 1] = 0.42
        spec = band_spec(3)
        with pytest.warns(UserWarning, match="B3"):
            model = train_svm(table_from_features(X, y), spec, hp_tight())
        assert model.scaler.kept.tolist() == [True, False, True]
        assert model.support_vectors.shape[1] == 2
        # prediction still accepts full-width rows
        predict_svm_batch(model, X)

    def test_all_features_constant(self):
        X = np.full((6, 2), 0.3)
        y = np.array([PLASTIC, WATER] * 3)
        with pytest.raises(EmptyFeaturesError):
            train_svm(table_from_features(X, y), band_spec(2), hp_tight())

    def test_single_class(self):
        X = np.random.default_rng(0).uniform(size=(6, 2))
        with pytest.raises(SingleClassError):
            train_svm(table_from_features(X, [PLASTIC] * 6), band_spec(2), hp_tight())

    def test_too_few_samples(self):
        with pytest.raises(ClassTooSmallError):
            train_svm(table_from_features([[0.1, 0.2]], [PLASTIC]),
                      band_spec(2), hp_tight())

    def test_convergence_error_when_passes_exhausted(self):
        X, y = random_problem(8, n=16)
        hp = SVMHyperParams(C=10.0, sigma=0.09, tolerance=1e-12, max_passes=1)
        with pytest.raises(
            ConvergenceError,
            match=r"after 16 iterations \(max_passes 1 x n 16\) with KKT gap \S+ >= tolerance 1e-12",
        ):
            train_svm(table_from_features(X, y), band_spec(3), hp)

    def test_deterministic(self):
        X, y = random_problem(9)
        spec = band_spec(3)
        a = train_svm(table_from_features(X, y), spec, hp_tight())
        b = train_svm(table_from_features(X, y), spec, hp_tight())
        assert a.bias == b.bias
        np.testing.assert_array_equal(a.support_vectors, b.support_vectors)
        np.testing.assert_array_equal(a.dual_coefs, b.dual_coefs)

    def test_seed_does_not_change_fit(self):
        pool = gen_dataset(SynthConfig(n_plastic=54, n_water=270, seed=0))
        spec = MODEL_SPECS["Model2"]
        a = train_svm(pool, spec, SVMHyperParams(seed=0))
        b = train_svm(pool, spec, SVMHyperParams(seed=1))
        assert a.bias == b.bias
        np.testing.assert_array_equal(a.dual_coefs, b.dual_coefs)

    def test_row_order_does_not_matter(self):
        X, y = random_problem(10)
        spec = band_spec(3)
        table = table_from_features(X, y)
        reordered = SampleTable(tuple(reversed(table.rows)))
        a = train_svm(table, spec, hp_tight())
        b = train_svm(reordered, spec, hp_tight())
        assert a.bias == b.bias
        np.testing.assert_array_equal(a.support_vectors, b.support_vectors)
        np.testing.assert_array_equal(a.dual_coefs, b.dual_coefs)


class TestOracleAgreement:
    @pytest.mark.parametrize("seed", range(8))
    def test_dual_objective_and_predictions(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(6, 15))
        d = int(rng.integers(1, 4))
        C = float(rng.choice([1.0, 4.0, 10.0]))
        sigma = float(rng.choice([0.09, 0.3, 0.7]))
        y = np.empty(n, dtype=int)
        y[: n // 2] = PLASTIC
        y[n // 2:] = WATER
        X = rng.uniform(0.0, 1.0, size=(n, d))
        X[y == PLASTIC] += rng.uniform(0.0, 0.4)

        model = train_svm(table_from_features(X, y),
                          band_spec(d), hp_tight(C=C, sigma=sigma))

        y_pm = np.where(y == PLASTIC, 1.0, -1.0)
        Xs, alpha_star, bias_star = qp_oracle.oracle_fit(X, y_pm, C, sigma)
        K = qp_oracle.rbf_matrix(Xs, Xs, sigma)
        w_star = qp_oracle.dual_objective(K, y_pm, alpha_star)
        alpha_fit = model_alpha(model, model.scaler.transform(X))
        w_fit = qp_oracle.dual_objective(K, y_pm, alpha_fit)
        assert abs(w_star - w_fit) <= 1e-6 * max(1.0, abs(w_star))

        probes = rng.uniform(-0.1, 1.4, size=(30, d))
        probes_scaled = (probes[:, X.std(axis=0) > 0]
                         - X.mean(axis=0)[X.std(axis=0) > 0]) / (
            X.std(axis=0)[X.std(axis=0) > 0])
        oracle_f = qp_oracle.oracle_decision(
            Xs, y_pm, alpha_star, bias_star, sigma, probes_scaled
        )
        oracle_pred = np.where(oracle_f >= 0.0, PLASTIC, WATER)
        np.testing.assert_array_equal(predict_svm_batch(model, probes), oracle_pred)


def solver_inputs(X, labels, sigma):
    """The symmetric kernel and +-1 labels that train_svm hands the solver."""
    X = np.asarray(X, dtype=np.float64)
    K = svm._rbf_matrix(X, X, sigma)
    return (K + K.T) / 2.0, np.where(np.asarray(labels) == PLASTIC, 1.0, -1.0)


def solve_both(X, labels, hp):
    """svm._solve's alphas, required equal bit for bit to the reference's."""
    K, y = solver_inputs(X, labels, hp.sigma)
    got, want = svm._solve(K, svm._curvature(K), y, hp), svm_oracle.solve(K, y, hp)
    np.testing.assert_array_equal(got, want)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    return got


class TestSolverMatchesReference:
    """The solver updates only what each iteration moves, yet every alpha is
    the one the whole-array reference in svm_oracle computes."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("n", [7, 24, 61])
    def test_random_problems(self, seed, n):
        X, y = random_problem(seed, n=n, d=1 + seed % 3)
        for C, sigma, tolerance in ((0.5, 0.09, 1e-3), (10.0, 0.7, 1e-3), (4.0, 2.0, 1e-9)):
            solve_both(X, y, SVMHyperParams(C=C, sigma=sigma, tolerance=tolerance,
                                            max_passes=100_000))

    def test_rows_at_bound_C(self):
        X = np.random.default_rng(3).uniform(size=(40, 2))
        y = np.array([PLASTIC, WATER] * 20)  # labels unrelated to X
        alpha = solve_both(X, y, SVMHyperParams(C=0.5, sigma=0.7, tolerance=1e-9,
                                                max_passes=100_000))
        assert (alpha == 0.5).sum() >= 10

    def test_all_rows_free(self):
        X = np.arange(10.0)[:, None]
        y = np.array([PLASTIC, WATER] * 5)
        alpha = solve_both(X, y, SVMHyperParams(C=100.0, sigma=2.0, tolerance=1e-9,
                                                max_passes=100_000))
        assert ((alpha > 0.0) & (alpha < 100.0)).all()

    @pytest.mark.parametrize("C", [0.5, 10.0])
    def test_two_rows(self, C):
        alpha = solve_both([[0.0, 0.0], [0.3, 1.0]], [PLASTIC, WATER], hp_tight(C=C))
        assert alpha[0] == alpha[1] > 0.0

    def test_duplicate_rows(self):
        # equal rows with equal labels, and one row twice with both labels:
        # the curvature of such a pair is 0 and is clamped
        X, y = random_problem(4, n=12, d=2)
        X = np.concatenate([X, X[:4], X[5:6]])
        y = np.concatenate([y, y[:4], [WATER if y[5] == PLASTIC else PLASTIC]])
        for C in (1.0, 10.0):
            solve_both(X, y, hp_tight(C=C))

    def test_stops_at_iteration_zero(self):
        # at alpha = 0 the gap is 1 - (-1) = 2
        X, y = random_problem(5)
        alpha = solve_both(X, y, SVMHyperParams(tolerance=2.5))
        assert not alpha.any()

    @pytest.mark.parametrize("seed", range(3))
    def test_same_convergence_error(self, seed):
        X, y = random_problem(seed, n=16)
        hp = SVMHyperParams(C=10.0, sigma=0.09, tolerance=1e-12, max_passes=1)
        K, y_pm = solver_inputs(X, y, hp.sigma)
        with pytest.raises(ConvergenceError) as got:
            svm._solve(K, svm._curvature(K), y_pm, hp)
        with pytest.raises(ConvergenceError) as want:
            svm_oracle.solve(K, y_pm, hp)
        assert str(got.value) == str(want.value)


@pytest.fixture(scope="module")
def fitted():
    X, y = random_problem(12)
    return train_svm(table_from_features(X, y), band_spec(3), hp_tight()), X


class TestPredictionWrappers:
    def test_single_vector_matches_batch(self, fitted):
        model, X = fitted
        batch = predict_svm_batch(model, X)
        spec_id = model.spec.spec_id
        singles = [predict_svm(model, FeatureVector(spec_id, tuple(row)))
                   for row in X]
        assert singles == batch.tolist()

    def test_spec_mismatch(self, fitted):
        model, _ = fitted
        with pytest.raises(SpecMismatchError):
            predict_svm_batch(model, np.zeros((2, 7)))
        with pytest.raises(SpecMismatchError):
            decision_function(model, FeatureVector("Model1", (0.1,)))

    def test_empty_input(self, fitted):
        model, _ = fitted
        with pytest.raises(EmptyInputError):
            predict_svm_batch(model, np.zeros((0, 3)))


B = svm._BLOCK_ROWS


class TestBlockedDecision:
    """Decision values are computed in blocks of rows; no row may see which."""

    @pytest.mark.parametrize("n", [B - 1, B, B + 1, 2 * B + 1])
    def test_value_does_not_depend_on_block_offset(self, svm_small, n):
        X = np.random.default_rng(n).uniform(-0.5, 1.0, size=(n, svm_small.spec.n_features))
        full = svm._decision_batch(svm_small, X).view(np.uint64)
        reference = scene_oracle.svm_decision(svm_small, X).view(np.uint64)
        np.testing.assert_array_equal(full, reference)
        for start in range(n):  # row `start` first, so it lands at another block offset
            np.testing.assert_array_equal(
                svm._decision_batch(svm_small, X[start:]).view(np.uint64), full[start:])


def assert_kernel_bits(a, b, sigma):
    """The in-place kernel, alone and as _decision_batch calls it (squared
    norms given, into a slice of a larger buffer), equals the plain
    expression bit for bit."""
    plain = scene_oracle.rbf_matrix(a, b, sigma).view(np.uint64)
    np.testing.assert_array_equal(svm._rbf_matrix(a, b, sigma).view(np.uint64), plain)
    buffer = np.full((len(a) + 3, len(b)), np.nan)
    K = svm._rbf_matrix(a, b, sigma, np.sum(b * b, axis=1), buffer[:len(a)])
    assert np.shares_memory(K, buffer)
    np.testing.assert_array_equal(K.view(np.uint64), plain)


class TestInPlaceKernel:
    """``_rbf_matrix`` runs the kernel expression in place; training and
    prediction both go through it, so every entry must keep its bits."""

    @pytest.mark.parametrize("sigma", [0.03, 0.09, 1.7])
    @pytest.mark.parametrize("n", [1, 7, B - 1, B + 5])
    def test_random_rows_bit_identical(self, n, sigma):
        rng = np.random.default_rng(n)
        a, b = rng.normal(size=(n, 5)), rng.normal(size=(37, 5))
        a[0] = b[3]  # a zero distance, which rounding can make negative
        assert_kernel_bits(a, b, sigma)

    def test_scene_rows_bit_identical(self, svm_small):
        stack, _ = gen_scene(
            SynthConfig(n_plastic=0, n_water=0, seed=23), width=40, height=30,
            patches=(PatchSpec(row=5, col=6, height=10, width=12, fraction=0.8),))
        X = feature_columns({b: g.values.reshape(-1) for b, g in stack.grids.items()},
                            svm_small.spec)
        rows = svm_small.scaler.transform(X[np.isfinite(X).all(axis=1)])
        assert len(rows) > B
        assert_kernel_bits(rows, svm_small.support_vectors, svm_small.hyperparams.sigma)

    @pytest.mark.parametrize("spec_id", sorted(MODEL_SPECS))
    def test_training_kernel_bit_identical(self, default_pool, spec_id):
        X, labels = _training_matrix(default_pool, MODEL_SPECS[spec_id])
        scaler, Xs, _, K, _ = svm._svm_problem(X, labels, MODEL_SPECS[spec_id], 0.09)
        assert_kernel_bits(Xs, Xs, 0.09)
        plain = scene_oracle.rbf_matrix(Xs, Xs, 0.09)
        np.testing.assert_array_equal(K.view(np.uint64), ((plain + plain.T) / 2.0).view(np.uint64))
