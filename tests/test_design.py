import contextlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

import semibandit.design as design
from semibandit.design import FeatureSet, DesignPolicy, deo, g_optimal, policy_moments
from semibandit.errors import ConvergenceError, DegenerateFeatures, DimError


def random_unit_features(rng, d, k):
    x = rng.standard_normal((k, d))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def quadratic_form_of_inverse(m, v) -> float:
    """v' m^{-1} v for a symmetric positive definite matrix of Fractions, by exact Gaussian elimination."""
    n = len(v)
    a = [list(row) + [vi] for row, vi in zip(m, v)]
    for c in range(n):
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    y = [Fraction(0)] * n
    for r in reversed(range(n)):
        y[r] = (a[r][n] - sum(a[r][j] * y[j] for j in range(r + 1, n))) / a[r][r]
    return float(sum(vi * yi for vi, yi in zip(v, y)))


def pinv_norms(a, x):
    """sqrt(x_i' A^+ x_i) for each row of ``x``, by numpy's pseudo-inverse: the reference for any rank of ``a``."""
    return np.sqrt(np.einsum("ij,ij->i", x @ np.linalg.pinv(a, hermitian=True), x))


def max_leverage(features, policy):
    x = features.features
    p = policy.probabilities
    m = (x.T * p) @ x
    return max(pinv_norms(m, xi[None])[0] ** 2 for xi in x)


@contextlib.contextmanager
def count_factorizations():
    """Count the calls to ``np.linalg.qr`` and ``np.linalg.svd`` made inside the block."""
    calls = {"qr": 0, "svd": 0}
    with pytest.MonkeyPatch.context() as mp:
        for name in calls:
            factor = getattr(np.linalg, name)

            def counted(*args, _name=name, _factor=factor, **kwargs):
                calls[_name] += 1
                return _factor(*args, **kwargs)

            mp.setattr(np.linalg, name, counted)
        yield calls


def covariance_pairwise(features, policy):
    """Policy covariance in its pairwise-difference form, the oracle for ``policy_moments``.

    Sum over i<j of p_i p_j (x_i - x_j)(x_i - x_j)^T, an O(K^2) loop that is
    algebraically equal to ``policy_moments(...).covariance``.
    """
    x = features.features
    p = policy.probabilities
    out = np.zeros((features.d, features.d))
    supp = np.flatnonzero(p > 0)
    for a, i in enumerate(supp):
        for j in supp[a + 1 :]:
            diff = x[i] - x[j]
            out += p[i] * p[j] * np.outer(diff, diff)
    return out


class TestFeatureSet:
    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "feats.txt"
        path.write_text("2 3\n0 0\n1 0\n0 1\n")
        fs = FeatureSet.from_file(path)
        assert fs.d == 2 and fs.K == 3
        assert np.allclose(fs.features, [[0, 0], [1, 0], [0, 1]])

    def test_file_shape_mismatch(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 3\n0 0\n1 0\n")
        with pytest.raises(DimError):
            FeatureSet.from_file(path)


    def test_empty_rows_span_nothing(self):
        # no rows: a d x 0 basis of rank 0, where the SVD's empty singular values have no largest to compare with
        basis, rank = design.span_basis(np.empty((0, 3)))
        assert basis.shape == (3, 0) and rank == 0


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: FeatureSet([1.0, 2.0]), DimError, r"features must be a \(K, d\) array, got shape \(2,\)"),
        (lambda: DesignPolicy([0.5, 0.6]), DimError, "probabilities must be a nonnegative vector summing to 1"),
        (lambda: g_optimal(FeatureSet(np.eye(3)), fw_tol=0), ValueError, "fw_tol must be positive"),
        (lambda: deo(FeatureSet(np.eye(3)), anchor=3), DimError, "anchor 3 out of range for 3 arms"),
    ],
    ids=["flat-features", "policy-sum", "zero-fw-tol", "anchor-past-the-arms"],
)
def test_bad_arguments_raise(call, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        call()


class TestGOptimal:
    def test_standard_basis(self):
        policy = g_optimal(FeatureSet(np.eye(3)))
        assert np.allclose(policy.probabilities, 1.0 / 3.0, atol=1e-12)
        assert np.isclose(max_leverage(FeatureSet(np.eye(3)), policy), 3.0, atol=1e-6)

    def test_collinear_prefers_longer(self):
        fs = FeatureSet(np.array([[1.0, 0.0], [2.0, 0.0]]))
        policy = g_optimal(fs)
        assert np.allclose(policy.probabilities, [0.0, 1.0])
        assert np.isclose(max_leverage(fs, policy), 1.0)  # d_eff = 1

    def test_duplicates(self):
        x = np.array([[0.6, 0.8], [0.6, 0.8]])
        policy = g_optimal(FeatureSet(x))
        assert np.isclose(policy.probabilities.sum(), 1.0)
        assert np.isclose(max_leverage(FeatureSet(x), policy), 1.0)

    def test_zero_features(self):
        with pytest.raises(DegenerateFeatures):
            g_optimal(FeatureSet(np.zeros((3, 2))))

    @pytest.mark.parametrize("entry", [5e-324, 1e-310, 1e-300])
    def test_any_nonzero_row_spans_a_direction(self, entry):
        # all-zero features are the one degenerate input: a single nonzero entry, subnormal
        # included, spans a direction that the design puts all its mass on
        x = np.zeros((3, 2))
        x[1, 0] = entry
        assert np.array_equal(g_optimal(FeatureSet(x)).probabilities, [0.0, 1.0, 0.0])

    def test_kiefer_wolfowitz_certificate(self):
        rng = np.random.default_rng(10)
        for _ in range(25):
            d = int(rng.integers(2, 7))
            k = int(rng.integers(d + 1, 25))
            fs = FeatureSet(random_unit_features(rng, d, k))
            policy = g_optimal(fs, fw_tol=1e-3)
            assert max_leverage(fs, policy) <= d * 1.001 + 1e-9
            assert policy.support.size <= d * (d + 1) // 2

    def test_first_order_stationarity(self):
        # no single-arm reweighting improves the worst leverage
        rng = np.random.default_rng(11)
        fs = FeatureSet(random_unit_features(rng, 3, 12))
        policy = g_optimal(fs, fw_tol=1e-3)
        base = max_leverage(fs, policy)
        for i in range(fs.K):
            for eps in (0.02, -0.02):
                p = policy.probabilities.copy()
                if p[i] + eps <= 0:
                    continue
                p[i] += eps
                p /= p.sum()
                moved = max_leverage(fs, DesignPolicy(p))
                assert moved >= base - base * 2e-2

    def test_scale_invariance(self):
        # leverages are scale-free; dyadic scalings leave the solver path
        # bitwise unchanged thanks to the internal power-of-two normalization
        rng = np.random.default_rng(12)
        x = random_unit_features(rng, 4, 15)
        p1 = g_optimal(FeatureSet(x)).probabilities
        p_small = g_optimal(FeatureSet(0.25 * x)).probabilities
        p_big = g_optimal(FeatureSet(4.0 * x)).probabilities
        assert np.abs(p1 - p_small).max() <= 1e-9
        assert np.abs(p1 - p_big).max() <= 1e-9

    def test_scale_preserves_certificate(self):
        # non-dyadic scalings perturb the input by rounding; the optimizer
        # may return a different near-optimal point, but the certificate of
        # the scaled problem is unchanged
        rng = np.random.default_rng(12)
        x = random_unit_features(rng, 4, 15)
        policy = g_optimal(FeatureSet(3.7 * x))
        assert max_leverage(FeatureSet(3.7 * x), policy) <= 4 * 1.001 + 1e-9

    def test_support_drop_fallback(self):
        # near-duplicate arms whose FW support has d(d+1)/2 + 1 = 4 atoms with
        # affinely independent outer products: the reduction drops the fourth
        # along a null direction of the outer products alone
        x = np.array(
            [
                [-2.03448491902141, 0.1444993513252039],
                [-2.034484735551103, 0.1444999831062366],
                [-1.4886485895644839, -1.179835190012481],
                [-0.1972230457551113, -1.397678703123582],
            ]
        )
        fs = FeatureSet(x)
        policy = g_optimal(fs)
        assert policy.support.size <= 3
        assert max_leverage(fs, policy) <= 2 * (1 + 1e-3)

    def test_support_drop_certifies_every_arm(self):
        # the anchored differences of TestDeo's property draw d=4, rank=2,
        # k=21, copies=2, seed=262144: Frank-Wolfe ends on 4 atoms, one over
        # the bound, and dropping one without raising a leverage elsewhere is
        # what certifies every arm, not just the kept ones
        rng = np.random.default_rng(262144)
        basis = np.linalg.qr(rng.standard_normal((4, 2)))[0]
        x = random_unit_features(rng, 2, 21) * rng.uniform(0.2, 1.0, size=(21, 1)) @ basis.T
        x = np.repeat(x, rng.integers(1, 3, size=21), axis=0)
        anchor = int(rng.integers(x.shape[0]))
        fs = FeatureSet(np.delete(x, anchor, axis=0) - x[anchor])
        policy = g_optimal(fs)
        assert policy.support.size <= 3
        assert max_leverage(fs, policy) <= 2 * (1 + 1e-3)

    def test_convergence_error_certificate(self):
        # five iterations are far too few for 200 arms in 20 dimensions: the solver
        # raises as soon as it stops unconverged, naming the tolerance and the cap
        rng = np.random.default_rng(17)
        fs = FeatureSet(random_unit_features(rng, 20, 200))
        with pytest.raises(ConvergenceError, match=r"did not reach tolerance 0\.001 in 5 iterations"):
            g_optimal(fs, max_iters=5)

    @settings(max_examples=60, deadline=None)
    @given(
        d=st.integers(2, 5),
        k=st.integers(1, 12),
        jitter=st.sampled_from([0.0, 1e-9, 1e-6, 1e-3]),
        spread=st.sampled_from([0.0, 3.0, 6.0]),
        tol=st.sampled_from([1e-3, 1e-5, 1e-7]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_converged_on_exact_leverages(self, d, k, jitter, spread, tol, seed):
        # pairs of near-duplicate rows with lengths over up to 10^spread, from
        # a uniform start: whenever the solver reports convergence, the
        # leverages of a fresh inverse of the returned design meet the
        # tolerance, and that design is the one it last recomputed its state
        # from, not one reached by rank-two updates alone
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((k, d)) * 10.0 ** rng.uniform(-spread, 0.0, size=(k, 1))
        x = np.repeat(x, 2, axis=0) + jitter * rng.standard_normal((2 * k, d))
        x /= np.abs(x).max()
        span, d_eff = design.span_basis(x)
        x = x @ span
        recomputed_at = []
        exact_state = design._exact_state

        def spy(x, p):
            recomputed_at.append(p.copy())
            return exact_state(x, p)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(design, "_exact_state", spy)
            try:
                p, converged, _ = design._pairwise_fw_from(x, np.full(2 * k, 0.5 / k), d_eff, tol, 2000)
            except np.linalg.LinAlgError:
                reject()  # g_optimal reports this as DegenerateFeatures
        if converged:
            supp = p > 0
            m_inv = np.linalg.inv((x[supp].T * p[supp]) @ x[supp])
            assert np.einsum("ij,ij->i", x @ m_inv, x).max() <= d_eff * (1 + tol)
            assert np.array_equal(recomputed_at[-1], p)

    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(1, 6), extra=st.integers(1, 20), seed=st.integers(0, 2**32 - 1))
    def test_caratheodory_reduce_property(self, d, extra, seed):
        # a random design on d(d+1)/2 + extra atoms, with five arms off its
        # support: the reduced support is within d(d+1)/2, and no arm's
        # leverage rises
        rng = np.random.default_rng(seed)
        bound = d * (d + 1) // 2
        x = rng.standard_normal((bound + extra + 5, d))
        p = np.concatenate([rng.uniform(0.1, 1.0, bound + extra), np.zeros(5)])
        p /= p.sum()

        def leverages(p):
            return np.einsum("ij,ij->i", x @ np.linalg.inv((x.T * p) @ x), x)

        reduced = design._caratheodory_reduce(x, p)
        assert np.count_nonzero(reduced) <= bound
        assert reduced.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(leverages(reduced) <= leverages(p) * (1 + 1e-9))

    @settings(max_examples=40, deadline=None)
    @given(d=st.integers(1, 8), data=st.data(), seed=st.integers(0, 2**32 - 1))
    def test_caratheodory_within_bound_untouched(self, d, data, seed):
        # at or within d(d+1)/2 atoms nothing can be removed: the design comes
        # back bit for bit, and no factorization is run to find that out
        atoms = data.draw(st.integers(1, d * (d + 1) // 2))
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((atoms + 3, d))
        p = np.concatenate([rng.uniform(0.1, 1.0, atoms), np.zeros(3)])
        p /= p.sum()
        before = p.copy()
        with count_factorizations() as calls:
            reduced = design._caratheodory_reduce(x, p)
        assert calls == {"qr": 0, "svd": 0}
        assert reduced.tobytes() == before.tobytes()

    @pytest.mark.parametrize("d, extra, seed", [(2, 4, 0), (5, 12, 1), (8, 30, 2), (20, 15, 3)])
    def test_caratheodory_one_factorization(self, d, extra, seed):
        # every atom over the bound leaves along null vectors of one QR
        # factorization, from which each leaving atom is eliminated; on these
        # draws the eliminations stay far inside the drift tolerance
        rng = np.random.default_rng(seed)
        bound = d * (d + 1) // 2
        x = rng.standard_normal((bound + extra, d))
        p = rng.uniform(0.1, 1.0, bound + extra)
        p /= p.sum()
        with count_factorizations() as calls:
            reduced = design._caratheodory_reduce(x, p)
        assert calls == {"qr": 1, "svd": 0}
        assert np.count_nonzero(reduced) <= bound

    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(1, 6), extra=st.integers(1, 20), seed=st.integers(0, 2**32 - 1))
    def test_caratheodory_badly_scaled(self, d, extra, seed):
        # row norms spread over 1e-6..1, so the outer products span twelve
        # decades: still within the bound, a probability vector, no leverage
        # raised, and one factorization
        rng = np.random.default_rng(seed)
        bound = d * (d + 1) // 2
        x = rng.standard_normal((bound + extra + 5, d)) * 10.0 ** rng.uniform(-6.0, 0.0, size=(bound + extra + 5, 1))
        p = np.concatenate([rng.uniform(0.1, 1.0, bound + extra), np.zeros(5)])
        p /= p.sum()

        def leverages(p):
            return np.einsum("ij,ij->i", x @ np.linalg.inv((x.T * p) @ x), x)

        with count_factorizations() as calls:
            reduced = design._caratheodory_reduce(x, p)
        assert np.count_nonzero(reduced) <= bound
        assert reduced.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(leverages(reduced) <= leverages(p) * (1 + 1e-9))
        assert calls["qr"] == 1

    @pytest.mark.parametrize("seed", range(4))
    def test_caratheodory_refactors_on_drift(self, seed):
        # the first factorization hands out one exact null vector and others
        # off the null space by 1e-6: the vectors left after the first
        # elimination fail the drift check, the null space is factored once
        # more, and no leverage rises
        rng = np.random.default_rng(seed)
        d, extra = 4, 6
        bound = d * (d + 1) // 2
        x = rng.standard_normal((bound + extra, d))
        p = rng.uniform(0.1, 1.0, bound + extra)
        p /= p.sum()
        qr = np.linalg.qr
        calls = []

        def drifted_qr(a, mode):
            q, r = qr(a, mode)
            if not calls:
                q[:, bound + 1 :] += 1e-6 * rng.standard_normal((q.shape[0], q.shape[1] - bound - 1))
            calls.append(a.shape)
            return q, r

        def leverages(p):
            return np.einsum("ij,ij->i", x @ np.linalg.inv((x.T * p) @ x), x)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(np.linalg, "qr", drifted_qr)
            reduced = design._caratheodory_reduce(x, p)
        assert len(calls) == 2
        assert np.count_nonzero(reduced) <= bound
        assert np.all(leverages(reduced) <= leverages(p) * (1 + 1e-9))

    @settings(max_examples=60, deadline=None)
    @given(
        d=st.integers(2, 8),
        rank=st.integers(1, 8),
        k=st.integers(1, 40),
        jitter=st.sampled_from([0.0, 1e-12, 1e-9, 1e-6, 1e-3]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_start_atoms_span(self, d, rank, k, jitter, seed):
        # near-degenerate sets: pairs of near-duplicate rows of varied length,
        # close to a random subspace.  Zero iterations return the start design,
        # which is uniform on d_eff atoms that span the projected space
        rng = np.random.default_rng(seed)
        rank = min(rank, d)
        basis = np.linalg.qr(rng.standard_normal((d, rank)))[0]
        x = random_unit_features(rng, rank, k) * rng.uniform(0.1, 1.0, size=(k, 1)) @ basis.T
        x = np.repeat(x, 2, axis=0) + jitter * rng.standard_normal((2 * k, d))
        span, d_eff = design.span_basis(x)
        projected = x @ span
        p, _, _ = design._pairwise_fw(projected, d_eff, 1e-3, 0)
        atoms = np.flatnonzero(p)
        assert atoms.size == d_eff
        assert np.all(p[atoms] == 1.0 / d_eff)
        assert np.linalg.matrix_rank(projected[atoms]) == d_eff


class TestDeo:
    def test_simplex_example(self):
        fs = FeatureSet(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
        policy, cert = deo(fs, anchor=0)
        assert np.allclose(policy.probabilities, [0.5, 0.25, 0.25])
        cov = policy_moments(fs, policy).covariance
        assert np.allclose(cov, [[3 / 16, -1 / 16], [-1 / 16, 3 / 16]])
        assert np.isclose(cert.max_anchor_norm, math.sqrt(6.0))
        assert cert.max_anchor_norm <= 2.0 * math.sqrt(2.0)
        assert cert.dim == 2

    @pytest.mark.parametrize(
        "c, s",
        [(0.0, 1.0), (0.0, 1e-200), (0.0, 1e-300), (1.0, 1e-200), (1e100, 1e-200)],
        ids=["1.0", "1e-200", "1e-300", "1e-200-offset-1", "1e-200-offset-1e100"],
    )
    def test_simplex_certificate_at_any_scale(self, c, s):
        # the certificate's norms are scale-free: no product of tiny differences underflows,
        # whatever the common offset c of the arms next to them
        policy, cert = deo(FeatureSet(np.array([[c, 0.0, 0.0], [c, s, 0.0], [c, 0.0, s]])))
        assert policy.probabilities.tolist() == [0.5, 0.25, 0.25]
        assert cert.max_anchor_norm == 2.449489742783178
        assert cert.max_centered_norm == pytest.approx(math.sqrt(3.0), rel=0, abs=1e-12)

    def test_two_arms_tight(self):
        rng = np.random.default_rng(13)
        x = random_unit_features(rng, 3, 2)
        policy, cert = deo(FeatureSet(x), anchor=0)
        assert np.allclose(policy.probabilities, [0.5, 0.5])
        assert np.isclose(cert.max_anchor_norm, 2.0)  # 2 sqrt(d_eff), d_eff = 1
        assert cert.dim == 1

    def test_identical_arms(self):
        x = np.tile([[0.3, 0.4]], (4, 1))
        with pytest.raises(DegenerateFeatures):
            deo(FeatureSet(x))

    def test_single_arm(self):
        with pytest.raises(DegenerateFeatures):
            deo(FeatureSet(np.array([[1.0, 0.0]])))

    @pytest.mark.parametrize("k", [-700, -60, -40, -34, -20, 20, 60])
    def test_power_of_two_scaling_changes_nothing(self, k):
        # the one degenerate arm set is equal rows, with no tolerance; and the design, its
        # span and its certificate are all taken on one scale, so arms scaled by 2^k give
        # the same design and certificate bit for bit, at 2^-700 too, where the products
        # of the unscaled certificate underflow.  Rank-deficient features (a duplicated
        # column) take the span-basis path
        for seed in range(20):
            rng = np.random.default_rng(seed)
            d = int(rng.integers(2, 6))
            x = random_unit_features(rng, d, int(rng.integers(d + 1, 16)))
            x = np.column_stack([x, x[:, 0]])
            policy, cert = deo(FeatureSet(x))
            scaled_policy, scaled = deo(FeatureSet(x * math.ldexp(1.0, k)))
            assert np.array_equal(scaled_policy.probabilities, policy.probabilities)
            assert scaled == cert

    def test_certificate_bounds_random(self):
        rng = np.random.default_rng(14)
        for _ in range(30):
            d = int(rng.integers(2, 7))
            k = int(rng.integers(d + 1, 25))
            fs = FeatureSet(random_unit_features(rng, d, k))
            policy, cert = deo(fs)
            tol = 1.001
            assert cert.max_anchor_norm <= 2.0 * math.sqrt(cert.dim) * tol
            assert cert.max_centered_norm <= 4.0 * math.sqrt(cert.dim) * tol
            assert cert.support_size <= cert.dim * (cert.dim + 1) // 2 + 1
            assert np.isclose(policy.probabilities[0], 0.5)

    @settings(max_examples=60, deadline=None)
    @given(
        d=st.integers(2, 6),
        rank=st.integers(1, 6),
        k=st.integers(2, 24),
        copies=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
    )
    # Frank-Wolfe ends one atom over the support bound; on the third, max_anchor_norm ends 0.14% under its bound
    @example(d=2, rank=2, k=19, copies=3, seed=444)
    @example(d=4, rank=2, k=21, copies=2, seed=262144)
    @example(d=2, rank=2, k=17, copies=2, seed=3960858878)
    # a covariance eigenvalue of 4e-10 to 9e-9 times the top one, in a direction span_basis keeps
    @example(d=6, rank=6, k=7, copies=2, seed=587146849)
    @example(d=2, rank=2, k=3, copies=1, seed=2720728104)
    def test_certificate_bounds_property(self, d, rank, k, copies, seed):
        # features in the unit ball, confined to a random subspace, each row repeated up to
        # ``copies`` times, any anchor: the bounds hold at the rank d_eff of
        # the anchored differences, and the stacked certificate equals the
        # largest per-arm norm, taken like the certificate on the anchored
        # differences, in their span
        x, anchor = self.subspace_arms(d, rank, k, copies, seed)
        rank = min(rank, d)
        fs = FeatureSet(x)
        policy, cert = deo(fs, anchor=anchor)
        d_eff, tol = cert.dim, 1e-3
        assert 1 <= d_eff <= rank
        assert cert.max_anchor_norm <= 2.0 * math.sqrt(d_eff * (1 + tol))
        assert cert.max_centered_norm <= 4.0 * math.sqrt(d_eff * (1 + tol))
        assert cert.support_size <= d_eff * (d_eff + 1) // 2 + 1
        span, _ = design.span_basis(np.delete(x, anchor, axis=0) - x[anchor])
        cov = span.T @ policy_moments(FeatureSet(x - x[anchor]), policy).covariance @ span
        per_arm = max(pinv_norms(cov, ((xi - x[anchor]) @ span)[None])[0] for xi in x)
        assert per_arm == pytest.approx(cert.max_anchor_norm, rel=1e-12)

    @staticmethod
    def subspace_arms(d, rank, k, copies, seed):
        """Arms in the unit ball of a random ``rank``-dimensional subspace, rows repeated, and an anchor."""
        rng = np.random.default_rng(seed)
        rank = min(rank, d)
        basis = np.linalg.qr(rng.standard_normal((d, rank)))[0]
        x = random_unit_features(rng, rank, k) * rng.uniform(0.2, 1.0, size=(k, 1)) @ basis.T
        x = np.repeat(x, rng.integers(1, copies + 1, size=k), axis=0)
        return x, int(rng.integers(x.shape[0]))

    def test_certificate_against_exact_arithmetic(self):
        # the example above with a covariance eigenvalue 4e-10 times the top one, in full
        # rank: the certificate is within 2e-9 of max_anchor_norm computed from the design's
        # probabilities and the arms as exact rationals (moments taken on the raw features
        # are 5.3e-9 off, on the anchored differences 7.1e-10)
        x, anchor = self.subspace_arms(d=6, rank=6, k=7, copies=2, seed=587146849)
        policy, cert = deo(FeatureSet(x), anchor=anchor)
        assert cert.dim == 6
        rows = [[Fraction(v) for v in row] for row in x.tolist()]
        p = [Fraction(v) for v in policy.probabilities.tolist()]
        mean = [sum(pi * row[j] for pi, row in zip(p, rows)) for j in range(6)]
        centered = [[v - m for v, m in zip(row, mean)] for row in rows]
        cov = [[sum(pi * row[i] * row[j] for pi, row in zip(p, centered)) for j in range(6)] for i in range(6)]
        exact = max(math.sqrt(quadratic_form_of_inverse(cov, [v - a for v, a in zip(row, rows[anchor])])) for row in rows)
        assert exact == pytest.approx(3.7416573867739413, rel=1e-15)
        assert cert.max_anchor_norm == pytest.approx(exact, rel=2e-9)

    def test_anchor_weight_half(self):
        rng = np.random.default_rng(15)
        fs = FeatureSet(random_unit_features(rng, 3, 8))
        policy, _ = deo(fs, anchor=5)
        assert np.isclose(policy.probabilities[5], 0.5)

    @staticmethod
    def counting_solves(monkeypatch) -> list:
        """Count the Frank-Wolfe solves ``deo`` starts, one per ``g_optimal`` it runs."""
        calls = []
        loop = design._pairwise_fw_from
        monkeypatch.setattr(design, "_pairwise_fw_from", lambda *args: calls.append(1) or loop(*args))
        return calls

    def test_same_arguments_solved_once(self, monkeypatch):
        # a second call on the same object with the same anchor and tolerance
        # returns the same objects and starts no solve
        fs = FeatureSet(random_unit_features(np.random.default_rng(16), 3, 9))
        calls = self.counting_solves(monkeypatch)
        first = deo(fs, anchor=2, fw_tol=1e-3)
        assert len(calls) == 1
        second = deo(fs, anchor=2, fw_tol=1e-3)
        assert len(calls) == 1
        assert second[0] is first[0] and second[1] is first[1]

    @pytest.mark.parametrize(
        "again",
        [
            lambda fs: deo(fs, anchor=1, fw_tol=1e-3),
            lambda fs: deo(fs, anchor=2, fw_tol=1e-4),
            lambda fs: deo(FeatureSet(fs.features.copy()), anchor=2, fw_tol=1e-3),
        ],
        ids=["anchor", "fw_tol", "fresh-featureset"],
    )
    def test_other_arguments_solved_again(self, monkeypatch, again):
        # another anchor, another tolerance or another FeatureSet of the same rows solves again
        fs = FeatureSet(random_unit_features(np.random.default_rng(17), 3, 9))
        calls = self.counting_solves(monkeypatch)
        first = deo(fs, anchor=2, fw_tol=1e-3)
        second = again(fs)
        assert len(calls) == 2
        assert second[0] is not first[0]

    def test_shared_probabilities_read_only(self):
        # the design a later call returns is the stored one: no caller may write into it
        fs = FeatureSet(random_unit_features(np.random.default_rng(18), 3, 9))
        deo(fs)
        policy, _ = deo(fs)
        with pytest.raises(ValueError):
            policy.probabilities[0] = 1.0


class TestMoments:
    def test_point_mass(self):
        fs = FeatureSet(np.array([[0.2, 0.1], [0.5, -0.3]]))
        policy = DesignPolicy(np.array([1.0, 0.0]))
        pm = policy_moments(fs, policy)
        assert np.allclose(pm.mean, [0.2, 0.1])
        assert np.allclose(pm.covariance, 0.0)
        assert np.allclose(covariance_pairwise(fs, policy), 0.0)

    def test_symmetric_two_point(self):
        fs = FeatureSet(np.array([[1.0, 0.0], [-1.0, 0.0]]))
        policy = DesignPolicy(np.array([0.5, 0.5]))
        pm = policy_moments(fs, policy)
        assert np.allclose(pm.mean, 0.0)
        assert np.allclose(pm.covariance, np.outer([1, 0], [1, 0]))

    def test_direct_expansion(self):
        fs = FeatureSet(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
        policy = DesignPolicy(np.array([0.5, 0.25, 0.25]))
        pm = policy_moments(fs, policy)
        assert np.allclose(pm.covariance, [[3 / 16, -1 / 16], [-1 / 16, 3 / 16]])

    def test_two_point_pairwise(self):
        fs = FeatureSet(np.array([[0.3, 0.4], [-0.1, 0.9]]))
        policy = DesignPolicy(np.array([0.5, 0.5]))
        diff = np.array([0.4, -0.5])
        assert np.allclose(covariance_pairwise(fs, policy), 0.25 * np.outer(diff, diff))

    def test_pairwise_identity_random(self):
        rng = np.random.default_rng(16)
        for _ in range(100):
            k = int(rng.integers(2, 7))
            fs = FeatureSet(random_unit_features(rng, 4, k))
            p = rng.dirichlet(np.ones(k))
            p /= p.sum()
            policy = DesignPolicy(p)
            direct = policy_moments(fs, policy).covariance
            pairwise = covariance_pairwise(fs, policy)
            assert np.linalg.norm(direct - pairwise) <= 1e-10

    def test_dim_mismatch(self):
        fs = FeatureSet(np.array([[1.0, 0.0]]))
        with pytest.raises(DimError):
            policy_moments(fs, DesignPolicy(np.array([0.5, 0.5])))
