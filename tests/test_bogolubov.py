"""Tests for the quadratic lower bound and its truncated-Fock realization."""
import sys
from decimal import Decimal, localcontext

import numpy as np
import pytest
import scipy.sparse as sp

from chargelab import bogolubov
from chargelab.bogolubov import (
    GAP_RTOL,
    BogolubovModel,
    TruncatedFockOperator,
    build_hamiltonian,
    closed_form_bound,
    ground_energy,
    mode_floor,
    sharpness_study,
)
from chargelab.errors import (
    ConsistencyError, DomainError, PreconditionError, ResourceLimitError,
)

BOUND_110 = -2.0 + np.sqrt(3.0)  # -0.26794919243112270
BOUND_111 = -3.0 + np.sqrt(5.0)  # -0.76393202250021030


def full_space_operator(model, n_max):
    """Oracle: the Hamiltonian on all (n_max+1)^4 occupation states, as a
    sparse matrix built from Kronecker products of single-mode ladder
    matrices; the states in lexicographic order of (n0, n1, n2, n3).  The
    number operators are exact integers, not b* b, whose diagonal is
    sqrt(n) * sqrt(n)."""
    d = n_max + 1

    def on_mode(single, mode):
        out = sp.identity(1)
        for k in range(4):
            out = sp.kron(out, single if k == mode else sp.identity(d))
        return out.tocsr()

    lower = sp.diags(np.sqrt(np.arange(1.0, d)), offsets=1)  # b|n> = sqrt(n)|n-1>
    b = [on_mode(lower, mode) for mode in range(4)]
    bd = [op.T for op in b]
    num = [on_mode(sp.diags(np.arange(float(d))), mode) for mode in range(4)]
    h = model.t * (num[0] + num[1] + num[2] + num[3])
    h = h + model.g_plus * (num[0] + num[2] + bd[0] @ bd[2] + b[0] @ b[2])
    h = h + model.g_minus * (num[1] + num[3] + bd[1] @ bd[3] + b[1] @ b[3])
    hop = bd[0] @ b[1] + bd[2] @ b[3]
    pair = bd[0] @ bd[3] + bd[1] @ bd[2]
    return (h - np.sqrt(model.g_plus * model.g_minus) * (hop + hop.T + pair + pair.T)).tocsr()


def full_space_matrix(model, n_max):
    return full_space_operator(model, n_max).toarray()


def occupations(n_max):
    """(n0, n1, n2, n3) of every state, in the oracle's order."""
    return np.indices((n_max + 1,) * 4).reshape(4, -1)


def assert_blocks_carry_the_sector_spectrum(model, n_max):
    """The blocks together have exactly the Q = 0 eigenvalues."""
    n0, n1, n2, n3 = occupations(n_max)
    q0 = np.flatnonzero(n0 + n1 == n2 + n3)
    sector = np.linalg.eigvalsh(full_space_matrix(model, n_max)[np.ix_(q0, q0)])
    op = build_hamiltonian(model, n_max)
    blocks = np.sort(np.concatenate([np.linalg.eigvalsh(b) for b in op.blocks]))
    assert op.dimension == len(q0) == len(blocks)
    np.testing.assert_allclose(blocks, sector, rtol=0, atol=1e-12)


# models of every sector rule: g_minus = 0, g_plus = 0, both zero, neither
SECTOR_MODELS = [(0.9, 0.0, 1.7), (1.1, 2.3, 0.0), (0.0, 0.0, 0.0), (1.0, 1.0, 0.0),
                 (0.0, 0.0, 2.5), (0.3, 3.1, 0.0), (2.0, 0.0, 0.0), (0.7, 1.3, 0.4)]


def exact_floor(t, g):
    """(t+g) - sqrt(t^2 + 2tg) in its conjugate form, to 80 digits."""
    with localcontext() as ctx:
        ctx.prec = 80
        t, g = Decimal(t), Decimal(g)
        return g * g / ((t + g) + (t * (t + 2 * g)).sqrt())


class TestModeFloor:
    def test_within_four_eps_of_the_exact_floor(self):
        # ratios t/g from 1e-24 to 1e24 at scales from 1e-200 to 1e100, and
        # points where a formula with 1 - g/(t+g) cancels (t/g = 1e-12) or one
        # that squares g underflows (1e-200)
        rng = np.random.default_rng(1905)
        draws = 10.0 ** rng.uniform([-24.0, -200.0], [24.0, 100.0], size=(20000, 2))
        points = [(g * ratio, g) for ratio, g in draws.tolist()]
        points += [(1e-12, 1.0), (1e-200, 1e-200), (1e-160, 1e-160), (1.0, 1e-12)]
        bound = Decimal(4 * sys.float_info.epsilon)
        for t, g in points:
            ref = exact_floor(t, g)
            for value in (mode_floor(t, g), -closed_form_bound(BogolubovModel(t, g, 0.0))):
                assert abs(Decimal(value) - ref) <= bound * ref, (t, g, value, ref)

    def test_edges(self):
        assert mode_floor(0.0, 0.0) == 0.0
        assert mode_floor(2.5, 0.0) == 0.0
        assert mode_floor(0.0, 2.5) == 2.5  # no kinetic energy: the whole coupling


class TestClosedFormBound:
    def test_reference_values(self):
        assert closed_form_bound(BogolubovModel(1, 1, 0)) == pytest.approx(
            BOUND_110, abs=1e-15
        )
        assert closed_form_bound(BogolubovModel(1, 1, 1)) == pytest.approx(
            BOUND_111, abs=1e-15
        )

    def test_free_case_is_zero(self):
        assert closed_form_bound(BogolubovModel(3.7, 0, 0)) == 0.0
        assert closed_form_bound(BogolubovModel(0, 0, 0)) == 0.0
        # +0.0, so a record writes "0.0", not "-0.0"
        assert np.copysign(1.0, closed_form_bound(BogolubovModel(3.7, 0, 0))) == 1.0

    def test_nonpositive_and_symmetric(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            t, gp, gm = rng.uniform(0, 10, size=3)
            b = closed_form_bound(BogolubovModel(t, gp, gm))
            assert b <= 0.0
            assert b == closed_form_bound(BogolubovModel(t, gm, gp))

    def test_monotone_in_couplings(self):
        # nondecreasing in t, nonincreasing in g_plus
        ts = np.linspace(0.1, 4.0, 15)
        for g in (0.5, 2.0):
            vals = [closed_form_bound(BogolubovModel(t, g, 0.7)) for t in ts]
            assert all(b >= a - 1e-14 for a, b in zip(vals, vals[1:]))
        gs = np.linspace(0.0, 4.0, 15)
        for t in (0.5, 2.0):
            vals = [closed_form_bound(BogolubovModel(t, g, 0.3)) for g in gs]
            assert all(b <= a + 1e-14 for a, b in zip(vals, vals[1:]))

    def test_no_cancellation_when_coupling_is_small(self):
        # -g^2 / (2s) to leading order; -s + sqrt(s^2 - g^2) rounds to 0 here
        b = closed_form_bound(BogolubovModel(1e6, 1e-3, 0))
        assert b == pytest.approx(-0.5e-12 / (1.0 + 1e-9), rel=1e-12, abs=0)

    def test_homogeneous_of_degree_one(self):
        rng = np.random.default_rng(7)
        models = [(1.0, 1.0, 0.0), (1e6, 1e-3, 0.0), *rng.uniform(0, 10, size=(20, 3))]
        for couplings in models:
            bound = closed_form_bound(BogolubovModel(*couplings))
            for lam in np.logspace(-200, 100, 31):
                scaled = closed_form_bound(BogolubovModel(*(lam * c for c in couplings)))
                assert scaled == pytest.approx(lam * bound, rel=1e-14, abs=0)

    def test_rejects_negative_couplings(self):
        with pytest.raises(DomainError):
            BogolubovModel(-1.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            BogolubovModel(1.0, -0.1, 0.0)
        for bad in (np.nan, np.inf, -np.inf):
            for couplings in ((bad, 1.0, 1.0), (1.0, bad, 0.0), (1.0, 0.0, bad)):
                with pytest.raises(DomainError):
                    BogolubovModel(*couplings)


class TestBuildHamiltonian:
    @pytest.mark.parametrize("n_max", range(1, 9))
    def test_the_sector_basis_is_the_filtered_grid(self, n_max):
        # the Q = 0 rows of the full occupation grid, in the grid's order
        occ = occupations(n_max).T
        expected = occ[occ[:, 0] + occ[:, 1] == occ[:, 2] + occ[:, 3]]
        basis = bogolubov._sector_basis(n_max)
        assert basis.dtype == expected.dtype and basis.flags.c_contiguous
        assert np.array_equal(basis, expected)

    def test_dimension_and_symmetry(self):
        # Q = 0 states at n_max=2: sum over n0+n1 = k of (1, 2, 3, 2, 1)^2;
        # 9 of them are fixed by the tau-swap, so the blocks are 14 and 5
        op = build_hamiltonian(BogolubovModel(1, 1, 1), 2)
        assert op.dimension == 19
        assert [b.shape for b in op.blocks] == [(14, 14), (5, 5)]
        for block in op.blocks:
            assert np.abs(block - block.T).max() <= 1e-12

    def test_a_vanishing_coupling_splits_the_parity_blocks(self):
        # at n_max = 12, (n1, n3) or (n0, n2) takes 91 values with n1 >= n3
        # (even) and 78 with n1 > n3 (odd); 1469 = dimension at n_max = 12
        for couplings in ((1.0, 1.0, 0.0), (1.0, 0.0, 1.0), (1.0, 0.0, 0.0)):
            op = build_hamiltonian(BogolubovModel(*couplings), 12)
            assert len(op.blocks) == 169 and op.dimension == 1469
            assert max(b.shape[0] for b in op.blocks) == 13
        assert len(build_hamiltonian(BogolubovModel(1.0, 1.0, 1.0), 12).blocks) == 2

    def test_odd_sectors_are_their_even_blocks(self, monkeypatch):
        # at a vanishing coupling each of the 78 odd sectors at n_max = 12
        # holds the states and entries of the even sector of its occupations:
        # one array, solved once
        for couplings in ((1.0, 1.0, 0.0), (1.0, 0.0, 1.0)):
            op = build_hamiltonian(BogolubovModel(*couplings), 12)
            even, odd = op.blocks[:91], op.blocks[91:]
            assert len({id(block) for block in even}) == 91
            assert all(any(block is other for other in even) for block in odd)
        solved = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            lambda a: solved.append(a.shape) or eigvalsh(a))
        ground_energy(op)
        assert len(solved) == 91 and op.dimension == 1469

    def test_vacuum_diagonal_is_zero(self):
        # the vacuum is the first state and fixed by the tau-swap
        op = build_hamiltonian(BogolubovModel(2.0, 1.5, 0.5), 3)
        assert op.blocks[0][0, 0] == 0.0

    def test_free_case_is_diagonal(self):
        op = build_hamiltonian(BogolubovModel(1.0, 0.0, 0.0), 2)
        for block in op.blocks:
            assert np.all(block == np.diag(np.diag(block)))
        # diagonal = total occupation, so eigenvalues are 0..4*n_max
        diag = np.sort(np.concatenate([np.diag(b) for b in op.blocks]))
        assert diag[0] == 0.0
        assert diag[-1] == 8.0

    def test_blocks_carry_the_sector_spectrum(self):
        rng = np.random.default_rng(1618)
        models = SECTOR_MODELS + [tuple(rng.uniform(0.0, 4.0, size=3)) for _ in range(7)]
        for k, couplings in enumerate(models):
            assert_blocks_carry_the_sector_spectrum(BogolubovModel(*couplings), 1 + k % 5)

    def test_wrong_sector_labels_fail_the_spectrum_check(self, monkeypatch):
        # labelled by (n0, n2) at g_minus = 0, the split drops the g_plus pairs
        monkeypatch.setattr(bogolubov, "_conserved",
                            lambda model: (0, 2) if model.g_minus == 0 else ())
        with pytest.raises(AssertionError):
            assert_blocks_carry_the_sector_spectrum(BogolubovModel(1.1, 2.3, 0.0), 3)

    def test_rejects_an_asymmetric_block(self):
        good = np.eye(2)
        bad = np.array([[0.0, 1.0], [1.0 + 1e-9, 0.0]])
        for blocks in ((bad, good), (good, good, bad)):
            with pytest.raises(PreconditionError, match="not symmetric"):
                TruncatedFockOperator(n_max=1, blocks=blocks)

    def test_invalid_cutoff(self):
        with pytest.raises(PreconditionError):
            build_hamiltonian(BogolubovModel(1, 1, 1), 0)

    def test_resource_cap(self):
        with pytest.raises(ResourceLimitError):
            build_hamiltonian(BogolubovModel(1, 1, 1), 40)
        with pytest.raises(ResourceLimitError):
            build_hamiltonian(BogolubovModel(1, 1, 1), 21)
        assert build_hamiltonian(BogolubovModel(1, 1, 1), 20).dimension == 6181


class TestGroundEnergy:
    def test_zero_matrix(self):
        op = build_hamiltonian(BogolubovModel(0, 0, 0), 1)
        assert ground_energy(op) == 0.0

    def test_sector_matches_full_space(self):
        # the Q = 0 ground energy is the ground energy of the whole space
        rng = np.random.default_rng(2718)
        models = SECTOR_MODELS + [(1.0, 0.0, 0.0), (0.7, 1.3, 0.0), (0.4, 0.0, 2.1)]
        models += [tuple(rng.uniform(0.0, 4.0, size=3)) for _ in range(28)]
        for k, couplings in enumerate(models):
            model, n_max = BogolubovModel(*couplings), 1 + k % 4
            full = np.linalg.eigvalsh(full_space_matrix(model, n_max))[0]
            sector = ground_energy(build_hamiltonian(model, n_max))
            assert sector == pytest.approx(full, abs=1e-12)

    def test_default_ladder_equals_the_parity_block_solve(self):
        # at g_minus = 0 no term links a tau-swap fixed point (n0 = n2) to a
        # pair, so the parity blocks are H on the Q = 0 states with n0 <= n2
        # and with n0 < n2; the sectors split them without changing an entry.
        # eigvalsh of a sector block may round differently from that of the
        # parity block holding it, depending on the LAPACK/BLAS build, so this
        # allows a few ulp; the default ladder's bytes are pinned by the
        # record digests in test_cli.py
        model = BogolubovModel(1.0, 1.0, 0.0)
        for n_max in (2, 4, 8, 12):
            h = full_space_operator(model, n_max)
            n0, n1, n2, n3 = occupations(n_max)
            q0 = n0 + n1 == n2 + n3
            parity = min(
                np.linalg.eigvalsh(h[states][:, states].toarray())[0]
                for states in (np.flatnonzero(q0 & (n0 <= n2)), np.flatnonzero(q0 & (n0 < n2))))
            np.testing.assert_array_max_ulp(
                ground_energy(build_hamiltonian(model, n_max)), parity, maxulp=4)

    def test_uncoupled_vacuum_is_exact(self):
        for n_max in (8, 12):
            op = build_hamiltonian(BogolubovModel(1.0, 0.0, 0.0), n_max)
            assert ground_energy(op) == 0.0

    def test_never_below_bound(self):
        rng = np.random.default_rng(314)
        for _ in range(40):
            t, gp, gm = rng.uniform(0.0, 5.0, size=3)
            model = BogolubovModel(t, gp, gm)
            bound = closed_form_bound(model)
            for n_max in (1, 3):
                assert ground_energy(build_hamiltonian(model, n_max)) >= bound - 1e-10

    def test_monotone_in_cutoff(self):
        # truncation at n_max is a compression of the n_max+1 operator
        for t, gp, gm in [(1.0, 1.0, 0.0), (0.5, 1.5, 1.0), (2.0, 0.3, 0.8)]:
            model = BogolubovModel(t, gp, gm)
            energies = [
                ground_energy(build_hamiltonian(model, n)) for n in range(1, 5)
            ]
            assert all(b <= a + 1e-12 for a, b in zip(energies, energies[1:]))

    def test_swap_symmetry(self):
        e1 = ground_energy(build_hamiltonian(BogolubovModel(0.8, 2.0, 0.5), 4))
        e2 = ground_energy(build_hamiltonian(BogolubovModel(0.8, 0.5, 2.0), 4))
        assert e1 == pytest.approx(e2, abs=1e-10)


class TestStencilCache:
    CASES = [((1.0, 1.0, 0.0), 4), ((0.7, 0.0, 1.3), 3), ((1.3, 0.7, 1.1), 5),
             ((0.0, 0.0, 0.0), 2), ((1e8, 1e-3, 0.0), 4), ((2.0, 0.5, 1.5), 4)]

    def test_cached_arrays_are_read_only(self):
        for conserved in ((1, 3), (0, 2), ()):
            stencil = bogolubov._stencil(3, conserved)
            assert bogolubov._stencil(3, conserved) is stencil
            arrays = [f for f in stencil if isinstance(f, np.ndarray)]
            assert len(arrays) == 5
            for array in arrays:
                assert not array.flags.writeable
                with pytest.raises(ValueError):
                    array[...] = 0

    def test_builds_after_others_equal_a_fresh_build(self):
        fresh = []
        for couplings, n_max in self.CASES:
            bogolubov._stencil.cache_clear()
            fresh.append(build_hamiltonian(BogolubovModel(*couplings), n_max).blocks)
        for n_max in (1, 2, 3, 4, 5, 6):
            for couplings in ((0.3, 0.0, 0.0), (0.0, 0.9, 0.0), (1.1, 0.2, 0.4)):
                build_hamiltonian(BogolubovModel(*couplings), n_max)
        for (couplings, n_max), blocks in reversed(list(zip(self.CASES, fresh))):
            again = build_hamiltonian(BogolubovModel(*couplings), n_max).blocks
            assert [(b.shape, b.tobytes()) for b in again] == [
                (b.shape, b.tobytes()) for b in blocks]


class TestSharpnessStudy:
    def test_converges_to_bound(self):
        rows = sharpness_study(BogolubovModel(1, 1, 0), [2, 4, 8, 12])
        assert [r[0] for r in rows] == [2, 4, 8, 12]
        gaps = [r[2] for r in rows]
        assert all(g >= -1e-9 for g in gaps)
        assert all(b <= a + 1e-9 for a, b in zip(gaps, gaps[1:]))
        # within 1% of the bound magnitude at the deepest cutoff
        assert gaps[-1] <= 0.01 * abs(BOUND_110)

    def test_two_coupling_case_within_one_percent(self):
        rows = sharpness_study(BogolubovModel(1, 1, 1), [4, 8, 12])
        assert rows[-1][2] <= 0.01 * abs(BOUND_111)
        assert rows[-1][1] == pytest.approx(BOUND_111, rel=1e-9)

    def test_gap_tolerance_is_relative_to_the_energy_scale(self, monkeypatch):
        model = BogolubovModel(1e8, 1e-3, 0.0)
        tol = model.gap_tolerance
        assert tol == GAP_RTOL * (1e8 + 1e-3)
        rows = sharpness_study(model, [2, 4])
        assert all(r[2] >= -tol for r in rows)
        bound = closed_form_bound(model)
        monkeypatch.setattr(bogolubov, "ground_energy", lambda op: bound - 0.5 * tol)
        sharpness_study(model, [2])
        monkeypatch.setattr(bogolubov, "ground_energy", lambda op: bound - 2.0 * tol)
        with pytest.raises(ConsistencyError):
            sharpness_study(model, [2])

    def test_validates_cutoff_list(self):
        with pytest.raises(PreconditionError):
            sharpness_study(BogolubovModel(1, 1, 0), [])
        with pytest.raises(PreconditionError):
            sharpness_study(BogolubovModel(1, 1, 0), [4, 4])
        with pytest.raises(PreconditionError):
            sharpness_study(BogolubovModel(1, 1, 0), [4, 2])
