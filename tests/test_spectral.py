"""Radial spectra: eigenvalue oracles, channel sums, and the stability bound."""

import math

import numpy as np
import pytest

from chargelab.errors import (
    AccuracyError,
    ConsistencyError,
    DomainError,
    PreconditionError,
)
from chargelab.numerics import RadialGrid, uniform_radial_grid
from chargelab.spectral import (
    SEMICLASSICAL_LT_RATIO,
    GridDescriptor,
    PotentialSpec,
    SpectrumResult,
    default_eigen_grid,
    gaussian_well,
    ground_state_energy,
    negative_sum,
    nucleus_potential,
    square_well,
    stability_bound,
)

# square well of unit width binds iff depth > pi^2/8; the bound state of
# depth 1.3 solves k cot k = -sqrt(2|E|) with k^2 = 2(1.3 - |E|)
SQUARE_13_CONTINUUM = -0.002114699147569484
GAUSS_50_GROUND = -35.958446671280726
NUCLEUS_13_INTEGRAL = 14.066350491965478  # 1.25 pi^2 sqrt(1.3)
STABILITY_PER_ELECTRON = -9.888264396098041


class TestPotentialSpec:
    def test_rejects_unknown_kind(self):
        with pytest.raises(DomainError):
            PotentialSpec(kind="harmonic", depth=1.0, width=1.0)

    @pytest.mark.parametrize("depth,width", [(0.0, 1.0), (-2.0, 1.0), (1.0, 0.0),
                                             (1.0, -1.0), (math.nan, 1.0)])
    def test_rejects_bad_well_parameters(self, depth, width):
        with pytest.raises(DomainError):
            gaussian_well(depth, width)
        with pytest.raises(DomainError):
            square_well(depth, width)

    def test_rejects_bad_nucleus_parameters(self):
        for strength, cutoff in ((0.0, 1.0), (1e124, 1.0), (1.0, 0.0), (1.0, math.inf)):
            with pytest.raises(DomainError):
                nucleus_potential(strength, cutoff)

    def test_radial_values(self):
        r = np.array([0.25, 1.0, 2.0])
        gauss = gaussian_well(3.0, 1.0).radial(r)
        assert gauss[1] == pytest.approx(-3.0 / math.e, rel=1e-15)
        square = square_well(2.0, 1.0).radial(r)
        assert square[0] == -2.0 and square[1] == 0.0 and square[2] == 0.0
        vals = nucleus_potential(2.0, 1.0).radial(np.array([0.5, 1.0, 3.0]))
        # at r = R/2 the screened tail leaves exactly strength / R
        assert vals[0] == pytest.approx(-2.0, rel=1e-15)
        assert vals[1] == 0.0 and vals[2] == 0.0

    def test_length_scale(self):
        assert gaussian_well(2.0, 1.7).length_scale == 1.7
        assert nucleus_potential(1.0, 0.4).length_scale == 0.4
        grid = default_eigen_grid(square_well(1.0, 2.0))
        assert grid.n_nodes == 2000 and grid.r_max == 16.0


class TestVIntegral:
    def test_gaussian_closed_form_vs_quadrature(self):
        spec = gaussian_well(7.0, 1.4)
        closed = 7.0**2.5 * (2.0 * math.pi / 5.0) ** 1.5 * 1.4**3
        assert spec.v_integral() == pytest.approx(closed, rel=1e-15)
        assert spec.v_integral_quadrature() == pytest.approx(closed, rel=1e-9)

    def test_square_closed_form_vs_quadrature(self):
        spec = square_well(3.0, 0.8)
        closed = 3.0**2.5 * (4.0 * math.pi / 3.0) * 0.8**3
        assert spec.v_integral() == pytest.approx(closed, rel=1e-15)
        assert spec.v_integral_quadrature() == pytest.approx(closed, rel=1e-12)

    def test_nucleus_frozen_value(self):
        spec = nucleus_potential(1.0, 1.3)
        assert spec.v_integral() == pytest.approx(NUCLEUS_13_INTEGRAL, rel=1e-13)
        assert spec.v_integral_quadrature() == pytest.approx(
            NUCLEUS_13_INTEGRAL, rel=1e-8
        )

    @pytest.mark.parametrize("radius", [1e-298, 1e-6, 1.0, 1e123])
    def test_nucleus_routes_agree_across_radii(self, radius):
        spec = nucleus_potential(1.0, radius)
        assert spec.v_integral_quadrature() == pytest.approx(spec.v_integral(), rel=1e-8)

    def test_nucleus_scales_with_count_and_strength(self):
        base = nucleus_potential(1.0, 0.7).v_integral()
        assert nucleus_potential(2.0, 0.7).v_integral() == pytest.approx(
            2.0**2.5 * base, rel=1e-14
        )
        # three nuclei of charge 0.5 couple at 1 + 2 * 0.5 = 2: three balls
        three = stability_bound((0.5, 0.5, 0.5), q=1, c_lt=0.04, n_electrons=1, radius=0.7)
        assert three.v_integral == pytest.approx(3.0 * 2.0**2.5 * base, rel=1e-14)


class TestGroundState:
    def test_square_well_threshold_bracket(self):
        # binding turns on at depth pi^2 / 8 = 1.2337
        grid = uniform_radial_grid(3000, 60.0)
        assert ground_state_energy(square_well(1.2), grid) == 0.0
        e = ground_state_energy(square_well(1.3), grid)
        assert e == pytest.approx(-0.002110991013816751, rel=1e-9)
        assert e == pytest.approx(SQUARE_13_CONTINUUM, abs=1e-5)

    def test_gaussian_frozen_value(self):
        assert ground_state_energy(gaussian_well(50.0)) == pytest.approx(
            GAUSS_50_GROUND, rel=1e-10
        )

    def test_near_coulomb_limit(self):
        # inside the screening ball the potential is hydrogenic shifted by
        # strength / R, so E0 -> -1/2 + 1/R up to exp(-R) corrections
        spec = nucleus_potential(1.0, 50.0)
        e = ground_state_energy(spec, uniform_radial_grid(4000, 40.0))
        assert e == pytest.approx(-0.48, abs=1e-7)

    def test_deeper_wells_bind_harder(self):
        energies = [ground_state_energy(gaussian_well(d)) for d in (10.0, 20.0, 40.0)]
        assert energies[0] < 0
        assert energies[2] < energies[1] < energies[0]

    def test_scaling_covariance(self):
        # V -> lambda^2 V(lambda x) with the grid shrunk in tandem scales
        # every matrix entry by lambda^2 = 4 exactly
        e1 = ground_state_energy(gaussian_well(12.0), uniform_radial_grid(1600, 10.0))
        e2 = ground_state_energy(
            gaussian_well(48.0, 0.5), uniform_radial_grid(1600, 5.0)
        )
        assert e2 == pytest.approx(4.0 * e1, rel=1e-13)

    def test_coarse_grid_trips_accuracy_gate(self):
        with pytest.raises(AccuracyError):
            ground_state_energy(gaussian_well(50.0), uniform_radial_grid(64, 8.0))

    def test_graded_grid_rejected(self):
        nodes = 8.0 * np.linspace(0.05, 1.0, 400) ** 2
        graded = RadialGrid(nodes=nodes, weights=4.0 * np.pi * nodes**2, r_max=8.0)
        with pytest.raises(PreconditionError):
            ground_state_energy(gaussian_well(5.0), graded)


class TestNegativeSum:
    def test_subcritical_well_is_empty(self):
        result = negative_sum(square_well(1.0), uniform_radial_grid(3000, 60.0))
        assert result.eigenvalues.size == 0
        assert result.neg_sum == 0.0
        assert result.lt_ratio == 0.0
        assert result.grid_spec.ell_max == 0

    def test_single_bound_state(self):
        result = negative_sum(square_well(1.3), uniform_radial_grid(3000, 60.0))
        assert result.eigenvalues.size == 1
        assert result.neg_sum == pytest.approx(SQUARE_13_CONTINUUM, abs=1e-5)
        assert result.grid_spec == GridDescriptor(3000, 60.0, 1)

    def test_degeneracies_are_odd_multiplets(self):
        result = negative_sum(gaussian_well(30.0))
        _, counts = np.unique(result.eigenvalues, return_counts=True)
        assert np.all(counts % 2 == 1)
        assert counts.max() >= 5  # at least one d channel binds
        assert result.grid_spec.ell_max >= 3

    def test_depth_ladder(self):
        sums = {d: negative_sum(gaussian_well(d)).neg_sum for d in (50.0, 100.0, 200.0)}
        assert sums[50.0] == pytest.approx(-467.86480723142427, rel=1e-9)
        assert sums[100.0] == pytest.approx(-2673.018618430759, rel=1e-9)
        assert sums[200.0] == pytest.approx(-15163.068919000041, rel=1e-9)
        assert sums[200.0] < sums[100.0] < sums[50.0]

    def test_deep_well_ratio_near_semiclassical(self):
        ratios = {
            d: negative_sum(gaussian_well(d)).lt_ratio for d in (50.0, 100.0, 200.0)
        }
        gaps = [abs(ratios[d] / SEMICLASSICAL_LT_RATIO - 1.0) for d in (50.0, 100.0, 200.0)]
        assert gaps[0] > gaps[1] > gaps[2]  # deeper wells close the gap
        assert gaps[2] < 0.15
        assert ratios[200.0] == pytest.approx(-0.019028183184931217, rel=1e-9)

    def test_ratio_scale_invariant(self):
        a = negative_sum(gaussian_well(12.0), uniform_radial_grid(1600, 10.0))
        b = negative_sum(gaussian_well(48.0, 0.5), uniform_radial_grid(1600, 5.0))
        assert b.lt_ratio == pytest.approx(a.lt_ratio, rel=1e-13)
        assert b.neg_sum == pytest.approx(4.0 * a.neg_sum, rel=1e-13)

    def test_result_guards(self):
        grid = GridDescriptor(10, 1.0, 0)
        with pytest.raises(ConsistencyError):
            SpectrumResult(np.array([-1.0, 0.5]), -0.5, 1.0, grid)
        with pytest.raises(ConsistencyError):
            SpectrumResult(np.array([-1.0]), -2.0, 1.0, grid)
        with pytest.raises(ConsistencyError):
            SpectrumResult(np.array([-1.0]), -1.0, -1.0, grid)
        starved = SpectrumResult(np.array([-1.0]), -1.0, 0.0, grid)
        with pytest.raises(DomainError):
            starved.lt_ratio


class TestStabilityBound:
    def test_frozen_single_nucleus(self):
        bound = stability_bound((1.0,), q=2, c_lt=0.04, n_electrons=10)
        assert bound.strength == 3.0
        assert bound.radius == pytest.approx(1.0 / 3.0, rel=1e-15)
        assert bound.v_integral == pytest.approx(111.03304951225527, rel=1e-12)
        assert bound.per_electron == pytest.approx(STABILITY_PER_ELECTRON, rel=1e-12)
        assert bound.total == pytest.approx(10.0 * STABILITY_PER_ELECTRON, rel=1e-12)

    def test_linear_in_electron_count(self):
        totals = [
            stability_bound((1.0,), q=2, c_lt=0.04, n_electrons=n).total
            for n in (10, 11, 12)
        ]
        # each extra electron costs exactly strength / radius = 9
        assert totals[1] - totals[0] == -9.0
        assert totals[2] - totals[1] == -9.0

    def test_only_count_and_largest_charge_enter(self):
        base = stability_bound((1.0, 3.0, 2.0), q=2, c_lt=0.05, n_electrons=4)
        for charges in ((3.0, 2.0, 1.0), (2.0, 1.0, 3.0), (0.1, 3.0, 3.0), (3.0, 1e-9, 2.5)):
            assert stability_bound(charges, q=2, c_lt=0.05, n_electrons=4) == base

    def test_max_charge_sets_coupling(self):
        bound = stability_bound((1.0, 2.0), q=2, c_lt=0.04, n_electrons=3)
        assert bound.strength == 5.0
        assert bound.radius == pytest.approx(0.2, rel=1e-15)
        per_ball = 1.25 * math.pi**2 * math.sqrt(0.2)
        assert bound.v_integral == pytest.approx(
            5.0**2.5 * 2.0 * per_ball, rel=1e-12
        )

    def test_explicit_radius_override(self):
        default = stability_bound((1.0,), q=2, c_lt=0.04, n_electrons=5)
        wide = stability_bound((1.0,), q=2, c_lt=0.04, n_electrons=5, radius=1.0)
        assert wide.radius == 1.0
        assert wide.v_integral == pytest.approx(
            default.v_integral * math.sqrt(3.0), rel=1e-12
        )

    def test_vacuum_case(self):
        bound = stability_bound(
            None, q=2, c_lt=0.04, n_electrons=5, radius=1.0 / 3.0, strength=3.0
        )
        assert bound.v_integral == 0.0
        assert bound.total == -45.0
        with pytest.raises(DomainError):
            stability_bound(None, q=2, c_lt=0.04, n_electrons=5, radius=1.0)

    def test_validation(self):
        nuclei = (1.0,)
        with pytest.raises(DomainError):
            stability_bound(nuclei, q=0, c_lt=0.04, n_electrons=1)
        with pytest.raises(DomainError):
            stability_bound(nuclei, q=1, c_lt=0.0, n_electrons=1)
        with pytest.raises(DomainError):
            stability_bound(nuclei, q=1, c_lt=0.04, n_electrons=0)
        with pytest.raises(DomainError):
            stability_bound(nuclei, q=1, c_lt=0.04, n_electrons=1, radius=-1.0)
        for charges in ((-1.0,), (1.0, 0.0), (1e124,)):
            with pytest.raises(DomainError):
                stability_bound(charges, q=1, c_lt=0.04, n_electrons=1)
        with pytest.raises(PreconditionError):
            stability_bound((), q=1, c_lt=0.04, n_electrons=1)
