"""NaN at the library boundary: every guarded public scalar argument
rejects NaN, integrate_1d a NaN or infinite integrand value and
stability_bound a NaN or infinite nuclear charge, with the exception its
range check documents."""
import math

import numpy as np
import pytest

from chargelab import correlation, foldy, matrixloc, numerics, spectral, trialstate, variational
from chargelab.errors import DomainError, PreconditionError

NAN = math.nan
PAIR = correlation.ParticleConfiguration(positions=[[0, 0, 0], [1, 0, 0]], charges=[1, -1])
GRID = numerics.uniform_radial_grid(16, 8.0)
LOCALIZED = matrixloc.localize(
    matrixloc.LocalizationProblem(matrix=np.eye(4), psi=np.full(4, 0.5), window=2))

CASES = {
    "pair_energy-mu": (lambda: correlation.pair_energy(PAIR, NAN), DomainError),
    "yukawa_positivity-mu": (lambda: correlation.yukawa_positivity_check(PAIR, NAN),
                             DomainError),
    "simplified-nu": (lambda: foldy.simplified_energy_quadrature(NAN, 1.0), DomainError),
    "simplified-ell": (lambda: foldy.simplified_energy_quadrature(1.0, NAN), DomainError),
    "budget-c": (lambda: LOCALIZED.budget(NAN), DomainError),
    "verify_budget-c": (lambda: matrixloc.verify_budget(LOCALIZED, NAN), DomainError),
    "quadrature-error": (lambda: numerics.QuadratureResult(0.0, NAN, 1), PreconditionError),
    "integrate-tol": (lambda: numerics.integrate_1d(math.exp, 0.0, 1.0, tol=NAN),
                      DomainError),
    "integrate-scale": (lambda: numerics.integrate_1d(math.exp, 0.0, math.inf, scale=NAN),
                        DomainError),
    "integrate-f": (lambda: numerics.integrate_1d(lambda x: NAN, 0.0, 1.0), DomainError),
    "integrate-f-inf": (lambda: numerics.integrate_1d(lambda x: math.inf, 0.0, math.inf),
                        DomainError),
    "radial_grid-r_max": (lambda: numerics.uniform_radial_grid(16, NAN), DomainError),
    "stability-charges": (lambda: spectral.stability_bound((1.0, NAN), 2, 0.04, 10),
                          DomainError),
    "stability-charges-inf": (lambda: spectral.stability_bound((math.inf,), 2, 0.04, 10),
                              DomainError),
    "stability-c_lt": (lambda: spectral.stability_bound((1.0,), 2, NAN, 10), DomainError),
    "stability-strength": (lambda: spectral.stability_bound(None, 2, 0.04, 10, strength=NAN),
                           DomainError),
    "stability-radius": (lambda: spectral.stability_bound((1.0,), 2, 0.04, 10, radius=NAN),
                         DomainError),
    "occupation_f-rho": (lambda: trialstate.occupation_f(NAN, 1.0), DomainError),
    "pointwise-rho": (lambda: trialstate.pointwise_pair_energy(NAN), DomainError),
    "pointwise-tol": (lambda: trialstate.pointwise_pair_energy(1.0, tol=NAN), DomainError),
    "gaussian_profile-width": (lambda: variational.gaussian_profile(GRID, NAN), DomainError),
    "rescale-lam": (lambda: variational.rescale(variational.gaussian_profile(GRID), NAN),
                    DomainError),
    "minimize-step": (lambda: variational.minimize(step=NAN), DomainError),
    "minimize-tol": (lambda: variational.minimize(tol=NAN), DomainError),
}


@pytest.mark.parametrize("call, error", CASES.values(), ids=CASES.keys())
def test_nan_is_rejected(call, error):
    with pytest.raises(error):
        call()
