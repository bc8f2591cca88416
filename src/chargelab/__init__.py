"""chargelab: a numerical laboratory for charged Bose gas energy estimates.

Modules
-------
numerics     quadrature, uniform radial grids, seed derivation
foldy        the constant J and the simplified local energy by quadrature
bogolubov    quadratic-Hamiltonian lower bound and truncated-Fock sharpness
correlation  Yukawa pair energies and correlation inequality checkers
variational  minimization of the density functional (the N^(7/5) constant)
trialstate   occupation function, pair-energy identity, trace scaling,
             finite tight-frame trace inequality
matrixloc    window localization of large Hermitian matrices
spectral     radial Schrodinger spectra, semiclassical ratios, stability bound
cli          command-line front end with reproducible run records
"""

__version__ = "0.1.0"
