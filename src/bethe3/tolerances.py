"""Central tolerance and regime constants.

Every numeric acceptance knob lives here so the whole suite can be tightened
or relaxed in one place.  They are constants: trace_root, solve_state,
spectrum and the CLI solve to RESIDUAL_TOL, and nothing overrides it at run
time.
"""
from __future__ import annotations

# Root-solving
RESIDUAL_TOL = 1e-12        # inf-norm residual at accepted roots
NEWTON_MAX_ITER = 100
NEWTON_MAX_HALVINGS = 40
NEWTON_STALL_ITER = 4       # iterations without a residual decrease: Newton has stalled
NEWTON_FLOOR_STEP = 1e-8    # a stalled full step below this relative to x: the residual floor

# Identity / bookkeeping checks
IDENTITY_TOL = 1e-10        # momentum conservation, round trips
IMAG_TOL = 1e-10            # residual imaginary parts must cancel below this
ENERGY_AGREEMENT_RTOL = 1e-11  # sum(k^2) vs coordinate energy formulas

# Wavefunction / observables
DEGENERATE_MOMENTA_TOL = 1e-12  # pairwise |k_j - k_l| below this: raw ansatz vanishes
NEAR_DEGENERATE_EXPONENT = 1e-6  # window routed to the nearest limiting case
NORM_IMAG_RTOL = 1e-9           # relative imaginary defect allowed in <psi|psi>

# Continuation
BASE_STEP = 0.05            # default c-grid spacing; also the first march step and, short
                            # of a rejected step, the least step the march plans
FOLD_ALPHA_SMALL = 0.3      # |delta1| / alpha below this: use the local fold model
FOLD_MIN_SPAN = 1e-6        # refine fold-side grid points down to this distance from C
STEP_CONTRACTION = 0.1      # nominal Newton contraction |r1|/|r0| of a march step
STEP_CORRECTION = 0.1       # nominal predictor error max|root - guess| of a march step
STEP_GROWTH = 2.0           # most an accepted march step grows or shrinks the next by
MIN_STEP = 1e-8             # a march step that still fails below this raises
MAX_GRID_POINTS = 10**6     # most samples on a trace or points n(n+1)/2 on a density grid

# Asymptotic regime admissibility (artifact choices, see module docs)
LARGE_C_MIN = 20.0          # |c| for the first-order real-branch asymptotes
DIMER_C_MAX = -15.0         # c below this: dimer expansions apply
TRIMER_C_MAX = -15.0        # c below this: trimer expansions apply
SMALL_C_MAX = 0.05          # |c| for the small-coupling series
