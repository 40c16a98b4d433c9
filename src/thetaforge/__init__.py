"""thetaforge: generalized error functions, indefinite lattice cones, and
convergent indefinite theta series with exact modular bookkeeping."""

from .boosted import (BoostedArgument, ConeMatrix, boosted_bound_check,
                      boosted_decompositions, boosted_shadow, build_cone,
                      eval_E_boosted, eval_M_boosted, vigneras_residual_boosted)
from .cones import (ConePair, ConeSystemReport, build_a4_example,
                    build_ar_example, build_r1_example, check_cone_pair,
                    det_identity_residual, q_minus_form)
from .errfn import (ErrFnArgument, ErrFnValue, QuadratureSpec, bound_check,
                    decompose_E_into_M, decompose_M_into_E, derivative_E,
                    derivative_M, discontinuity_limit, eval_E, eval_E_oracle_mc,
                    eval_M, eval_M_contour, shadow, sum_terms, vigneras_residual)
from .exceptions import (BudgetExceeded, DegenerateForm, GenericityViolated,
                         NonExactInput, NotTimelike, RankTooLarge, SingularFrame,
                         ThetaForgeError, ValidationError, WallTooClose, ZeroDelta)
from .quadform import (BilinearForm, ErrorFunctionFrame, dual_frame, signature,
                       subset_projectors)
from .theta import (QExpansion, QTerm, ThetaSpec, ThetaValue, TruncationPolicy,
                    discriminant_group, enumerate_lattice, eval_theta,
                    kernel_phi, kernel_phi_hat, q_expansion)
from .verify import (CheckReport, SignLemmaInstance, run_suite,
                     sign_identity_specialized, sign_lemma_sum)

__version__ = "0.1.0"
