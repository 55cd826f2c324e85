"""Numerical tolerances shared across the package, and the table of every cut
the package decides by: its value, where it is applied and the decision it
serves.  Cuts other than these three and ``oracles``' named ones are literals.

=================  ================================  ===========================================
cut                applied in                        decides
=================  ================================  ===========================================
TOL_EQ 1e-8        behavior.validate, invalid_rows   invalid: a component past [-1, 1], or a
                                                     probability below 0, by more
                   _fine_local, extremality._screen  Local (Fine): max CHSH <= 2 + TOL_EQ
                   extremality._criterion_holds,     asin-sum equalities (criterion, self-test
                   the self-test residual checks     residuals): |sum - pi| <= TOL_EQ
                   _sums, masanes_check,             necessary inequalities: slack >= -TOL_EQ;
                   necessary_conditions_check        Masanes: every |marginal| <= TOL_EQ
                   realization._alternating          margins >= -TOL_EQ; exposed: inner > TOL_EQ
                   alternation_margins, witness,     canonical range and image ties widened by
                   is_canonical, _canonicalize_many  it; sector theta in (TOL_EQ, pi/4 + TOL_EQ]
                   witness._admitted_sectors         a sector's |alpha_y| <= 1 + TOL_EQ
                   _gauge_placement, _solve_gauge    gauge residual, degenerate pair collapse
TOL_CLAMP 1e-9     steered_many, masanes_check       correlator past [-1, 1] by more: error
TOL_RECON 1e-6     selftest.reconstruct_rows         round trip beyond it: InconsistentGaugeError
1e-9, 1e-12        oracles.local_membership_lp       local: objective and weight fit <= 1e-9;
                                                     nonlocal: dual separation > 1e-12
_LP_TOL 1e-11      oracles._phase1_float             pivot: entering cost, leaving column entry
FOUND_RESIDUAL,    oracles._found                    decomposition found: mixture residual <=
FOUND_SEPARATION                                     1e-10 and separation >= 1e-3
1e-12              realization.alternation_margins,  |sin 2 theta| < 1e-12: DegenerateThetaError
                   steering.modified_angles
1e-9               realization.sample_realization    |sin 2 theta| < 1e-9: draw again
1e-11              selftest._solve_gauge             |det| = |sin(s1 - s0)| < 1e-11: degenerate
1e-9, 1e-7         _gauge_placement, _solve_gauge    skip bgauge with sin < 1e-9; no theta past
                                                     |cos 2 theta| = 1 + 1e-7;
                                                     theta = pi/4 below |cos 2 theta| = 1e-9
1e-12, 1e-10       witness._sector_solution,         |D_st| < 1e-12: degenerate;
                   _orthonormalize                   pivot 1e-10
=================  ================================  ===========================================
"""

TOL_EQ = 1e-8
TOL_CLAMP = 1e-9
TOL_RECON = 1e-6
