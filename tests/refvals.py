"""Frozen reference values for the standard repressor parameter set.

Every number here was computed by an independent scalar prototype (a
separate throwaway script: plain numpy scalars, brentq on the reduced
equilibrium equation, Newton on the characteristic function, dense
quadratic fits) before the library code was written, then pinned.
Tests compare library output against these constants; nothing in this
file is regenerated from the package itself.
"""

# equilibrium of the standard set (mu_m=0.03, mu_p=0.04, Hill repressor
# alpha_m=35, ybar=1200, h=5, linear production alpha_p=10)
R_STAR = 11.970500756833115
XI_STAR = 2992.6251892082787
F1 = -0.000593843742467914
F2 = 1.1702539798710417e-06
F3 = -2.6635301848428192e-09
G1 = 10.0
P = -0.00593843742467914          # f'(xi*) g'(r*)

# crossing point of the characteristic pair
L_QUAD = 212.82289236165136
EPS0 = 6.862162456498764
OMEGA = 0.47038322445795977
DALPHA_DEPS = 0.018411582466806575
CHAR_2IW = -0.9140361060673183 + 0.18565393919809198j

# critical frame
THETA2 = 7.28431436501914 - 125.78999646512115j
D1 = 0.5147710670864117 + 0.028929082211274985j
D2 = -6.5777179083724166e-06 - 0.0038578333787710533j

# amplitude-equation coefficients
KAPPA1 = 0.01841158246680658 + 0.04829902971352043j
# KAPPA3 at c = 0.01 and 0.05, the kappa3(c) coefficients and C0 come
# from the hand-written cubic forcing term lists of the earlier normal form
# with one summand corrected: the c^2 part of its v1 v1d v1d term of the
# second component carries -2 c^2 mu_p f1 ** 2 (from c^2 G F^2 in
# G/D = G (1 + cF + c^2 F^2)), where those lists had f1. The values are
# pointwise evaluations of the lists at each c; C0 is a bracketed root of
# the pointwise Re kappa3(c), and the coefficients (q2, q1, q0) a
# least-squares fit to 41 pointwise values on [-2, 2], nodes far enough
# apart that roundoff barely moves them. The uncorrected lists gave
# C0 = 0.02394886238700986, and mapped back to these units 0.0139, 0.0091
# and 0.1429 when time, y, and (time, x, y) were measured in units 3, 7 and
# (0.5, 4, 0.2) times smaller; the corrected one reads 1.05833960426 in
# all four (tests/test_normalform.py checks this over random sets). At
# c = 0.05 the corrected Re kappa3 predicts the r-amplitude a direct run
# saturates at (tests/test_dde.py); the uncorrected one was positive there.
KAPPA3 = {
    0.0: -0.0012333366304739383 - 0.0035999966549152963j,
    0.01: -0.00122472932141079 - 0.0036254603477907676j,
    0.05: -0.0011897189382979022 - 0.003729741428316941j,
}
KAPPA3_RE_COEFFS = (0.00029057343014076374, 0.0008578251720136671,
                    -0.0012333366304739396)
KAPPA3_IM_COEFFS = (-0.0012131545121497112, -0.002534237742425394,
                    -0.0035999966549152985)
C0 = 1.0583396042640731

# second-order response coefficients (a1, a2) and (b1, b2)
A_COEFF = {
    0.0: (0.05282158137070061 + 0.04118311779202393j,
          0.02504335428930576 - 4.68997000352642j),
    0.01: (0.052961799355365456 + 0.041658460258612195j,
           0.08446536557287308 - 4.7041775740648015j),
}
B_COEFF = {
    0.0: (0.10410775876193032, 26.02693969048258),
    0.01: (0.10457739696319863, 26.161462800069966),
}
