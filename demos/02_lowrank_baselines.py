"""Classical low-rank approximations at increasing inducing budgets.

Every method here plugs a finite-rank kernel phi(x)^T Sigma^{-1} phi(z)
into the GP equations: subset of regressors (and its DTC variance), FITC,
VFE, and the projected Bayes regressor built from an analytic
eigenexpansion. As the budget M approaches N they all collapse onto the
exact model.
"""

import numpy as np

from kernelcg import exact, lowrank
from kernelcg.harness import metric_relerr
from kernelcg.kernels import se_kernel

rng = np.random.default_rng(0)
kernel = se_kernel([2.0, 2.0], 1.5)
sigma2 = 0.1
X = rng.uniform(0, 2, (80, 2))
y = rng.standard_normal(80)
X_star = rng.uniform(0, 2, (40, 2))

oracle = exact.fit(kernel, X, y, sigma2)
want = exact.predict_mean(oracle, X_star)
want_ev = exact.log_evidence(oracle)

eig = lowrank.se_eigen_expansion(kernel, X.mean(axis=0), X.std(axis=0), 80)
pbr = lowrank.PbrFits(eig, X, y, sigma2, X_star)  # every rank from one factor

# The budgets are nested: each M takes the first M points of one random
# order of the data, and one InducingFits reads every budget off one pair
# of factors.
fits = lowrank.InducingFits(kernel, X, y, sigma2, X[np.random.default_rng(1).permutation(80)], X_star)

print(f"{'M':>4} {'sor eps_f':>12} {'fitc eps_f':>12} {'vfe eps_f':>12} {'pbr eps_f':>12} {'vfe ev gap':>12}")
for m in (5, 10, 20, 40, 80):
    sor_mean, _, _ = fits.predict("sor", m)
    eps_sor = metric_relerr(want, sor_mean)

    fitc_mean, _, _ = fits.predict("fitc", m)
    eps_fitc = metric_relerr(want, fitc_mean)

    vfe_mean, _, vfe_ev = fits.predict("vfe", m)
    eps_vfe = metric_relerr(want, vfe_mean)

    eps_pbr = metric_relerr(want, pbr.predict(m))

    # The VFE evidence is a lower bound and its gap closes with M; at
    # M = N the printed gap is only the rounding floor of the (badly
    # conditioned) dense factorizations, so it may dip slightly negative.
    print(f"{m:>4} {eps_sor:>12.2e} {eps_fitc:>12.2e} {eps_vfe:>12.2e} {eps_pbr:>12.2e} {want_ev - vfe_ev:>12.2e}")

# The DTC variance restores the exact prior far from the data; SoR's
# plain variance collapses there.
X_U = X[lowrank.choose_inducing(80, 10, seed=1)]
fits = lowrank.InducingFits(kernel, X, y, sigma2, X_U, np.full((1, 2), 100.0))
plain = fits.predict("sor")[1][0]
dtc = fits.predict("dtc")[1][0]
print(f"\nfar-field variance, plain: {plain:.2e} (collapses), dtc: {dtc:.4f} (prior {kernel.theta_f})")
