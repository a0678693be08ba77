"""The posterior over the kernel: progression, calibration and samples.

The estimator maintains a full Gaussian posterior over the kernel
function, not just a point estimate. This script tracks how the learned
kernel, its posterior variance and the error-to-variance ratio evolve with
the number of CG steps, and draws Gram-matrix samples through the
symmetric-Kronecker factorization.
"""

import numpy as np

from kernelcg import kmcg
from kernelcg.datasets import TOY_DEFAULT_SIGMA2, gen_toy, toy_kernel
from kernelcg.kernels import gram

kernel = toy_kernel()
data = gen_toy(seed=2)
X = data.X
K = gram(kernel, X)

print(f"{'P':>3} {'max |k - khat|':>15} {'mean sd(khat)':>14} {'max err^2/var':>14}")
models = kmcg.kmcg_models_for_steps(kernel, X, data.y, TOY_DEFAULT_SIGMA2, steps=(2, 4, 8), eps=0.0)
for p in (2, 4, 8):
    model = models[p]
    G = kmcg.kmcg_kernel_gram(model, X)
    var = kmcg.kmcg_uncertainty_gram(model, X)
    ratio = kmcg.error_bound_ratio(model, X, K)
    print(f"{p:>3} {np.max(np.abs(K - G)):>15.3e} {np.mean(np.sqrt(np.maximum(var, 0))):>14.3e} "
          f"{np.max(ratio):>14.3f}")

print("\nthe squared error never exceeds twice the posterior variance")

# Samples from the kernel posterior are symmetric matrices scattered
# around the learned Gram; their spread matches the posterior variance.
model = models[4]
X_s = X[:4]
rng = np.random.default_rng(0)
draws = np.stack([kmcg.kmcg_sample(model, X_s, rng) for _ in range(2000)])
print("\nposterior-sample check on four training points (P=4):")
print("empirical sd of draws:")
print(np.array_str(np.std(draws, axis=0), precision=3))
print("posterior sd:")
sds = np.sqrt(np.maximum(kmcg.kmcg_uncertainty_gram(model, X_s), 0.0))
print(np.array_str(sds, precision=3))
assert np.array_equal(draws[0], draws[0].T), "draws are symmetric by construction"
