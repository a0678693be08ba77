"""Fast matrix-vector products: Kronecker grids and masked Toeplitz series.

Product kernels on Cartesian grids factorize the Gram into per-axis
matrices, and equispaced time series give Toeplitz Grams; both admit
near-linear products, which is exactly the regime where spending CG steps
on the full dataset beats spending an inducing budget. Both are read off
the points by gram_structure: kmcg_fit and the CG baselines use the
Kronecker operator on grid data, and the masked Toeplitz operator on a
series with missing observations, by themselves.
"""

import time

import numpy as np

from kernelcg import exact, kmcg, lowrank
from kernelcg.harness import metric_relerr
from kernelcg.kernels import gram, se_kernel
from kernelcg.structured import gram_structure, grid_dataset, grid_spec, kron_mvm

# --- Kronecker grid products ------------------------------------------------
kernel3 = se_kernel([1.0, 1.0, 1.0], 1.0)
spec = grid_spec(kernel3, [np.linspace(-4, 4, 32)] * 3)
v = np.random.default_rng(0).standard_normal(spec.size)
start = time.perf_counter()
kron_mvm(spec.factors, v)
elapsed = time.perf_counter() - start
print(f"32x32x32 grid ({spec.size} points): one structured product in {elapsed * 1e3:.1f} ms")
print("a dense product would need a 32768^2 Gram (8.6 GB) that is never formed\n")

# --- the 10x10 grid experiment ------------------------------------------------
kernel = se_kernel([1.0, 1.0], 1.0)
sigma2 = 1e-2
data = grid_dataset(10, 2, kernel, seed=0)
oracle = exact.fit(kernel, data.X, data.y, sigma2)
want = exact.predict_mean(oracle, data.X_star)

model = kmcg.kmcg_fit(kernel, data.X, data.y, sigma2, eps=0.0, max_steps=100)  # Kronecker operator
eps_kmcg = metric_relerr(want, kmcg.kmcg_mean(model, data.X_star))

X_U = data.X[lowrank.choose_inducing(100, 100, seed=0)]
sor_mean, _, _ = lowrank.InducingFits(kernel, data.X, data.y, sigma2, X_U, data.X_star).predict("sor")
eps_sor = metric_relerr(want, sor_mean)
print("10x10 grid, matched budget 100 (steps vs inducing inputs):")
print(f"  learned-kernel mean error {eps_kmcg:.2e}  vs  subset-of-regressors {eps_sor:.2e}")
print("  the Krylov path shrugs off the grid Gram's conditioning; dense brackets cannot\n")

# --- masked Toeplitz series ---------------------------------------------------
t = 512
kernel1 = se_kernel([0.002], 1.0)
rng = np.random.default_rng(1)
mask = np.sort(rng.choice(t, size=400, replace=False))
observed = np.arange(t, dtype=float)[mask].reshape(-1, 1)
series = gram_structure(kernel1, observed)  # a ToeplitzGram: the times sit on a unit grid
w = rng.standard_normal(400)
fast = series.operator().apply(w)
dense = gram(kernel1, observed) @ w
print(f"masked series (T={t}, {mask.size} observed): "
      f"structured vs dense product agree to {np.max(np.abs(fast - dense)):.2e}")
