"""Fast matrix-vector products: Kronecker grids and masked Toeplitz series.

Product kernels on Cartesian grids factorize the Gram into per-axis
matrices, and equispaced time series give Toeplitz Grams; both admit
near-linear products, which is exactly the regime where spending CG steps
on the full dataset beats spending an inducing budget.
"""

import time

import numpy as np

from kernelcg import exact, kmcg, lowrank
from kernelcg.harness import metric_relerr
from kernelcg.kernels import gram, se_kernel
from kernelcg.structured import grid_axes, grid_dataset, grid_spec, kron_mvm, masked_toeplitz_spec

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

gspec = grid_spec(kernel, grid_axes(data.X))
model = kmcg.kmcg_fit(kernel, data.X, data.y, sigma2, eps=0.0, max_steps=100,
                      operator=gspec.operator())
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
mspec = masked_toeplitz_spec(kernel1, t, spacing=1.0, mask=mask)
w = rng.standard_normal(400)
fast = mspec.operator().apply(w)
grid_points = np.arange(t, dtype=float).reshape(-1, 1)
dense = gram(kernel1, grid_points[mask]) @ w
print(f"masked series (T={t}, {mask.size} observed): "
      f"structured vs dense product agree to {np.max(np.abs(fast - dense)):.2e}")
