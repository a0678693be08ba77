"""Plain conjugate gradients versus the CG-learned kernel on the toy data.

Both methods spend the same P matrix-vector products. CG approximates only
the weight vector and keeps the exact cross-covariance; the learned-kernel
estimator replaces the kernel everywhere, which buys it a better mean, plus
variance and evidence estimates that CG simply does not have.
"""

from kernelcg import exact, kmcg, solvers
from kernelcg.datasets import TOY_DEFAULT_SIGMA2, gen_toy, toy_kernel
from kernelcg.harness import metric_ev_err, metric_relerr

kernel = toy_kernel()
data = gen_toy(seed=2)
oracle = exact.fit(kernel, data.X, data.y, TOY_DEFAULT_SIGMA2)
want_mean = exact.predict_mean(oracle, data.X_star)
want_var = exact.predict_var(oracle, data.X_star)
want_ev = exact.log_evidence(oracle)

print(f"{'P':>3} {'cg eps_f':>12} {'kmcg eps_f':>12} {'kmcg eps_var':>13} {'kmcg eps_ev':>12}")
steps = range(1, 11)
models = kmcg.kmcg_models_for_steps(kernel, data.X, data.y, TOY_DEFAULT_SIGMA2, steps=steps, eps=0.0)
# One CG trace and one pass over k(X*, X_M) predict all ten budgets; plain
# CG likewise predicts its ten budgets from one trace.
predictions = kmcg.kmcg_predictions(list(models.values()), data.X_star)
cg_means = solvers.cg_predict_means(
    kernel, data.X, data.y, TOY_DEFAULT_SIGMA2, data.X_star, budgets=steps, eps=0.0
)
for (p, model), (mean, var), (cg_mean, _, _) in zip(models.items(), predictions, cg_means):
    eps_cg = metric_relerr(want_mean, cg_mean)
    eps_f = metric_relerr(want_mean, mean)
    eps_var = metric_relerr(want_var, var)
    eps_ev = metric_ev_err(want_ev, kmcg.kmcg_evidence(model))
    print(f"{p:>3} {eps_cg:>12.2e} {eps_f:>12.2e} {eps_var:>13.2e} {eps_ev:>12.2e}")

print("\nwith one more step budget the learned kernel usually leads; at P = N both are exact")
