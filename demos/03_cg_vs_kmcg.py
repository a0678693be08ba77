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
models = kmcg.kmcg_models_for_steps(
    kernel, data.X, data.y, TOY_DEFAULT_SIGMA2, steps=range(1, 11), eps=0.0
)
# One CG trace and one pass over k(X*, X_M) predict all ten budgets.
predictions = kmcg.kmcg_predictions(list(models.values()), data.X_star)
for (p, model), (mean, var) in zip(models.items(), predictions):
    cg_mean = solvers.cg_predict_mean(
        kernel, data.X, data.y, TOY_DEFAULT_SIGMA2, data.X_star, eps=0.0, max_steps=p
    )
    eps_cg = metric_relerr(want_mean, cg_mean)
    eps_f = metric_relerr(want_mean, mean)
    eps_var = metric_relerr(want_var, var)
    eps_ev = metric_ev_err(want_ev, kmcg.kmcg_evidence(model))
    print(f"{p:>3} {eps_cg:>12.2e} {eps_f:>12.2e} {eps_var:>13.2e} {eps_ev:>12.2e}")

print("\nwith one more step budget the learned kernel usually leads; at P = N both are exact")
