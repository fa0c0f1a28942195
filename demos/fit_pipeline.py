"""
End-to-end sparse projection fit
================================

Simulate a small regression, write it to CSV, load it back through the
block-wise CSV reader, and walk the full pipeline by hand: conjugate
posterior, l1 projection of every draw, per-coordinate calibration, credible
intervals, and posterior model probabilities.  The `sparseproj fit`
subcommand runs the same steps.
"""

import math
import tempfile
from pathlib import Path

import numpy as np

from sparseproj.calibration import CalibrationQuery, solve_gamma
from sparseproj.dataio import dataset_from_csv
from sparseproj.posterior import factorize, sample_posterior_arrays
from sparseproj.projection import fit_lasso, project_draws
from sparseproj.regions import ProjectedSample, component_intervals, model_probabilities
from sparseproj.types import PriorConfig

# 1. simulate: three real effects, two pure noise columns
rng = np.random.default_rng(7)
n, p = 300, 5
theta_true = np.array([1.2, -0.8, 0.5, 0.0, 0.0])
X = rng.standard_normal((n, p))
Y = X @ theta_true + rng.standard_normal(n)

with tempfile.TemporaryDirectory() as tmp:
    csv_path = Path(tmp) / "demo.csv"
    with open(csv_path, "w") as f:
        f.write(",".join(f"x{j}" for j in range(p)) + ",y\n")
        for i in range(n):
            f.write(",".join(repr(float(v)) for v in X[i]) + f",{float(Y[i])!r}\n")

    # 2. load the CSV: numpy's C parser reads it in blocks of rows, and the Gram
    #    accumulator's sums over row chunks are checked against the dataset's Gram
    ds, names = dataset_from_csv(csv_path, response="y")
print(f"loaded {ds.n} rows, predictors {names}")

# 3. conjugate posterior for the dense coefficients
fact = factorize(ds, PriorConfig(a_n=1.0))
thetas, _ = sample_posterior_arrays(fact, count=4000, seed=11)

# 4. project every draw to its sparse representative
lam = 0.05  # penalty on the (1/n)||Y - Xu||^2 + lam*||u||_1 scale
center = fit_lasso(ds, lam)
U, kkt = project_draws(ds, thetas, lam, warm=center)
print(f"projected 4000 draws, max KKT residual {kkt.max():.2e}")

# 5. calibrate each coordinate's working level so its interval attains 0.95
#    coverage: the limit penalty is lambda_n * sqrt(n), and coordinate j's
#    limiting Gram diagonal c_j is estimated by C_n[j, j]
lam0 = lam * math.sqrt(ds.n)
resid = ds.Y - ds.X @ fact.ridge_mean
sigma_hat = math.sqrt(float(resid @ resid) / ds.n)
levels = [solve_gamma(CalibrationQuery(lambda0=lam0, target=0.95,
                                       c_j=float(ds.gram[j, j]),
                                       sigma0=sigma_hat)).gamma_level
          for j in range(ds.p)]
print(f"lambda0 = {lam0:.3f}, sigma_hat = {sigma_hat:.3f}")

# 6. componentwise credible intervals around the LASSO center
sample = ProjectedSample(draws=U, center=center, n=ds.n, level=levels[0])
lo, hi, _ = component_intervals(sample, levels)
print("\n component   truth   estimate   level    interval")
for j in range(p):
    print(f"  {names[j]:<8} {theta_true[j]:>6.2f} {center[j]:>9.3f}   {levels[j]:.4f}  "
          f"[{lo[j]:>7.3f}, {hi[j]:>7.3f}]")

# 7. which supports does the projected posterior visit?
probs = model_probabilities(sample)
print("\n top supports by posterior probability")
for support, prob in sorted(probs.items(), key=lambda kv: -kv[1])[:5]:
    label = "{" + ", ".join(names[j] for j in sorted(support)) + "}"
    print(f"  {label:<24} {prob:.3f}")

print("\nCLI one-liner for the same analysis of a CSV written as in step 1:")
print(f"  sparseproj fit --data demo.csv --response y "
      f"--lambda {lam} --target 0.95 --draws 4000")
