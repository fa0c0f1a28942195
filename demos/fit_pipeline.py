"""
End-to-end sparse projection fit
================================

Simulate a small regression, write it to CSV, load it back through the
block-wise CSV reader, and run the fit pipeline: conjugate posterior, l1
projection of every draw, per-coordinate calibration and credible intervals,
then posterior model probabilities.  The `sparseproj fit` subcommand runs
the same pipeline through the same function.
"""

import tempfile
from pathlib import Path

import numpy as np

from sparseproj.dataio import dataset_from_csv
from sparseproj.regions import model_probabilities
from sparseproj.simulate import fit_dataset
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

    # 2. load the CSV: numpy's C parser reads it in blocks of rows, and each
    #    block is folded into the dataset's sufficient statistics (X'X, X'Y,
    #    Y'Y and the same per cross-validation fold) and dropped
    ds, names = dataset_from_csv(csv_path, response="y")
print(f"loaded {ds.n} rows, predictors {names}")

# 3. the whole fit in one call, the same one `sparseproj fit` makes:
#    - factorize the conjugate posterior and draw 4000 dense coefficient
#      vectors from it;
#    - solve the LASSO center and the sparse representative of every draw
#      in one certified coordinate-descent batch, the center as its row 0;
#    - calibrate each coordinate's working level so its interval attains 0.95
#      coverage: the limit penalty is lambda_n * sqrt(n), and coordinate j's
#      limiting Gram diagonal c_j is estimated by C_n[j, j];
#    - read off the componentwise credible intervals around the center
lam = 0.05  # penalty on the (1/n)||Y - Xu||^2 + lam*||u||_1 scale
fit = fit_dataset(ds, lam, draws=4000, post_seed=11, prior=PriorConfig(a_n=1.0),
                  target=0.95)
print(f"projected 4000 draws, max KKT residual {fit.max_kkt:.2e}")
print(f"lambda0 = {fit.lambda0:.3f}, sigma_hat = {fit.sigma_hat:.3f}")

# 4. componentwise credible intervals around the LASSO center
print("\n component   truth   estimate   level    interval")
for j in range(p):
    print(f"  {names[j]:<8} {theta_true[j]:>6.2f} {fit.center[j]:>9.3f}   {fit.levels[j]:.4f}  "
          f"[{fit.lo[j]:>7.3f}, {fit.hi[j]:>7.3f}]")

# 5. which supports does the projected posterior visit?  model_probabilities
#    counts the (4000, p) projected draws: each support is the ascending tuple
#    of its nonzero coordinates, and the most frequent come first
probs = model_probabilities(fit.draws)
print("\n top supports by posterior probability")
for support, prob in list(probs.items())[:5]:
    label = "{" + ", ".join(names[j] for j in support) + "}"
    print(f"  {label:<24} {prob:.3f}")

print("\nCLI one-liner for the same analysis of a CSV written as in step 1:")
print(f"  sparseproj fit --data demo.csv --response y "
      f"--lambda {lam} --target 0.95 --draws 4000")
