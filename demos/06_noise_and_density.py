"""Noise studies and the basis-growth (density) check.

Constant noise: the trained model's residual spread should recover the
injected sigma.  Heteroscedastic noise sigma(x) = sigma0*x: residual
spread should grow along x.  Density: enlarging the harmonic basis never
hurts the best attainable fit.
"""

from wtanet import (Density, Expansion, GaConfig, Model, RunConfig, density_check,
                    gen_function, run_experiment)

# --- constant noise -----------------------------------------------------
result = run_experiment(RunConfig.from_dict({
    "dataset": {"generator": "f1", "n_samples": 10_000,
                "noise": {"kind": "constant", "sigma": 0.1}},
    "expansion": {"order": 3},
    "model": {"units": 4, "mode": "regression"},
    "split": {"train_fraction": 0.7},
    "seed": 8,
}))
residuals = result.test_data.targets - result.outputs
print(f"constant sigma=0.1: trained-model residual std {residuals.std():.4f}")

# --- heteroscedastic noise ----------------------------------------------
result = run_experiment(RunConfig.from_dict({
    "dataset": {"generator": "f1", "n_samples": 10_000,
                "noise": {"kind": "linear", "sigma": 0.3}},
    "expansion": {"order": 3},
    "model": {"units": 4, "mode": "regression"},
    "split": {"train_fraction": 0.7},
    "seed": 8,
}))
x = result.test_data.inputs[:, 0]
residuals = result.test_data.targets - result.outputs
print("heteroscedastic sigma(x) = 0.3*x, residual std per x-bin:")
for lo, hi in ((0.0, 1 / 3), (1 / 3, 2 / 3), (2 / 3, 1.01)):
    band = residuals[(x >= lo) & (x < hi)]
    print(f"  x in [{lo:.2f}, {hi:.2f}): {band.std():.4f}")

# --- density check --------------------------------------------------------
dataset = gen_function("f1", 100, seed=5)
report = density_check(
    dataset, Density(k_values=(1, 2, 4), seeds=(0, 1, 2, 3, 4)), Model(units=4),
    Expansion(order=1), GaConfig(generations=300, fitness_stagnation_patience=100),
)
print("\ndensity check on sin(2*pi*x):")
print(f"  orders:      {report.k_values}")
print(f"  GA rmse:     {[f'{v:.4f}' for v in report.ga_rmse]}")
print(f"  oracle rmse: {[f'{v:.6f}' for v in report.oracle_rmse]}")
print(f"  non-increasing within slack {report.slack}: {report.non_increasing}")
