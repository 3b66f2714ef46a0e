"""Fit y = sin(2*pi*x) with the genetic algorithm and compare to the
closed-form least-squares bound.

With a single unit and identity activation the model is linear in the
expanded basis, so ordinary least squares gives the exact in-sample
optimum; the GA should land within a few percent of it.
"""

import numpy as np

from wtanet import (
    ExpansionSpec,
    GaConfig,
    ModelShape,
    RunConfig,
    gen_function,
    least_squares_oracle,
    predict,
    run_experiment,
    train,
)

# --- 1. GA vs oracle on a noisy target --------------------------------
dataset = gen_function("f1", 100, seed=42, sigma=0.1)
spec = ExpansionSpec(input_dim=1, order=3)
oracle = least_squares_oracle(dataset, spec)
print(f"least-squares oracle RMSE (noise floor): {oracle.rmse:.4f}")

shape = ModelShape(spec=spec, n_units=1)
trace = train(shape, dataset, GaConfig(), seed=0)
ga_rmse = float(np.sqrt(-trace.best_fitness_value))
print(f"GA training RMSE after {trace.generations_run} generations: "
      f"{ga_rmse:.4f}  (ratio {ga_rmse / oracle.rmse:.3f})")

# --- 2. Full experiment with a train/test split -----------------------
config = RunConfig.from_dict({
    "task": "demo-curve-fit",
    "dataset": {"generator": "f1", "n_samples": 100},
    "expansion": {"order": 3},
    "model": {"units": 4, "mode": "regression"},
    "split": {"train_fraction": 0.7},
    "seed": 1,
})
result = run_experiment(config, write=False)
print(f"\nfour competing units on noiseless sin(2*pi*x):")
for name, value in sorted(result.report.metrics.items()):
    print(f"  test {name}: {value:.4f}")

# --- 3. A coarse look at the fitted curve ------------------------------
xs = np.linspace(0.05, 0.95, 7)
_, outputs = predict(result.model, xs[:, np.newaxis])
print("\n  x      target    prediction")
for x, out in zip(xs, outputs):
    print(f"  {x:.2f}  {np.sin(2 * np.pi * x):+.4f}   {out:+.4f}")
