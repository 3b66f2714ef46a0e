"""One-step-ahead prediction of a chaotic Mackey-Glass series.

A sliding window turns the scalar series into a supervised set; the
normalized windows feed the competitive model like any other input.
"""

import numpy as np

from wtanet import RunConfig, gen_mackey_glass, run_experiment, window_series

series = gen_mackey_glass(1500)
print(f"series: length {len(series)}, "
      f"range [{series.min():.3f}, {series.max():.3f}], "
      f"std {series.std():.3f}")

dataset = window_series(series, window=4, horizon=1)
print(f"windowed: {dataset.n_samples} samples of {dataset.n_features} lags")

config = RunConfig.from_dict({
    "task": "demo-prediction",
    "dataset": {"generator": "mackey_glass", "length": 1500,
                "window": 4, "horizon": 1},
    "expansion": {"order": 2},
    "model": {"units": 4, "mode": "regression"},
    "ga": {"population_size": 100, "generations": 600,
           "fitness_stagnation_patience": 150},
    "split": {"train_fraction": 0.7},
    "seed": 0,
})
result = run_experiment(config)
print("\ntest metrics:")
for name, value in sorted(result.report.metrics.items()):
    print(f"  {name}: {value:.4f}")

outputs = result.outputs
targets = result.test_data.targets
worst = int(np.argmax(np.abs(outputs - targets)))
print(f"\nworst test point: predicted {outputs[worst]:.4f} "
      f"vs actual {targets[worst]:.4f}")
