"""Classify an Iris-format CSV with winner-take-all competition.

Each class owns units_per_class competing units; the predicted class is
simply the class of the winning unit, so classification is a pure
consequence of the competition.
"""

import csv
import tempfile
from pathlib import Path

import numpy as np

from wtanet import RunConfig, load_csv, run_experiment

# Synthesize an Iris-like file: 150 rows, 4 features, 3 string labels.
rng = np.random.default_rng(7)
means = np.array([
    [5.0, 3.4, 1.5, 0.2],
    [5.9, 2.8, 4.3, 1.3],
    [6.6, 3.0, 5.6, 2.0],
])
stds = np.array([
    [0.35, 0.38, 0.17, 0.10],
    [0.52, 0.31, 0.47, 0.20],
    [0.64, 0.32, 0.55, 0.27],
])
names = ["setosa-like", "versicolor-like", "virginica-like"]

# The run writes its files into a directory removed when the demo ends.
with tempfile.TemporaryDirectory(prefix="wtanet-demo-") as tmp:
    workdir = Path(tmp)
    csv_path = workdir / "iris_like.csv"
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for c in range(3):
            for row in rng.normal(means[c], stds[c], size=(50, 4)):
                writer.writerow([f"{v:.2f}" for v in row] + [names[c]])

    dataset = load_csv(csv_path, target_column=-1, mode="classification")
    print(f"loaded {dataset.n_samples} samples, {dataset.n_features} features, "
          f"{dataset.n_classes} classes: {dataset.label_names}")

    config = RunConfig.from_dict({
        "task": "demo-classification",
        "dataset": {"path": str(csv_path), "target_column": -1},
        "expansion": {"order": 1},
        "model": {"mode": "classification", "units_per_class": 2},
        "split": {"train_fraction": 0.7, "stratified": True},
        "seed": 0,
    })
    result = run_experiment(config, out_dir=workdir)

    print(f"\ntest accuracy: {result.report.metrics['accuracy']:.4f}")
    print("confusion matrix (rows = true class):")
    for name, row in zip(dataset.label_names, result.report.confusion):
        print(f"  {name:16s} {row}")
    print(f"\nartifacts written to {workdir}: "
          f"{sorted(p.name for p in workdir.iterdir())}")
