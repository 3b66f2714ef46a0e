"""Walk through the input expansion and one winner-take-all forward pass.

The model never adds hidden neurons: capacity comes from expanding the
raw input into trigonometric harmonics and letting M units compete on
their excitatory activations.
"""

import numpy as np

from wtanet import ExpansionSpec, ModelShape, WtaModel, expand, expansion_dim, predict

# A one-dimensional input with three harmonics per component:
spec = ExpansionSpec(input_dim=1, order=3)
print(f"expansion: n={spec.input_dim}, K={spec.order}, "
      f"m={expansion_dim(spec)} basis components")

s = np.array([0.25])
pattern = expand(spec, s)
print(f"\nraw input {s} expands to:")
labels = ["x"] + [f"{f}(pi*{k}*x)" for k in (1, 2, 3) for f in ("sin", "cos")] \
    + ["bias"]
for name, value in zip(labels, pattern):
    print(f"  {name:12s} {value:+.6f}")

# Two units compete; the winner's excitatory-minus-inhibitory response
# is the output.  Ties always go to the smaller unit index.
rng = np.random.default_rng(0)
model = WtaModel(
    ModelShape(spec, n_units=2),
    rng.uniform(-1, 1, size=(2, expansion_dim(spec))),
    rng.uniform(-0.2, 0.2, size=(2, expansion_dim(spec))),
)
winners, outputs = predict(model, [s])
print(f"\nexcitations: {np.round(model.excitatory @ pattern, 4)}")
print(f"winner: unit {winners[0]}")
print(f"output (excitatory - inhibitory response): {outputs[0]:.6f}")

# The competition is scale-invariant: scaling every excitatory vector by
# the same positive constant never changes the winner.
scaled = WtaModel(model.shape, model.excitatory * 7.5, model.inhibitory)
assert predict(scaled, [s])[0][0] == winners[0]
print("\nscaling all excitatory weights by 7.5 keeps the same winner")
