"""What a run config holds: its typed sections, its digest and its dataset.

A run is fully determined by its config file, including one funnel seed;
phase seeds are derived from it by fixed offsets (data generation
seed+1, splitting seed+2, evolution seed+3).  Reports carry a stable
content digest of the resolved config, so they are self-identifying.
The caller, not the config, names the directory a run writes into.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from typing import Literal

from .data import (
    CLASSIFICATION,
    NOISE_CONSTANT,
    REGRESSION,
    Dataset,
    SplitSpec,
    gen_function,
    gen_mackey_glass,
    load_csv,
    load_series_csv,
    window_series,
)
from .expansion import ExpansionSpec
from .ga import GaConfig
from .model import IDENTITY, ModelShape
from .schema import parse

DATA_SEED_OFFSET = 1
SPLIT_SEED_OFFSET = 2
GA_SEED_OFFSET = 3


class DatasetSource:
    """The dataset section: one source class per kind, picked by its keys.

    Every source has ``load(mode, seed)``; ``mode`` is the model's mode
    and ``seed`` drives the generators.
    """

    @staticmethod
    def section_class(doc: dict, where: str) -> type:
        if "generator" in doc:
            if doc["generator"] == "mackey_glass":
                return MackeyGlassSource
            return FunctionSource
        if "series" in doc:
            return SeriesCsvSource
        if "path" in doc:
            return CsvSource
        raise ValueError(f"{where} section needs either 'path' or 'generator'")


@dataclass(frozen=True)
class CsvSource(DatasetSource):
    """Feature columns and one target column of a CSV file."""

    path: str
    target_column: int = -1
    header: bool = False

    def load(self, mode: str, seed: int) -> Dataset:
        return load_csv(self.path, target_column=self.target_column,
                        mode=mode, header=self.header)


@dataclass(frozen=True)
class SeriesCsvSource(DatasetSource):
    """One numeric column of a CSV file, windowed into a regression set."""

    path: str
    series: Literal[True]
    window: int
    column: int = 0
    header: bool = False
    horizon: int = 1

    def load(self, mode: str, seed: int) -> Dataset:
        series = load_series_csv(self.path, column=self.column, header=self.header)
        return window_series(series, self.window, self.horizon,
                             provenance=f"csv:{self.path}")


@dataclass(frozen=True)
class Noise:
    sigma: float
    kind: Literal["constant", "linear"] = NOISE_CONSTANT


@dataclass(frozen=True)
class FunctionSource(DatasetSource):
    """Samples of the f1 or f2 benchmark function, optionally noisy."""

    generator: Literal["f1", "f2"]
    n_samples: int
    noise: Noise | None = None

    def load(self, mode: str, seed: int) -> Dataset:
        noise = {} if self.noise is None else {"sigma": self.noise.sigma,
                                               "noise": self.noise.kind}
        return gen_function(self.generator, self.n_samples, seed, **noise)


@dataclass(frozen=True)
class MackeyGlassSource(DatasetSource):
    """The Mackey-Glass series, windowed into a regression set."""

    generator: Literal["mackey_glass"]
    length: int
    window: int
    horizon: int = 1
    tau: int = 17
    beta: float = 0.2
    gamma: float = 0.1
    exponent: float = 10.0
    dt: float = 1.0
    initial: float = 1.2

    def load(self, mode: str, seed: int) -> Dataset:
        series = gen_mackey_glass(
            self.length, tau=self.tau, beta=self.beta, gamma=self.gamma,
            exponent=self.exponent, dt=self.dt, initial=self.initial,
        )
        return window_series(
            series, self.window, self.horizon,
            provenance=f"generator:mackey_glass(length={self.length})",
        )


@dataclass(frozen=True)
class Expansion:
    order: int
    include_bias: bool = True


@dataclass(frozen=True)
class Model:
    """The model section: regression takes ``units``, classification ``units_per_class``."""

    mode: Literal["regression", "classification"] = REGRESSION
    units: int | None = None
    units_per_class: int | None = None
    activation: Literal["identity", "logistic"] = IDENTITY

    def __post_init__(self) -> None:
        size, other = ("units", "units_per_class") if self.mode == REGRESSION \
            else ("units_per_class", "units")
        if getattr(self, other) is not None:
            raise ValueError(f"{other} does not apply to {self.mode} models")
        if getattr(self, size) is None:
            raise ValueError(f"{self.mode} model section requires '{size}'")
        if self.mode == CLASSIFICATION and self.activation != IDENTITY:
            raise ValueError("classification models take no output activation")

    def shape(self, expansion: Expansion, dataset: Dataset) -> ModelShape:
        """The model shape over ``dataset``'s features and classes."""
        spec = ExpansionSpec(input_dim=dataset.n_features, order=expansion.order,
                             include_bias=expansion.include_bias)
        if self.mode == REGRESSION:
            return ModelShape(spec=spec, n_units=self.units,
                              output_activation=self.activation)
        return ModelShape.for_classification(spec, dataset.n_classes,
                                             self.units_per_class)


@dataclass(frozen=True)
class Density:
    """The ``density`` command's orders, GA seeds and tolerance."""

    k_values: tuple[int, ...]
    seeds: tuple[int, ...]
    slack: float = 0.02

    def __post_init__(self) -> None:
        k = self.k_values
        if not k or any(b <= a for a, b in zip(k, k[1:])):
            raise ValueError(f"k_values must be strictly increasing, got {list(k)}")
        if k[0] < 0:
            raise ValueError(f"k_values must be non-negative, got {list(k)}")
        if len(self.seeds) < 3:
            raise ValueError(f"need at least 3 seeds, got {len(self.seeds)}")
        if min(self.seeds) < 0:
            raise ValueError(f"seeds must be non-negative, got {list(self.seeds)}")
        if len(set(self.seeds)) < len(self.seeds):
            raise ValueError(f"seeds must not repeat, got {list(self.seeds)}")
        if self.slack < 0:
            raise ValueError(f"slack must be non-negative, got {self.slack}")


@dataclass(frozen=True)
class RunConfig:
    """A run config, parsed strictly: each section is a typed dataclass.

    The fields are the schema (see :mod:`wtanet.schema`): unknown keys,
    missing keys and wrong JSON types are errors.  ``seed`` is the run's
    one seed.
    """

    dataset: DatasetSource
    expansion: Expansion
    model: Model
    ga: GaConfig = GaConfig()
    split: SplitSpec = SplitSpec()
    seed: int = 0
    task: str = ""
    format_version: Literal[1] = 1
    density: Density | None = None

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if self.density is not None and self.model.mode != REGRESSION:
            raise ValueError("the density section needs a regression model")
        if self.model.mode == CLASSIFICATION and not isinstance(self.dataset, CsvSource):
            raise ValueError("classification needs a CSV dataset with a class column")

    @classmethod
    def from_dict(cls, doc) -> "RunConfig":
        return parse(cls, doc)


def config_digest(config: RunConfig) -> str:
    """Stable content hash of the resolved configuration.

    Defaults are filled in, so leaving a key out and giving its default
    hash alike; the ``density`` section is left out.
    """
    resolved = asdict(config)
    del resolved["density"]
    canonical = json.dumps(resolved, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def load_dataset(config: RunConfig) -> Dataset:
    """The run's whole dataset; a generator draws from seed + DATA_SEED_OFFSET."""
    return config.dataset.load(config.model.mode, config.seed + DATA_SEED_OFFSET)
