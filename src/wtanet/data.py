"""Dataset ingestion, normalization, splitting, windowing and generators.

Every :class:`Dataset` stores features min-max normalized to the unit
box (the domain the trigonometric expansion is calibrated to) with the
per-feature (min, max) pairs recorded so the raw values can be
recovered.  Targets are kept on their raw scale.  All generators are
pure functions of their parameters and seed (numpy PCG64 streams).
"""

from __future__ import annotations

import contextlib
import csv
import io
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .schema import write_text

REGRESSION = "regression"
CLASSIFICATION = "classification"
_MODES = (REGRESSION, CLASSIFICATION)

GENERATOR_F1 = "f1"  # y = sin(2*pi*x),        x uniform on [0,1]
GENERATOR_F2 = "f2"  # y = x1*x2 + sin(pi*x1), x uniform on [0,1]^2

NOISE_CONSTANT = "constant"  # sigma(x) = sigma0
NOISE_LINEAR = "linear"      # sigma(x) = sigma0 * x_1  (zero at the origin)


def _check_mode(mode: str) -> str:
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
    return mode


@dataclass
class Dataset:
    """Supervised samples with recorded normalization and provenance.

    ``inputs`` is an (N, n) float64 matrix of normalized features,
    ``targets`` an (N,) vector of raw regression values or dense class
    labels 0..C-1, ``normalization`` an (n, 2) matrix of per-feature
    (min, max) pairs, and ``label_names`` the original class labels in
    first-appearance order, indexed by the labels.  A dataset is a
    classification set exactly when it has ``label_names``.
    """

    inputs: np.ndarray
    targets: np.ndarray
    normalization: np.ndarray
    provenance: str
    label_names: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        # own copies so freezing them cannot affect caller-held arrays
        self.inputs = np.array(self.inputs, dtype=np.float64, copy=True)
        self.targets = np.array(self.targets, dtype=np.float64, copy=True)
        bad = ~np.isfinite(self.targets)
        if self.label_names is not None:
            bad |= self.targets != np.round(self.targets)
        if bad.any():
            rule = "regression targets must be finite" if self.label_names is None \
                else "class labels must be integers"
            raise ValueError(f"{rule}, got {self.targets[bad][0]}")
        if self.label_names is not None:
            self.targets = self.targets.astype(np.int64)
        self.normalization = np.array(self.normalization, dtype=np.float64, copy=True)
        if self.inputs.ndim != 2:
            raise ValueError(f"inputs must be 2-D, got shape {self.inputs.shape}")
        if len(self.inputs) != len(self.targets):
            raise ValueError(
                f"inputs/targets length mismatch: "
                f"{len(self.inputs)} vs {len(self.targets)}"
            )
        if len(self.inputs) == 0:
            raise ValueError("dataset is empty")
        if self.normalization.shape != (self.inputs.shape[1], 2):
            raise ValueError(
                f"normalization must have shape ({self.inputs.shape[1]}, 2), "
                f"got {self.normalization.shape}"
            )
        if self.label_names is not None and not \
                0 <= self.targets.min() <= self.targets.max() < len(self.label_names):
            raise ValueError("class labels must index label_names "
                             f"(0..{len(self.label_names) - 1})")
        for arr in (self.inputs, self.targets, self.normalization):
            arr.setflags(write=False)

    @property
    def n_samples(self) -> int:
        return self.inputs.shape[0]

    @property
    def n_features(self) -> int:
        return self.inputs.shape[1]

    @property
    def mode(self) -> str:
        return REGRESSION if self.label_names is None else CLASSIFICATION

    @property
    def n_classes(self) -> int:
        if self.label_names is None:
            raise ValueError("n_classes is defined for classification datasets only")
        return len(self.label_names)

    def denormalized_inputs(self) -> np.ndarray:
        """Recover raw feature values from the recorded (min, max) pairs."""
        lo = self.normalization[:, 0]
        hi = self.normalization[:, 1]
        return lo + self.inputs * (hi - lo)

    def replace_samples(self, idx: np.ndarray, *, provenance_note: str) -> "Dataset":
        """New dataset restricted to ``idx``, same normalization and labels."""
        return Dataset(
            inputs=self.inputs[idx],
            targets=self.targets[idx],
            normalization=self.normalization.copy(),
            provenance=f"{self.provenance}|{provenance_note}",
            label_names=self.label_names,
        )


@dataclass(frozen=True)
class SplitSpec:
    """Train/test partition parameters.

    ``stratified=None`` resolves to True for classification datasets and
    False for regression.
    """

    train_fraction: float = 0.7
    stratified: bool | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError(
                f"train_fraction must be in (0, 1), got {self.train_fraction}"
            )


def _feature_ranges(raw: np.ndarray) -> np.ndarray:
    """Per-feature (min, max) pairs of a raw (N, n) feature matrix."""
    return np.column_stack([raw.min(axis=0), raw.max(axis=0)])


def normalize(raw: np.ndarray, normalization) -> np.ndarray:
    """Min-max map raw (N, n) features by (n, 2) (min, max) pairs.

    This is the one normalization of the package: training ingest and
    serving both apply it.  Constant features (min == max) map to 0.0.
    """
    normalization = np.asarray(normalization, dtype=np.float64)
    if normalization.shape != (raw.shape[1], 2):
        raise ValueError(
            f"data has {raw.shape[1]} features, the normalization covers "
            f"{normalization.shape[0]}"
        )
    lo = normalization[:, 0]
    span = normalization[:, 1] - lo
    constant = span == 0
    out = (raw - lo) / np.where(constant, 1.0, span)
    out[:, constant] = 0.0
    return out


def _dataset(raw: np.ndarray, targets, provenance: str, *,
             normalization=None, label_names=None) -> Dataset:
    """The Dataset of raw (N, n) features, normalized by their own ranges by default."""
    norm = _feature_ranges(raw) if normalization is None \
        else np.asarray(normalization, dtype=np.float64)
    constant = [int(i) for i in np.nonzero(norm[:, 0] == norm[:, 1])[0]]
    if constant:
        provenance += f"|warning:constant-features{constant}-normalized-to-0.0"
    return Dataset(inputs=normalize(raw, norm), targets=targets, normalization=norm,
                   provenance=provenance, label_names=label_names)


def read_csv_matrix(text: str, path, *, header: bool = False) -> list[tuple[str, ...]]:
    """csv.reader's cells of ``text`` (from ``path``), one tuple per column, header dropped."""
    try:
        rows = list(filter(None, csv.reader(io.StringIO(text, newline=""))))
    except csv.Error as exc:
        raise ValueError(f"malformed CSV {path}: {exc}") from None
    if header and rows:
        del rows[0]
    if not rows:
        raise ValueError(f"no data rows in {path}")
    if len(set(map(len, rows))) > 1:
        width = len(rows[0])
        r, row = next((r, row) for r, row in enumerate(rows) if len(row) != width)
        raise ValueError(f"ragged CSV: row {r + 1} has {len(row)} cells, expected {width}")
    return [tuple(map(itemgetter(c), rows)) for c in range(len(rows[0]))]


def _bad_cell(cells: list[tuple[str, ...]]) -> tuple[int, int]:
    """(row, index into ``cells``) of the first cell, row by row, that is not a number."""
    for r, row in enumerate(zip(*cells)):
        for j, cell in enumerate(row):
            try:
                float(cell)
            except ValueError:
                return r, j
            if "_" in cell or not cell.isascii():
                return r, j
    raise AssertionError("every cell is a number")


def _numbers(columns: list[tuple[str, ...]], picks: list[int]) -> np.ndarray:
    """The ``picks`` columns as an (N, len(picks)) matrix of finite floats."""
    cells = [columns[c] for c in picks]
    try:
        # float() also takes digit-group underscores ('1_0' is 10.0) and non-ASCII
        # digits and spaces ('１２' is 12.0); numeric cells do not
        if any("_" in joined or not joined.isascii() for joined in map("".join, cells)):
            raise ValueError
        # a flat list: numpy converts a nested one about twice as slowly
        raw = np.array([float(cell) for column in cells for cell in column])
    except ValueError:
        r, j = _bad_cell(cells)
        raise ValueError(f"unparseable cell at row {r + 1}, "
                         f"column {picks[j] + 1}: {cells[j][r]!r}") from None
    # row-major like the file, so the arrays made from it keep their layout and bits
    raw = np.ascontiguousarray(raw.reshape(len(picks), -1).T)
    if not np.isfinite(raw).all():
        r, j = np.argwhere(~np.isfinite(raw))[0]
        raise ValueError(f"non-finite cell at row {r + 1}, column {picks[j] + 1}: "
                         f"{cells[j][r]!r}")
    return raw


class _Rows:
    """csv.reader's data rows and float(): any text can take this path, and every error line."""

    def __init__(self, text: str, path, header: bool):
        self.columns = read_csv_matrix(text, path, header=header)
        self.width = len(self.columns)

    def numbers(self, *groups: list[int]) -> list[np.ndarray]:  # one matrix per group
        return [_numbers(self.columns, picks) for picks in groups]


class _Lines(_Rows):
    """Plain lines: numbers by one pass of numpy's C reader, cells by one split."""

    def __init__(self, lines: list[str]):
        self.lines, self.width = lines, lines[0].count(",") + 1

    def numbers(self, *groups: list[int]) -> list[np.ndarray]:
        used = sorted(set().union(*groups))
        usecols = used if len(used) < self.width else None
        # with usecols numpy takes rows of other widths than the first
        if usecols and len({line.count(",") for line in self.lines}) > 1:
            raise ValueError("ragged lines")
        raw = np.loadtxt(self.lines, delimiter=",", comments=None, dtype=np.float64, ndmin=2,
                         usecols=usecols)
        if not np.isfinite(raw).all():
            raise ValueError("a non-finite cell")
        # take() keeps the rows C-contiguous, as _numbers makes them, so reductions
        # over them (the feature ranges) break ties between 0.0 and -0.0 alike
        return [raw.take([used.index(c) for c in picks], axis=1) for picks in groups]

    @property
    def columns(self) -> list[tuple[str, ...]]:
        # numbers() has checked that every line has the first line's width
        cells = ",".join(self.lines).split(",")
        return [tuple(cells[c::self.width]) for c in range(self.width)]


def _load(path, header: bool, load):
    """``load(table)`` of the data rows of the CSV file ``path``, read once.

    csv.reader's rows of plain text (ASCII with no '"', NUL or \\x1c-\\x1f, and no line
    over the field size limit) are its non-empty lines cut at commas: a _Lines table, unless
    ``load`` raises ValueError on it, where the result could differ from the _Rows table's
    that other text takes.  numpy strips \\x1c-\\x1f around a number, which float()
    refuses, and csv.reader refuses NUL before Python 3.11.
    """
    # utf-8-sig drops the byte-order mark that spreadsheet exports put first
    with open(path, newline="", encoding="utf-8-sig") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ValueError(f"malformed CSV {path}: {exc}") from None
    if text.isascii() and not any(c in text for c in '"\0\x1c\x1d\x1e\x1f'):
        lines = list(filter(None, text.replace("\r\n", "\n").replace("\r", "\n").split("\n")))
        limit = csv.field_size_limit()
        if len(lines) > header and (len(text) <= limit or max(map(len, lines)) <= limit):
            with contextlib.suppress(ValueError):  # else csv.reader and float() decide
                return load(_Lines(lines[header:]))
    return load(_Rows(text, path, header))


def _column_index(width: int, column: int, name: str) -> int:
    index = column if column >= 0 else width + column
    if not 0 <= index < width:
        raise ValueError(f"{name} {column} out of range for {width} columns")
    return index


def _split_columns(width: int, target_column: int | None) -> tuple[int | None, list[int]]:
    """The index of ``target_column`` (None for none), and of every other column."""
    target = None if target_column is None else \
        _column_index(width, target_column, "target_column")
    features = [c for c in range(width) if c != target]
    if not features:
        raise ValueError("no feature columns left after removing the target")
    return target, features


def load_csv(path, *, target_column: int = -1, mode: str,
             header: bool = False, normalization=None) -> Dataset:
    """Load a UCI-style CSV file into a normalized Dataset.

    Numeric features are parsed as 64-bit floats and min-max normalized:
    by the file's own per-feature range when ``normalization`` is left out
    (training ingest, whose range the model records), else by the given
    (min, max) pairs (``eval``, with the model's).  Classification
    targets are mapped to dense labels 0..C-1 in first-appearance order;
    the original labels are kept in ``label_names``.  Row/column numbers
    in diagnostics are 1-based over the data rows.

    Args:
        path: CSV file (RFC-4180-style, comma separated, UTF-8).
        target_column: index of the target column (negative wraps).
        mode: "regression" or "classification".
        header: whether a single header row precedes the data.
        normalization: optional (n, 2) per-feature (min, max) pairs.
    """
    _check_mode(mode)

    def load(table):
        target, features = _split_columns(table.width, target_column)
        if mode == REGRESSION:
            raw, targets = table.numbers(features, [target])
            return _dataset(raw, targets[:, 0], f"csv:{path}", normalization=normalization)
        (raw,) = table.numbers(features)
        label_ids: dict[str, int] = {}  # insertion order is first-appearance order
        targets = [label_ids.setdefault(cell.strip(), len(label_ids))
                   for cell in table.columns[target]]
        return _dataset(raw, targets, f"csv:{path}", normalization=normalization,
                        label_names=tuple(label_ids))
    return _load(path, header, load)


def load_features(path, *, normalization, drop_column: int | None = None,
                  header: bool = False) -> tuple[list[tuple[str, ...]], np.ndarray]:
    """Read the feature columns of a CSV file for prediction.

    Every column except ``drop_column`` (none when None) is a feature.
    Returns the feature columns' cells as read, one tuple per column,
    and the features normalized by ``normalization``, the (n, 2)
    (min, max) pairs of the model that ``predict`` serves.
    """
    def load(table):
        _, features = _split_columns(table.width, drop_column)
        (raw,) = table.numbers(features)
        columns = table.columns
        return [columns[c] for c in features], normalize(raw, normalization)
    return _load(path, header, load)


def load_matrix(path) -> np.ndarray:
    """Every cell of a headerless CSV file, as an (N, n) matrix of finite floats."""
    return _load(path, False, lambda table: table.numbers(list(range(table.width)))[0])


def _round_half_up(x: float) -> int:
    return int(np.floor(x + 0.5))


def _train_count(total: int, fraction: float) -> int:
    k = _round_half_up(fraction * total)
    return min(max(k, 1), total - 1)


def split_dataset(dataset: Dataset, spec: SplitSpec,
                  seed: int) -> tuple[Dataset, Dataset]:
    """Deterministic train/test split, a pure function of its arguments.

    Stratified splits (classification) preserve class proportions to
    within one sample per class; every class needs at least 2 samples.
    """
    stratified = spec.stratified
    if stratified is None:
        stratified = dataset.mode == CLASSIFICATION
    if stratified and dataset.mode != CLASSIFICATION:
        raise ValueError("stratified split requires a classification dataset")
    if dataset.n_samples < 2:
        raise ValueError("need at least 2 samples to split")

    rng = np.random.default_rng(seed)
    if stratified:
        train_idx: list[int] = []
        test_idx: list[int] = []
        for label in range(dataset.n_classes):
            members = np.nonzero(dataset.targets == label)[0]
            if members.size < 2:
                raise ValueError(
                    f"class {dataset.label_names[label]!r} has {members.size} sample(s); "
                    "stratified split needs at least 2 per class"
                )
            perm = members[rng.permutation(members.size)]
            k = _train_count(members.size, spec.train_fraction)
            train_idx.extend(perm[:k])
            test_idx.extend(perm[k:])
        train_sel = np.sort(np.asarray(train_idx))
        test_sel = np.sort(np.asarray(test_idx))
    else:
        perm = rng.permutation(dataset.n_samples)
        k = _train_count(dataset.n_samples, spec.train_fraction)
        train_sel = np.sort(perm[:k])
        test_sel = np.sort(perm[k:])

    note = f"split(frac={spec.train_fraction},stratified={stratified},seed={seed})"
    return (
        dataset.replace_samples(train_sel, provenance_note=f"{note}:train"),
        dataset.replace_samples(test_sel, provenance_note=f"{note}:test"),
    )


def window_series(series, window: int, horizon: int = 1,
                  *, provenance: str = "series") -> Dataset:
    """Embed a scalar series as a supervised regression set.

    Sample i has raw input ``series[i : i+window]`` and target
    ``series[i + window + horizon - 1]``; the sample count is
    ``len(series) - window - horizon + 1``.  Features are min-max
    normalized like every Dataset; targets stay raw.
    """
    series = np.asarray(series, dtype=np.float64)
    if series.ndim != 1:
        raise ValueError(f"series must be 1-D, got shape {series.shape}")
    if window < 1 or horizon < 1:
        raise ValueError(f"window and horizon must be >= 1, got {window}, {horizon}")
    minimum = window + horizon
    if series.size < minimum:
        raise ValueError(
            f"series too short: length {series.size}, need at least {minimum}"
        )
    count = series.size - window - horizon + 1
    raw = np.lib.stride_tricks.sliding_window_view(series, window)[:count]
    return _dataset(raw, series[window + horizon - 1:],
                    f"window(w={window},h={horizon})|{provenance}")


def gen_function(which: str, n_samples: int, seed: int, *,
                 sigma: float | None = None, noise: str = NOISE_CONSTANT) -> Dataset:
    """Samples of one of the two benchmark target functions, noisy given a ``sigma``.

    Inputs are drawn uniformly from the unit box, so they are already
    normalized and the recorded (min, max) pairs are the identity (0, 1).
    With a ``sigma`` a noise vector is drawn after the inputs and added:
    constant noise eps ~ Normal(0, sigma^2), or linear (heteroscedastic)
    noise whose deviation scales with the first input component,
    sigma(x) = sigma * x_1, so it vanishes at the origin.  ``sigma=0``
    keeps the noiseless draws bit for bit.
    """
    if sigma is not None and not 0 <= sigma < np.inf:
        raise ValueError(f"sigma must be finite and >= 0, got {sigma}")
    if noise not in (NOISE_CONSTANT, NOISE_LINEAR):
        raise ValueError(
            f"noise must be {NOISE_CONSTANT!r} or {NOISE_LINEAR!r}, got {noise!r}"
        )
    if sigma is None and noise != NOISE_CONSTANT:
        raise ValueError(f"{noise!r} noise needs a sigma")
    if n_samples < 2:
        raise ValueError(f"n_samples must be >= 2, got {n_samples}")
    rng = np.random.default_rng(seed)
    if which == GENERATOR_F1:
        x = rng.uniform(0.0, 1.0, size=(n_samples, 1))
        y = np.sin(2.0 * np.pi * x[:, 0])
    elif which == GENERATOR_F2:
        x = rng.uniform(0.0, 1.0, size=(n_samples, 2))
        y = x[:, 0] * x[:, 1] + np.sin(np.pi * x[:, 0])
    else:
        raise ValueError(
            f"unknown generator {which!r}; expected {GENERATOR_F1!r} or {GENERATOR_F2!r}"
        )
    provenance = f"generator:{which}(n_samples={n_samples},seed={seed})"
    if sigma is not None:
        eps = rng.standard_normal(n_samples)
        with np.errstate(over="ignore"):  # Dataset refuses the inf of an overflow
            y = y + (sigma if noise == NOISE_CONSTANT else sigma * x[:, 0]) * eps
        provenance = (f"generator:{which}+noise:{noise}"
                      f"(sigma={sigma},n_samples={n_samples},seed={seed})")
    return _dataset(x, y, provenance,
                    normalization=[[0.0, 1.0]] * x.shape[1])


def gen_mackey_glass(length: int, *, tau: int = 17, beta: float = 0.2,
                     gamma: float = 0.1, exponent: float = 10.0,
                     dt: float = 1.0, initial: float = 1.2) -> np.ndarray:
    """Euler-discretized Mackey-Glass delay series.

    The first ``tau`` values are held at ``initial``; afterwards
    ``x[t] = x[t-1] + dt*(beta*x[t-tau]/(1 + x[t-tau]**exponent)
    - gamma*x[t-1])``.  Deterministic: no randomness is involved.
    """
    if tau < 1:
        raise ValueError(f"tau must be >= 1, got {tau}")
    if length < tau + 1:
        raise ValueError(f"length must be >= tau+1 ({tau + 1}), got {length}")
    x = np.empty(length, dtype=np.float64)
    x[:tau] = initial
    with np.errstate(over="ignore", invalid="ignore"):  # what overflows fails downstream
        for t in range(tau, length):
            delayed = x[t - tau]
            x[t] = x[t - 1] + dt * (
                beta * delayed / (1.0 + delayed ** exponent) - gamma * x[t - 1]
            )
    return x


def _needs_quotes(text: str) -> bool:
    """Whether ``text`` holds a character that makes csv.writer quote its cell."""
    # four substring scans in C beat one regex character-class scan tenfold
    return "," in text or '"' in text or "\r" in text or "\n" in text


def _quote(cell: str, alone: bool) -> str:
    """``cell`` as csv.writer writes it; ``alone`` when it is its row's only cell."""
    if _needs_quotes(cell) or (alone and not cell):
        return '"' + cell.replace('"', '""') + '"'
    return cell


def write_csv(path, columns, header=None) -> None:
    """Write equally long ``columns`` of strings as CSV rows, after ``header``.

    The bytes are those of ``csv.writer``: ``\r\n`` line ends, and a
    cell is quoted only when it holds a comma, a quote or a line break,
    or is the empty only cell of its row.  Each column is scanned for
    such cells once.
    """
    if len({len(column) for column in columns}) > 1:
        raise ValueError("CSV columns must be equally long")
    alone = len(columns) == 1
    columns = [
        [_quote(cell, alone) for cell in column]
        if _needs_quotes("".join(column)) or (alone and "" in column) else column
        for column in columns
    ]
    lines = list(map(",".join, zip(*columns)))
    if header is not None:
        lines.insert(0, ",".join(_quote(cell, len(header) == 1) for cell in header))
    lines.append("")  # the last line's end
    write_text(path, "\r\n".join(lines))


def repr_cells(values: np.ndarray) -> list[str]:
    """Numbers as CSV cells; a float's repr is its shortest round-tripping text."""
    return list(map(repr, values.tolist()))


def dataset_to_csv(dataset: Dataset, path, *, header: bool = False) -> None:
    """Write a dataset as CSV: raw-scale features, target column last."""
    if dataset.label_names is not None:
        targets = [dataset.label_names[t] for t in dataset.targets.tolist()]
    else:
        targets = repr_cells(dataset.targets)
    columns = [repr_cells(column) for column in dataset.denormalized_inputs().T]
    names = [f"x{i}" for i in range(dataset.n_features)] + ["target"]
    write_csv(path, [*columns, targets], names if header else None)


def series_to_csv(series, path, *, header: bool = False) -> None:
    """Write a scalar series as a one-column CSV."""
    values = repr_cells(np.asarray(series, dtype=np.float64))
    write_csv(path, [values], ["value"] if header else None)


def load_series_csv(path, *, column: int = 0, header: bool = False) -> np.ndarray:
    """Read one numeric column of a CSV file as a scalar series."""
    def load(table):
        return table.numbers([_column_index(table.width, column, "column")])[0][:, 0]
    return _load(path, header, load)
