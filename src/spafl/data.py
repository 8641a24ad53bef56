"""Dataset ingestion and non-iid client partitioning.

Two dataset sources are supported: the big-endian IDX container (the format
FMNIST/MNIST ship in) and a synthetic balanced Gaussian-mixture
classification task for desk-scale runs. Client partitions are drawn with a
per-class Dirichlet allocation; smaller concentration means more
heterogeneous clients.
"""

from __future__ import annotations

import struct
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DataError

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


@dataclass
class Dataset:
    samples: np.ndarray  # float64, (n, ...) with values in [0, 1]
    labels: np.ndarray  # int64, (n,)
    n_classes: int

    def __post_init__(self):
        if self.samples.shape[0] != self.labels.shape[0]:
            raise DataError(
                f"{self.samples.shape[0]} samples but {self.labels.shape[0]} labels"
            )
        if self.labels.size == 0:
            raise DataError("empty dataset")
        if self.labels.min() < 0 or self.labels.max() >= self.n_classes:
            raise DataError(f"labels outside [0, {self.n_classes})")

    @property
    def n(self) -> int:
        return int(self.labels.shape[0])


@dataclass
class ClientIndices:
    train: np.ndarray
    test: np.ndarray


@dataclass
class Partition:
    clients: list[ClientIndices] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.clients)


def _read_u32(buf: bytes, offset: int, path: str) -> int:
    if offset + 4 > len(buf):
        raise DataError(f"{path}: truncated header at byte offset {offset}")
    return struct.unpack_from(">I", buf, offset)[0]


def load_idx(images_path: str, labels_path: str) -> Dataset:
    """Parse an IDX image/label file pair into a dataset.

    Images: magic 0x00000803, u8 payload of n x rows x cols, scaled to [0,1]
    and shaped (n, 1, rows, cols). Labels: magic 0x00000801, u8 payload of n.
    """
    with open(images_path, "rb") as f:
        ibuf = f.read()
    with open(labels_path, "rb") as f:
        lbuf = f.read()

    magic = _read_u32(ibuf, 0, images_path)
    if magic != IDX_IMAGES_MAGIC:
        raise DataError(
            f"{images_path}: expected image magic 0x{IDX_IMAGES_MAGIC:08x}, got 0x{magic:08x} at byte offset 0"
        )
    n = _read_u32(ibuf, 4, images_path)
    rows = _read_u32(ibuf, 8, images_path)
    cols = _read_u32(ibuf, 12, images_path)
    if n == 0:
        raise DataError(f"{images_path}: zero images declared at byte offset 4")
    need = 16 + n * rows * cols
    if len(ibuf) < need:
        raise DataError(f"{images_path}: truncated image payload at byte offset {len(ibuf)} (need {need})")
    pixels = np.frombuffer(ibuf, dtype=np.uint8, count=n * rows * cols, offset=16)

    magic = _read_u32(lbuf, 0, labels_path)
    if magic != IDX_LABELS_MAGIC:
        raise DataError(
            f"{labels_path}: expected label magic 0x{IDX_LABELS_MAGIC:08x}, got 0x{magic:08x} at byte offset 0"
        )
    n_lab = _read_u32(lbuf, 4, labels_path)
    if n_lab == 0:
        raise DataError(f"{labels_path}: zero labels declared at byte offset 4")
    if len(lbuf) < 8 + n_lab:
        raise DataError(f"{labels_path}: truncated label payload at byte offset {len(lbuf)} (need {8 + n_lab})")
    labels = np.frombuffer(lbuf, dtype=np.uint8, count=n_lab, offset=8).astype(np.int64)

    if n != n_lab:
        raise DataError(f"image count {n} does not match label count {n_lab} (byte offset 4 of each header)")

    samples = pixels.astype(np.float64).reshape(n, 1, rows, cols) / 255.0
    return Dataset(samples=samples, labels=labels, n_classes=int(labels.max()) + 1)


def write_idx(images_u8: np.ndarray, labels_u8: np.ndarray, images_path: str, labels_path: str) -> None:
    """Write a (n, rows, cols) uint8 image stack and its labels as IDX files."""
    images_u8 = np.ascontiguousarray(images_u8, dtype=np.uint8)
    labels_u8 = np.ascontiguousarray(labels_u8, dtype=np.uint8)
    n, rows, cols = images_u8.shape
    with open(images_path, "wb") as f:
        f.write(struct.pack(">IIII", IDX_IMAGES_MAGIC, n, rows, cols))
        f.write(images_u8.tobytes())
    with open(labels_path, "wb") as f:
        f.write(struct.pack(">II", IDX_LABELS_MAGIC, n))
        f.write(labels_u8.tobytes())


def synth_dataset(
    n_classes: int,
    dim: int,
    n_per_class: int,
    spread: float,
    seed: int,
) -> Dataset:
    """Balanced Gaussian-mixture classification task.

    Class means are deterministic unit-norm vectors supported on a few random
    coordinates each (image-like: most features near zero, a class-specific
    active pattern); samples are isotropic Gaussians around them, affinely
    rescaled into [0, 1] (geometry preserved) and clipped.
    """
    if n_classes < 2:
        raise ConfigurationError("need n_classes >= 2")
    if dim < 1:
        raise ConfigurationError("need dim >= 1")
    rng = np.random.default_rng(seed)
    support = max(1, dim // 8)
    means = np.zeros((n_classes, dim))
    for c in range(n_classes):
        coords = rng.choice(dim, size=support, replace=False)
        means[c, coords] = 1.0 / np.sqrt(support)
    labels = np.repeat(np.arange(n_classes), n_per_class)
    raw = rng.standard_normal((labels.size, dim))  # the noise, scaled and shifted in place
    raw *= spread
    raw += means[labels]
    lo, hi = raw.min(), raw.max()
    if hi - lo < 1e-12:
        samples = np.full_like(raw, 0.5)
    else:
        raw -= lo
        raw /= hi - lo
        samples = np.clip(raw, 0.0, 1.0, out=raw)
    return Dataset(samples=samples, labels=labels.astype(np.int64), n_classes=n_classes)


def dirichlet_partition(
    labels: np.ndarray,
    n_clients: int,
    beta: float,
    seed: int,
    min_per_client: int = 2,
    max_retries: int = 100,
) -> Partition:
    """Assign each class's (shuffled) indices to clients by Dirichlet shares.

    For every class, client proportions are drawn from Dirichlet(beta * 1_N)
    and the class indices are split by the floored cumulative shares. Draws
    are repeated (bounded) until every client holds at least
    ``min_per_client`` samples; floored cuts can starve a client in every
    draw, so one more draw after ``max_retries`` failures splits by
    largest-remainder counts. The result is disjoint and exhaustive.
    """
    if beta <= 0:
        raise ConfigurationError("beta must be > 0")
    if n_clients < 1:
        raise ConfigurationError("need n_clients >= 1")
    labels = np.asarray(labels)
    rng = np.random.default_rng(seed)
    classes = np.unique(labels)
    for attempt in range(max_retries + 1):
        assigned: list[list[np.ndarray]] = [[] for _ in range(n_clients)]
        for c in classes:
            idx = np.flatnonzero(labels == c)
            rng.shuffle(idx)
            props = rng.dirichlet(np.full(n_clients, beta))
            if attempt < max_retries:
                cuts = (np.cumsum(props)[:-1] * idx.size).astype(int)
            else:  # largest remainder: every share floored, the rest to the largest fractional parts
                share = props * idx.size
                counts = np.floor(share).astype(int)
                counts[np.argsort(counts - share, kind="stable")[: idx.size - counts.sum()]] += 1
                cuts = np.cumsum(counts)[:-1]
            for k, part in enumerate(np.split(idx, cuts)):
                assigned[k].append(part)
        sizes = [sum(p.size for p in parts) for parts in assigned]
        if min(sizes) >= min_per_client:
            clients = [
                ClientIndices(train=np.concatenate(parts), test=np.array([], dtype=np.int64))
                for parts in assigned
            ]
            return Partition(clients=clients)
    raise ConfigurationError(
        f"could not give every client >= {min_per_client} samples after {max_retries + 1} draws; "
        "use a larger dataset or fewer clients"
    )


def client_split(
    partition: Partition,
    labels: np.ndarray,
    test_fraction: float,
    seed: int,
) -> Partition:
    """Carve a per-client test split out of each client's samples.

    The split is stratified where the class labels allow it; a client with at
    least two samples always keeps at least one test sample, and a one-sample
    client is flagged with a warning and gets no test data.
    """
    if not 0.0 < test_fraction < 1.0:
        raise ConfigurationError("test_fraction must lie in (0, 1)")
    labels = np.asarray(labels)
    rng = np.random.default_rng(seed)
    out = []
    for k, entry in enumerate(partition.clients):
        idx = entry.train
        train_parts, test_parts = [], []
        for c in np.unique(labels[idx]):
            cidx = idx[labels[idx] == c]
            cidx = rng.permutation(cidx)
            n_test = int(test_fraction * cidx.size)
            test_parts.append(cidx[:n_test])
            train_parts.append(cidx[n_test:])
        train = np.concatenate(train_parts) if train_parts else np.array([], dtype=np.int64)
        test = np.concatenate(test_parts) if test_parts else np.array([], dtype=np.int64)
        if test.size == 0 and idx.size >= 2:
            # move one sample from the largest class block into the test side
            order = np.argsort([p.size for p in train_parts])[::-1]
            donor = train_parts[order[0]]
            test = donor[:1]
            train = np.concatenate([donor[1:]] + [train_parts[i] for i in order[1:]])
        if test.size == 0:
            warnings.warn(f"client {k} has {idx.size} sample(s); no test split", stacklevel=2)
        out.append(ClientIndices(train=np.sort(train), test=np.sort(test)))
    return Partition(clients=out)
