"""Dataset ingestion and partitioning: byte-level IDX checks, synthetic-data
properties, Dirichlet partition laws and the heterogeneity ordering."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spafl import data as dmod
from spafl.errors import ConfigurationError, DataError


def write_raw(tmp_path, name, blob: bytes) -> str:
    p = tmp_path / name
    p.write_bytes(blob)
    return str(p)


def make_idx_pair(tmp_path, images: np.ndarray, labels: np.ndarray):
    ip = str(tmp_path / "img.idx")
    lp = str(tmp_path / "lab.idx")
    dmod.write_idx(images, labels, ip, lp)
    return ip, lp


class TestLoadIdx:
    def test_hand_crafted_image(self, tmp_path):
        img = np.array([[[0, 255], [0, 255]]], dtype=np.uint8)
        ip, lp = make_idx_pair(tmp_path, img, np.array([7], dtype=np.uint8))
        ds = dmod.load_idx(ip, lp)
        assert ds.samples.shape == (1, 1, 2, 2)
        assert np.array_equal(ds.samples[0, 0], [[0.0, 1.0], [0.0, 1.0]])
        assert ds.labels[0] == 7

    def test_wrong_magic_names_expected(self, tmp_path):
        blob = struct.pack(">IIII", 0x00000000, 1, 2, 2) + bytes(4)
        ip = write_raw(tmp_path, "bad.idx", blob)
        lp = write_raw(tmp_path, "lab.idx", struct.pack(">II", 0x00000801, 1) + bytes([3]))
        with pytest.raises(DataError, match="0x00000803"):
            dmod.load_idx(ip, lp)

    def test_zero_count(self, tmp_path):
        ip = write_raw(tmp_path, "img.idx", struct.pack(">IIII", 0x00000803, 0, 2, 2))
        lp = write_raw(tmp_path, "lab.idx", struct.pack(">II", 0x00000801, 1) + bytes([0]))
        with pytest.raises(DataError, match="zero images"):
            dmod.load_idx(ip, lp)

    def test_truncated_payload_reports_offset(self, tmp_path):
        blob = struct.pack(">IIII", 0x00000803, 2, 2, 2) + bytes(3)  # needs 8
        ip = write_raw(tmp_path, "img.idx", blob)
        lp = write_raw(tmp_path, "lab.idx", struct.pack(">II", 0x00000801, 2) + bytes([0, 1]))
        with pytest.raises(DataError, match="byte offset 19"):
            dmod.load_idx(ip, lp)

    def test_count_mismatch(self, tmp_path):
        img = np.zeros((2, 2, 2), dtype=np.uint8)
        ip, _ = make_idx_pair(tmp_path, img, np.array([0, 1], dtype=np.uint8))
        lp = write_raw(tmp_path, "lab1.idx", struct.pack(">II", 0x00000801, 1) + bytes([0]))
        with pytest.raises(DataError, match="does not match"):
            dmod.load_idx(ip, lp)

    def test_round_trip_bit_identical(self, tmp_path, rng):
        images = rng.integers(0, 256, (5, 3, 4)).astype(np.uint8)
        labels = rng.integers(0, 4, 5).astype(np.uint8)
        ip, lp = make_idx_pair(tmp_path, images, labels)
        ds = dmod.load_idx(ip, lp)
        back = np.round(ds.samples[:, 0] * 255.0).astype(np.uint8)
        assert np.array_equal(back, images)
        assert np.array_equal(ds.labels, labels)
        ip2, lp2 = str(tmp_path / "i2.idx"), str(tmp_path / "l2.idx")
        dmod.write_idx(back, ds.labels.astype(np.uint8), ip2, lp2)
        assert open(ip, "rb").read() == open(ip2, "rb").read()
        assert open(lp, "rb").read() == open(lp2, "rb").read()


class TestSynthDataset:
    def test_spread_zero_collapses_classes(self):
        ds = dmod.synth_dataset(3, 8, 5, spread=0.0, seed=0)
        for c in range(3):
            block = ds.samples[ds.labels == c]
            assert np.all(block == block[0])

    def test_deterministic(self):
        a = dmod.synth_dataset(4, 16, 10, 0.3, seed=42)
        b = dmod.synth_dataset(4, 16, 10, 0.3, seed=42)
        assert np.array_equal(a.samples, b.samples)
        assert np.array_equal(a.labels, b.labels)

    def test_nearest_centroid_oracle(self):
        ds = dmod.synth_dataset(10, 64, 50, spread=0.05, seed=3)
        cents = np.stack([ds.samples[ds.labels == c].mean(0) for c in range(10)])
        d2 = ((ds.samples[:, None, :] - cents[None]) ** 2).sum(-1)
        acc = np.mean(np.argmin(d2, axis=1) == ds.labels)
        assert acc > 0.95

    def test_balanced_and_in_unit_interval(self):
        ds = dmod.synth_dataset(5, 12, 7, 0.4, seed=1)
        assert np.all((ds.samples >= 0.0) & (ds.samples <= 1.0))
        counts = np.bincount(ds.labels, minlength=5)
        assert np.array_equal(counts, np.full(5, 7))

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            dmod.synth_dataset(1, 8, 5, 0.1, 0)
        with pytest.raises(ConfigurationError):
            dmod.synth_dataset(3, 0, 5, 0.1, 0)


def label_entropy(labels: np.ndarray) -> float:
    counts = np.bincount(labels)
    p = counts[counts > 0] / counts.sum()
    return float(-(p * np.log(p)).sum())


def mean_client_entropy(labels, n_clients, beta, seed) -> float:
    part = dmod.dirichlet_partition(labels, n_clients, beta, seed, min_per_client=2)
    return float(np.mean([label_entropy(labels[c.train]) for c in part.clients]))


class TestDirichletPartition:
    def test_single_client_gets_everything(self):
        labels = np.repeat(np.arange(4), 10)
        part = dmod.dirichlet_partition(labels, 1, 0.5, seed=0)
        assert np.array_equal(np.sort(part.clients[0].train), np.arange(40))

    @given(st.integers(0, 2**31 - 1), st.sampled_from([0.1, 1.0, 100.0]), st.integers(2, 8))
    @settings(max_examples=25, deadline=None)
    def test_partition_laws(self, seed, beta, n_clients):
        labels = np.repeat(np.arange(5), 30)
        part = dmod.dirichlet_partition(labels, n_clients, beta, seed, min_per_client=1)
        merged = np.concatenate([c.train for c in part.clients])
        assert len(merged) == len(labels)
        assert len(np.unique(merged)) == len(labels)

    def test_minimum_size_enforced(self):
        labels = np.repeat(np.arange(10), 20)
        part = dmod.dirichlet_partition(labels, 10, 0.1, seed=5, min_per_client=2)
        assert min(c.train.size for c in part.clients) >= 2

    def test_retries_exhausted(self):
        labels = np.zeros(3, dtype=int)  # 3 samples cannot give 4 clients 2 each
        with pytest.raises(ConfigurationError, match="larger dataset or fewer clients"):
            dmod.dirichlet_partition(labels, 4, 0.1, seed=0, min_per_client=2)

    def test_starved_floored_cuts_fall_back_to_largest_remainder(self):
        # near-equal shares of 19 samples among 20 clients floor the first
        # cut to 0 in every draw, so client 0 gets nothing from any class
        labels = np.repeat(np.arange(10), 19)
        part = dmod.dirichlet_partition(labels, 20, 1e6, seed=0, min_per_client=1)
        sizes = [c.train.size for c in part.clients]
        assert len(sizes) == 20 and min(sizes) >= 8 and max(sizes) <= 10
        merged = np.concatenate([c.train for c in part.clients])
        assert np.array_equal(np.sort(merged), np.arange(labels.size))

    def test_last_draw_uses_largest_remainder_counts(self):
        # with no retries the one draw is the fallback: per class, every
        # client gets the floor or the ceiling of its share, and the
        # leftovers go to the largest fractional parts
        labels = np.repeat(np.arange(3), 10)
        part = dmod.dirichlet_partition(labels, 4, 2.0, seed=6, min_per_client=0, max_retries=0)
        rng = np.random.default_rng(6)
        for c in range(3):
            rng.shuffle(np.flatnonzero(labels == c))
            share = rng.dirichlet(np.full(4, 2.0)) * 10
            got = np.array([np.sum(labels[p.train] == c) for p in part.clients])
            up = got == np.floor(share) + 1
            assert got.sum() == 10 and np.all(up | (got == np.floor(share)))
            frac = share - np.floor(share)
            assert frac[up].min(initial=1.0) >= frac[~up].max(initial=0.0)

    def test_first_draw_success_keeps_floored_cuts(self):
        # a partition the floored draws give is unchanged by the fallback:
        # replay the first draw's floored cuts by hand
        labels = np.repeat(np.arange(3), 12)
        part = dmod.dirichlet_partition(labels, 4, 5.0, seed=8, min_per_client=1)
        rng = np.random.default_rng(8)
        expected = [[] for _ in range(4)]
        for c in range(3):
            idx = np.flatnonzero(labels == c)
            rng.shuffle(idx)
            props = rng.dirichlet(np.full(4, 5.0))
            for k, piece in enumerate(np.split(idx, (np.cumsum(props)[:-1] * idx.size).astype(int))):
                expected[k].append(piece)
        for got, parts in zip(part.clients, expected):
            assert np.array_equal(got.train, np.concatenate(parts))

    def test_entropy_ordering_beta(self):
        # smaller concentration -> more skewed clients -> lower mean entropy
        labels = np.repeat(np.arange(10), 100)
        lo = np.mean([mean_client_entropy(labels, 10, 0.1, s) for s in range(20)])
        hi = np.mean([mean_client_entropy(labels, 10, 100.0, s) for s in range(20)])
        assert lo < hi

    def test_entropy_monotone_over_three_betas(self):
        labels = np.repeat(np.arange(10), 100)
        means = [
            np.mean([mean_client_entropy(labels, 10, beta, s) for s in range(20)])
            for beta in (100.0, 1.0, 0.1)
        ]
        assert means[0] >= means[1] >= means[2]

    def test_gamma_draw_oracle_agreement(self):
        # independent route: Dirichlet as normalized Gamma(beta, 1) draws,
        # assigning the same per-class cumulative-share splits
        labels = np.repeat(np.arange(10), 100)

        def oracle_entropy(beta, seed):
            r = np.random.default_rng(seed)
            counts = np.zeros((10, 10))  # client x class
            for c in range(10):
                g = r.gamma(beta, 1.0, 10)
                props = g / g.sum()
                counts[:, c] = np.diff(np.concatenate([[0], np.floor(np.cumsum(props) * 100)]))
            ents = []
            for k in range(10):
                p = counts[k][counts[k] > 0]
                p = p / p.sum()
                ents.append(float(-(p * np.log(p)).sum()) if p.size else 0.0)
            return float(np.mean(ents))

        impl = {b: np.mean([mean_client_entropy(labels, 10, b, s) for s in range(20)]) for b in (0.1, 100.0)}
        orac = {b: np.mean([oracle_entropy(b, s) for s in range(20)]) for b in (0.1, 100.0)}
        assert (impl[0.1] < impl[100.0]) and (orac[0.1] < orac[100.0])
        # the two routes should land in the same entropy regime per beta
        assert abs(impl[100.0] - orac[100.0]) < 0.2
        assert abs(impl[0.1] - orac[0.1]) < 0.35


class TestClientSplit:
    def test_eight_two_split(self):
        labels = np.zeros(10, dtype=int)
        part = dmod.Partition(clients=[dmod.ClientIndices(train=np.arange(10), test=np.array([], dtype=int))])
        out = dmod.client_split(part, labels, 0.2, seed=0)
        assert out.clients[0].train.size == 8
        assert out.clients[0].test.size == 2

    def test_single_sample_client_flagged(self):
        labels = np.zeros(1, dtype=int)
        part = dmod.Partition(clients=[dmod.ClientIndices(train=np.array([0]), test=np.array([], dtype=int))])
        with pytest.warns(UserWarning, match="no test split"):
            out = dmod.client_split(part, labels, 0.2, seed=0)
        assert out.clients[0].train.size == 1
        assert out.clients[0].test.size == 0

    def test_two_samples_keep_one_test(self):
        labels = np.array([0, 0])
        part = dmod.Partition(clients=[dmod.ClientIndices(train=np.array([0, 1]), test=np.array([], dtype=int))])
        out = dmod.client_split(part, labels, 0.2, seed=0)
        assert out.clients[0].test.size == 1
        assert out.clients[0].train.size == 1

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_disjoint_and_exhaustive(self, seed):
        r = np.random.default_rng(seed)
        labels = r.integers(0, 4, 60)
        part = dmod.dirichlet_partition(labels, 4, 0.5, seed, min_per_client=2)
        out = dmod.client_split(part, labels, 0.25, seed)
        for before, after in zip(part.clients, out.clients):
            merged = np.concatenate([after.train, after.test])
            assert np.array_equal(np.sort(merged), np.sort(before.train))
            assert np.intersect1d(after.train, after.test).size == 0

    def test_stratified_where_possible(self):
        labels = np.array([0] * 5 + [1] * 5)
        part = dmod.Partition(clients=[dmod.ClientIndices(train=np.arange(10), test=np.array([], dtype=int))])
        out = dmod.client_split(part, labels, 0.2, seed=0)
        assert np.sort(labels[out.clients[0].test]).tolist() == [0, 1]

    def test_fraction_validated(self):
        part = dmod.Partition(clients=[])
        with pytest.raises(ConfigurationError):
            dmod.client_split(part, np.array([]), 0.0, 0)
