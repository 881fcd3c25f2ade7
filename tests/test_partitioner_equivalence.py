"""Partitioner invariants and FM-bookkeeping equivalence.

The maintained-gain FM bookkeeping (``refine._BisectionState``) must be
*bit-identical* to the recompute-from-scratch golden model in
``tests/oracles`` on dyadic-weight hypergraphs — both run the
:func:`repro.hypergraph.refine._fm_pass` selection loop and differ only
in bookkeeping (see ``refine.py``'s module docstring for the exactness
argument).  On arbitrary float weights gain sums may round differently,
so there the contract weakens to cut-quality parity (gmean within 2%).

Azul placements of suite matrices are pinned by content digest, so any
change to the partitioner's bookkeeping that alters one placement bit
fails here.  Also covered: FM never increases the connectivity cut, per-constraint
caps hold after every refine when the input satisfies them, same-seed
determinism across presets, ``jobs=N`` bit-identity with the
serial path, and the one-bookkeeping contract: no option, argument or
environment switch selects the golden model.
"""

from __future__ import annotations

import hashlib
import importlib.util

import numpy as np
import pytest

from repro.config import AzulConfig
from repro.core.azul_mapping import map_azul
from repro.experiments.common import ExperimentSession
from repro.hypergraph import Hypergraph, PartitionerOptions, partition
from repro.hypergraph.metrics import connectivity_cut, cut_weight
from repro.hypergraph import refine as refine_module
from repro.hypergraph.refine import fm_refine
from tests.oracles.refine import ReferenceBisectionState, use_reference_refine


def random_hypergraph(rng, n=None, n_edges=None, weight_pool=(1.0, 2.0),
                      n_constraints=2, min_pins=1, max_pins=8):
    """A random hypergraph with weights drawn from ``weight_pool``."""
    n = int(rng.integers(12, 120)) if n is None else n
    n_edges = int(rng.integers(8, 220)) if n_edges is None else n_edges
    edges = [
        rng.integers(0, n, size=int(rng.integers(min_pins, max_pins + 1)))
        for _ in range(n_edges)
    ]
    edge_weights = rng.choice(weight_pool, size=n_edges)
    vertex_weights = rng.integers(1, 4, size=(n, n_constraints)).astype(float)
    return Hypergraph(n, edges, edge_weights, vertex_weights)


def loose_caps(hgraph, fraction=0.5, epsilon=0.10):
    totals = hgraph.total_weights()
    slack = hgraph.vertex_weights.max(axis=0)
    caps = np.empty((2, hgraph.n_constraints))
    caps[0] = totals * fraction * (1.0 + epsilon) + slack
    caps[1] = totals * (1.0 - fraction) * (1.0 + epsilon) + slack
    return caps


def random_side(hgraph, rng):
    return (rng.random(hgraph.n_vertices) < 0.5).astype(np.int8)


@pytest.fixture(params=["reference", "vectorized"])
def refine(request, monkeypatch):
    """Run the test on the golden or the production FM bookkeeping."""
    if request.param == "reference":
        use_reference_refine(monkeypatch)
    return request.param


def reference_and_production(monkeypatch, run):
    """``run()`` on the golden FM bookkeeping, then on production."""
    with monkeypatch.context() as patch:
        use_reference_refine(patch)
        reference = run()
    return reference, run()


def count_states(monkeypatch, state_class):
    """Record every FM bookkeeping object ``fm_refine`` builds."""
    built = []

    def make(hgraph, side):
        state = state_class(hgraph, side)
        built.append(type(state))
        return state

    monkeypatch.setattr(refine_module, "_BisectionState", make)
    return built


class TestRegistry:
    """One FM bookkeeping in ``src``; only the oracle swap selects the
    golden one, and no option, argument or environment switch does."""

    def test_both_strategies_registered(self):
        production = refine_module._BisectionState
        assert ReferenceBisectionState.__module__ == "tests.oracles.refine"
        for method in ("gain", "move", "fits_after_move", "affected",
                       "boundary_vertices"):
            assert callable(getattr(production, method)), method
            assert callable(getattr(ReferenceBisectionState, method)), method

    def test_default_is_vectorized(self, monkeypatch):
        assert importlib.util.find_spec("repro.hypergraph.refine_vec") is None
        for name in ("STRATEGIES", "RefineStrategy", "register_strategy",
                     "resolve_refine", "default_refine_name"):
            assert not hasattr(refine_module, name), name
        production = refine_module._BisectionState
        built = count_states(monkeypatch, production)
        rng = np.random.default_rng(5)
        hg = random_hypergraph(rng, n=80, n_edges=160)
        partition(hg, 8, PartitionerOptions(seed=3))
        assert built
        assert set(built) == {production}

    def test_env_selects_reference(self, monkeypatch):
        """The retired ``AZUL_PART_REFERENCE`` switch is inert."""
        rng = np.random.default_rng(5)
        hg = random_hypergraph(rng, n=80, n_edges=160)
        monkeypatch.delenv("AZUL_PART_REFERENCE", raising=False)
        unset = partition(hg, 8, PartitionerOptions(seed=3))
        monkeypatch.setenv("AZUL_PART_REFERENCE", "1")
        production = refine_module._BisectionState
        built = count_states(monkeypatch, production)
        with_env = partition(hg, 8, PartitionerOptions(seed=3))
        assert set(built) == {production}
        assert np.array_equal(with_env, unset)

    def test_unknown_strategy_rejected(self):
        with pytest.raises(TypeError, match="refine"):
            PartitionerOptions(refine="does-not-exist")
        rng = np.random.default_rng(3)
        hg = random_hypergraph(rng, n=20, n_edges=30)
        with pytest.raises(TypeError, match="refine"):
            fm_refine(hg, random_side(hg, rng), loose_caps(hg),
                      refine="reference")

    def test_options_select_strategy_end_to_end(self, monkeypatch):
        """The oracle swap reaches every bisection of a k-way partition
        and leaves the assignment bit-identical."""
        rng = np.random.default_rng(5)
        hg = random_hypergraph(rng, n=80, n_edges=160)
        production = partition(hg, 8, PartitionerOptions(seed=3))
        use_reference_refine(monkeypatch)
        built = count_states(monkeypatch, refine_module._BisectionState)
        reference = partition(hg, 8, PartitionerOptions(seed=3))
        assert built
        assert set(built) == {ReferenceBisectionState}
        assert np.array_equal(reference, production)


class TestFMInvariants:
    def test_fm_never_increases_cut(self, refine):
        rng = np.random.default_rng(11)
        for _ in range(12):
            hg = random_hypergraph(rng)
            side = random_side(hg, rng)
            before = connectivity_cut(hg, side.astype(np.int64))
            refined = fm_refine(hg, side.copy(), loose_caps(hg), passes=3)
            after = connectivity_cut(hg, refined.astype(np.int64))
            assert after <= before + 1e-9

    def test_caps_respected_after_every_refine(self, refine):
        rng = np.random.default_rng(23)
        for _ in range(12):
            hg = random_hypergraph(rng)
            side = random_side(hg, rng)
            # Caps that the *input* side satisfies: FM must keep them.
            weights = np.stack([
                hg.vertex_weights[side == s].sum(axis=0) for s in (0, 1)
            ])
            caps = np.maximum(loose_caps(hg), weights)
            for _ in range(3):  # every refine call, not just the first
                side = fm_refine(hg, side, caps, passes=1)
                held = np.stack([
                    hg.vertex_weights[side == s].sum(axis=0) for s in (0, 1)
                ])
                assert (held <= caps + 1e-9).all()


class TestStrategyParity:
    def test_refine_bit_identical_on_dyadic_weights(self, monkeypatch):
        rng = np.random.default_rng(7)
        for _ in range(25):
            hg = random_hypergraph(rng, weight_pool=(1.0, 2.0, 4.0))
            side = random_side(hg, rng)
            ref, vec = reference_and_production(
                monkeypatch,
                lambda: fm_refine(hg, side.copy(), loose_caps(hg), passes=3),
            )
            assert np.array_equal(ref, vec)

    def test_partition_bit_identical_on_dyadic_weights(self, monkeypatch):
        rng = np.random.default_rng(17)
        for n_parts in (2, 5, 16):
            hg = random_hypergraph(rng, n=150, n_edges=400)
            ref, vec = reference_and_production(
                monkeypatch,
                lambda: partition(hg, n_parts, PartitionerOptions(seed=1)),
            )
            assert np.array_equal(ref, vec)

    def test_partition_bit_identical_end_to_end(self, monkeypatch):
        rng = np.random.default_rng(5)
        hg = random_hypergraph(rng, n=80, n_edges=160)
        ref, vec = reference_and_production(
            monkeypatch, lambda: partition(hg, 8, PartitionerOptions(seed=3)),
        )
        assert np.array_equal(ref, vec)

    def test_cut_quality_parity_on_float_weights(self, monkeypatch):
        # Non-dyadic weights: gain sums may round differently between
        # bookkeeping schemes, so exact equality is not guaranteed —
        # but cut quality must agree (gmean within 2%).
        rng = np.random.default_rng(29)
        ratios = []
        for _ in range(10):
            n_edges = int(rng.integers(40, 200))
            hg = random_hypergraph(rng, n_edges=n_edges)
            hg.edge_weights = rng.random(hg.n_edges) + 0.25
            ref, vec = reference_and_production(
                monkeypatch,
                lambda: partition(hg, 4, PartitionerOptions(seed=2)),
            )
            cut_ref = connectivity_cut(hg, ref) + 1.0
            cut_vec = connectivity_cut(hg, vec) + 1.0
            ratios.append(cut_vec / cut_ref)
        gmean = float(np.exp(np.mean(np.log(ratios))))
        assert 0.98 <= gmean <= 1.02


class TestDeterminism:
    @pytest.mark.parametrize("preset", ["speed", "default", "quality"])
    def test_same_seed_same_assignment(self, preset):
        rng = np.random.default_rng(31)
        hg = random_hypergraph(rng, n=140, n_edges=350)
        make = {
            "speed": PartitionerOptions.speed,
            "quality": PartitionerOptions.quality,
            "default": PartitionerOptions,
        }[preset]
        first = partition(hg, 8, make(seed=9))
        second = partition(hg, 8, make(seed=9))
        assert np.array_equal(first, second)

    def test_different_seeds_differ(self):
        rng = np.random.default_rng(37)
        hg = random_hypergraph(rng, n=200, n_edges=500)
        a = partition(hg, 8, PartitionerOptions(seed=0))
        b = partition(hg, 8, PartitionerOptions(seed=1))
        assert not np.array_equal(a, b)

    def test_jobs_bit_identical_to_serial(self):
        rng = np.random.default_rng(41)
        hg = random_hypergraph(rng, n=300, n_edges=700)
        options = PartitionerOptions(seed=4)
        serial = partition(hg, 8, options)
        pooled = partition(hg, 8, options, jobs=2)
        assert np.array_equal(serial, pooled)

    def test_presets_cover_edge_size_knobs(self):
        speed = PartitionerOptions.speed()
        default = PartitionerOptions()
        quality = PartitionerOptions.quality()
        assert (speed.matching_edge_size_limit
                < default.matching_edge_size_limit
                < quality.matching_edge_size_limit)
        assert (speed.growth_edge_size_limit
                < default.growth_edge_size_limit
                < quality.growth_edge_size_limit)


class TestCutMetricsAgree:
    def test_cut_weight_lower_bounds_connectivity(self):
        rng = np.random.default_rng(43)
        hg = random_hypergraph(rng)
        assignment = partition(hg, 4, PartitionerOptions(seed=0))
        assert cut_weight(hg, assignment) <= connectivity_cut(hg, assignment)


def placement_digest(placement) -> str:
    """SHA-256 over the tile arrays of a placement, as int64 bytes."""
    digest = hashlib.sha256()
    for tiles in (placement.a_tile, placement.l_tile, placement.vec_tile):
        digest.update(np.ascontiguousarray(tiles, dtype=np.int64).tobytes())
    return digest.hexdigest()


class TestPlacementDigests:
    """Azul placements on 8x8 tiles, pinned byte for byte."""

    CASES = {
        ("thermal2", 0, "default"):
            "749d5d5a9a19924205e87daaa7c32a6e"
            "2eaa236eb82407b18b65945c3848ce83",
        ("thermal2", 5, "default"):
            "7dbc213c4df0ee5d84b09d576bc30477"
            "47bd76aae07047fe7a76687de9a5ca64",
        ("G3_circuit", 5, "speed"):
            "4cc3e3e6e590c16550585bbe25920ce1"
            "d134de4d39647fee62a5cfb8b40fbc93",
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_placement_digest_pinned(self, case):
        name, q, preset = case
        config = AzulConfig(mesh_rows=8, mesh_cols=8)
        prepared = ExperimentSession(config, use_cache=False).prepare(name)
        options = (
            PartitionerOptions.speed(seed=0) if preset == "speed" else None
        )
        placement = map_azul(prepared.matrix, prepared.lower,
                             config.num_tiles, q=q, options=options)
        assert placement_digest(placement) == self.CASES[case]
