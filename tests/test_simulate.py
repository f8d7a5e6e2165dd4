"""Tests for the seeded simulators and the replicated variance estimator."""

import importlib
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats

import helpers
from helpers import extract_embedded_component, joint_law_exact
from scanvar.kernels import Observable, ValidationError, make_family
from scanvar.seeding import derive_seed, splitmix64
from scanvar.simulate import SimulationConfig, estimate_variance, simulate
from scanvar.variance import finite_m_variance_exact

# the package re-exports the function `simulate` under the module's name
simulate_module = importlib.import_module("scanvar.simulate")


class TestSeeding:
    def test_splitmix_is_deterministic(self):
        assert splitmix64(12345) == splitmix64(12345)

    def test_derived_seeds_distinct(self):
        seeds = {derive_seed(7, i) for i in range(1000)}
        assert len(seeds) == 1000

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            derive_seed(7, -1)


class TestSimulate:
    def test_deterministic_in_seed(self, e1):
        for scheme in ("rand", "strat", "embedded"):
            cfg = SimulationConfig(steps=200, seed=99, scheme=scheme)
            a = simulate(e1, cfg)
            b = simulate(e1, cfg)
            np.testing.assert_array_equal(a, b)

    def test_seeds_change_paths(self, e1):
        a = simulate(e1, SimulationConfig(steps=200, seed=1, scheme="strat"))
        b = simulate(e1, SimulationConfig(steps=200, seed=2, scheme="strat"))
        assert not np.array_equal(a, b)

    def test_identity_family_constant_path(self):
        fam = make_family([0.3, 0.7], [np.eye(2), np.eye(2)])
        path = simulate(fam, SimulationConfig(steps=100, seed=5, scheme="strat"))
        assert np.all(path == path[0])

    def test_shapes(self, e1):
        assert simulate(e1, SimulationConfig(steps=50, seed=0, scheme="rand")).shape == (50,)
        assert simulate(e1, SimulationConfig(steps=50, seed=0, scheme="embedded")).shape == (50, 2)

    def test_invalid_config(self):
        with pytest.raises(ValidationError):
            SimulationConfig(steps=0)
        with pytest.raises(ValidationError):
            SimulationConfig(steps=10, scheme="sweep")

    @pytest.mark.parametrize("scheme", ["strat", "rand", "embedded"])
    @pytest.mark.parametrize("values", [[1.0, -1.0, 3.0], [1.0]])
    def test_estimate_refuses_observable_of_other_length(self, e1, scheme, values):
        with pytest.raises(ValidationError, match="f has"):
            estimate_variance(e1, Observable(values), 16, 5, 0, scheme)

    def test_counts_from_2_to_the_63_refused(self, monkeypatch, e1, e1_f):
        # numpy counts in int64; replicas are refused before any seed is
        # derived, so a regression fails fast instead of deriving 10**30
        with pytest.raises(ValidationError, match=r"^steps must be below 2\*\*63$"):
            SimulationConfig(steps=2**63)
        assert SimulationConfig(steps=2**63 - 1).steps == 2**63 - 1

        def refuse(master, index):
            raise AssertionError("a replica seed was derived")

        monkeypatch.setattr(simulate_module, "derive_seed", refuse)
        for replicas in (2**63, 10**30):
            with pytest.raises(ValidationError, match=r"^replicas must be below 2\*\*63$"):
                estimate_variance(e1, e1_f, 16, replicas, 0, "strat")

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_64_bits_refused(self, e1, e1_f, seed):
        # derive_seed reads the seed modulo 2**64, so -1 would alias 2**64 - 1
        with pytest.raises(ValidationError, match="0 <= seed < 2\\*\\*64"):
            simulate(e1, SimulationConfig(steps=4, seed=seed))
        with pytest.raises(ValidationError, match="0 <= seed < 2\\*\\*64"):
            estimate_variance(e1, e1_f, 16, 5, seed, "strat")

    @pytest.mark.parametrize("value", [2.5, 3.0, True, np.True_, "3"])
    def test_counts_and_seed_must_be_integers(self, e1, e1_f, value):
        # numpy would take some of these, or raise its own TypeError
        for name, call in (
            ("steps", lambda: SimulationConfig(steps=value)),
            ("seed", lambda: SimulationConfig(steps=4, seed=value)),
            ("steps", lambda: estimate_variance(e1, e1_f, value, 5, 0, "strat")),
            ("seed", lambda: estimate_variance(e1, e1_f, 16, 5, value, "strat")),
            ("replicas", lambda: estimate_variance(e1, e1_f, 16, value, 0, "strat")),
        ):
            message = f"{name} must be an integer, got {value!r}"
            with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
                call()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("seed", [3, 2**63 - 1, 2**64 - 1])
    def test_numpy_integers_accepted(self, e1, e1_f, seed):
        # the same bits as Python integers, with no overflow on the way
        np_seed = np.uint64(seed) if seed >= 2**63 else np.int64(seed)
        cfg = SimulationConfig(steps=np.int64(9), seed=np_seed, scheme="rand")
        plain = SimulationConfig(steps=9, seed=seed, scheme="rand")
        np.testing.assert_array_equal(simulate(e1, cfg), simulate(e1, plain))
        numpy_args = (np.int64(16), np.int32(5), np_seed)
        assert estimate_variance(e1, e1_f, *numpy_args, "strat") == estimate_variance(
            e1, e1_f, 16, 5, seed, "strat"
        )

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_seed_range_ends_accepted(self, e1, e1_f, seed):
        assert simulate(e1, SimulationConfig(steps=4, seed=seed)).shape[0] == 4
        assert np.isfinite(estimate_variance(e1, e1_f, 16, 5, seed, "strat").point)

    def test_strat_odd_steps_use_first_kernel(self, e1):
        # transitions at odd step indices follow the first kernel's rows
        states = simulate(e1, SimulationConfig(steps=100_001, seed=8, scheme="strat"))
        counts = np.zeros((2, 2))
        for t in range(1, states.shape[0], 2):
            counts[states[t - 1], states[t]] += 1
        for x in range(2):
            total = counts[x].sum()
            for y in range(2):
                p = e1.matrices[0][x, y]
                se = np.sqrt(p * (1 - p) / total)
                assert abs(counts[x, y] / total - p) <= 3 * se


class TestExtraction:
    def test_alternates_columns_for_two_phases(self, e1):
        path = simulate(e1, SimulationConfig(steps=20, seed=1, scheme="embedded"))
        extracted = extract_embedded_component(path)
        expected = path[np.arange(20), np.arange(20) % 2]
        np.testing.assert_array_equal(extracted, expected)

    def test_single_phase_returns_path(self):
        fam = make_family([0.5, 0.5], [helpers.E1_P1])
        path = simulate(fam, SimulationConfig(steps=30, seed=2, scheme="embedded"))
        extracted = extract_embedded_component(path)
        np.testing.assert_array_equal(extracted, path[:, 0])

    def test_rejects_flat_paths(self, e1):
        path = simulate(e1, SimulationConfig(steps=10, seed=0, scheme="strat"))
        with pytest.raises(ValidationError):
            extract_embedded_component(path)


def lockstep_paths(fam, scheme, steps, seeds):
    """Slot 0 of one lockstep run, one (steps,) row per seed: the strat or
    rand path, or the embedded chain's diagonal component. The first 50
    rows are checked against simulate() and extract_embedded_component."""
    cfg = SimulationConfig(steps=steps, scheme=scheme)
    blocks = simulate_module._lockstep(fam, cfg, seeds)
    paths = np.concatenate([b[:, :, 0] for b in blocks], axis=1).T
    for row, seed in zip(paths[:50], seeds):
        path = simulate(fam, SimulationConfig(steps=steps, seed=seed, scheme=scheme))
        if scheme == "embedded":
            path = extract_embedded_component(path)
        np.testing.assert_array_equal(row, path)
    return paths


class TestStationarity:
    def test_fixed_time_marginals_match_target(self, e1):
        # across independent replicas the marginal at any fixed time is the
        # target; binomial 4-sigma bands per state
        replicas = 3000
        horizon = 9
        seeds = [derive_seed(123, r) for r in range(replicas)]
        for scheme in ("rand", "strat", "embedded"):
            states = lockstep_paths(e1, scheme, horizon, seeds)
            for t in (0, 4, 8):
                for x in range(2):
                    p = e1.pi.weights[x]
                    freq = float(np.mean(states[:, t] == x))
                    band = 4.0 * np.sqrt(p * (1 - p) / replicas)
                    assert abs(freq - p) <= band, (scheme, t, x, freq)


class TestEmbeddingLawAgreement:
    def test_chi_square_on_triples(self, e1):
        # the extracted component chain and the directly simulated cycle chain
        # should be statistically indistinguishable on (X0, X1, X2)
        replicas = 12000
        seeds = [derive_seed(777, r) for r in range(replicas)]
        counts = {}
        for label, scheme in (("direct", "strat"), ("extracted", "embedded")):
            s = lockstep_paths(e1, scheme, 3, seeds)
            table = np.zeros((2, 2, 2))
            np.add.at(table, (s[:, 0], s[:, 1], s[:, 2]), 1)
            counts[label] = table.reshape(-1)
        contingency = np.stack([counts["direct"], counts["extracted"]])
        _, p_value, _, _ = stats.chi2_contingency(contingency)
        assert p_value > 0.001

    def test_extracted_lag_pairs_match_exact_law(self, e1):
        law = joint_law_exact(e1, 1, "strat")
        steps = 100_000
        s = extract_embedded_component(
            simulate(e1, SimulationConfig(steps=steps, seed=31, scheme="embedded"))
        )
        # lag-1 pairs starting at even times share the exact two-step law
        starts = np.arange(0, steps - 1, 2)
        pairs = np.zeros((2, 2))
        for t in starts:
            pairs[s[t], s[t + 1]] += 1
        pairs /= starts.size
        for x in range(2):
            for y in range(2):
                p = law[x, y]
                se = np.sqrt(p * (1 - p) / starts.size)
                assert abs(pairs[x, y] - p) <= 4 * se


class TestEstimateVariance:
    def test_constant_function_zero(self, e1):
        est = estimate_variance(e1, Observable([3.0, 3.0]), 64, 10, 0, "strat")
        assert est.point == 0.0

    def test_needs_replication(self, e1, e1_f):
        with pytest.raises(ValidationError):
            estimate_variance(e1, e1_f, 64, 1, 0, "strat")

    def test_within_three_sigma_of_exact(self, e1, e1_f):
        for scheme in ("strat", "rand"):
            exact = finite_m_variance_exact(e1, e1_f, 4096, scheme)
            est = estimate_variance(e1, e1_f, 4096, 200, 2024, scheme)
            assert est.standard_error > 0.0
            assert abs(est.point - exact) <= 3.0 * est.standard_error

    def test_embedded_estimates_cycle_variance(self, e1, e1_f):
        exact = finite_m_variance_exact(e1, e1_f, 1024, "strat")
        est = estimate_variance(e1, e1_f, 1024, 200, 5, "embedded")
        assert abs(est.point - exact) <= 3.0 * est.standard_error

    def test_consistency_as_replicas_grow(self, e1, e1_f):
        exact = finite_m_variance_exact(e1, e1_f, 1024, "strat")
        errors = []
        for replicas in (50, 200, 800):
            est = estimate_variance(e1, e1_f, 1024, replicas, 91, "strat")
            assert abs(est.point - exact) <= 3.0 * est.standard_error
            errors.append(est.standard_error)
        assert errors[0] > errors[1] > errors[2]


SCHEMES = ("strat", "rand", "embedded")


def _estimate_from(values):
    """Point estimate and standard error as estimate_variance forms them."""
    deviations_sq = (values - values.mean()) ** 2
    return (
        float(np.var(values, ddof=1)),
        float(np.sqrt(np.var(deviations_sq, ddof=1) / values.size)),
    )


class TestReferenceSimulator:
    """The lockstep loop against the scalar reference simulator, bit for bit."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_paths(self, k, scheme):
        rng = np.random.default_rng(60 + k)
        fam = helpers.random_family(rng, 5, k)
        for steps in (1, 2, 3, 5, 37, 38, 41):
            seed = 9 + steps
            got = simulate(fam, SimulationConfig(steps, seed, scheme))
            expected = helpers.reference_path(fam, scheme, seed, steps)
            assert got.dtype == expected.dtype
            np.testing.assert_array_equal(got, expected)

    @given(helpers.families(), st.sampled_from([1, 2, 5, 38]), st.integers(0, 2**64 - 1))
    def test_paths_on_families(self, case, steps, seed):
        # Gibbs kernels repeat cumulative weights and hold-1.0 kernels have
        # identity rows
        fam, _ = case
        for scheme in SCHEMES:
            got = simulate(fam, SimulationConfig(steps, seed, scheme))
            np.testing.assert_array_equal(got, helpers.reference_path(fam, scheme, seed, steps))

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_one_state_paths(self, k, scheme):
        fam = make_family([1.0], [np.eye(1)] * k)
        got = simulate(fam, SimulationConfig(9, 4, scheme))
        np.testing.assert_array_equal(got, helpers.reference_path(fam, scheme, 4, 9))
        assert got.dtype == np.int64 and not got.any()

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_estimates_across_blocks(self, monkeypatch, k, scheme):
        rng = np.random.default_rng(70 + k)
        fam = helpers.random_family(rng, 4, k)
        f = Observable(rng.standard_normal(4))
        steps, replicas = 50, 23
        seeds = [derive_seed(5, r) for r in range(replicas)]
        values = helpers.reference_estimate(fam, f, steps, seeds, scheme)
        expected = _estimate_from(values)
        one_block = estimate_variance(fam, f, steps, replicas, 5, scheme)
        # several blocks, the last one short
        monkeypatch.setattr(simulate_module, "BLOCK_DRAWS", 3 * steps * fam.k)
        blocked = estimate_variance(fam, f, steps, replicas, 5, scheme)
        for est in (one_block, blocked):
            assert (est.point, est.standard_error) == expected

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_one_slot_is_slot_zero_of_full_width(self, monkeypatch, k, scheme):
        rng = np.random.default_rng(80 + k)
        fam = helpers.random_family(rng, 4, k)
        seeds = [derive_seed(11, r) for r in range(7)]
        steps = 30
        # one block, then (for the one-slot run) blocks of 3, the last of 1
        cfg = SimulationConfig(steps=steps, scheme=scheme)
        for draws, sizes in ((simulate_module.BLOCK_DRAWS, [7]), (3 * steps, [3, 3, 1])):
            monkeypatch.setattr(simulate_module, "BLOCK_DRAWS", draws)
            full = np.concatenate(list(simulate_module._lockstep(fam, cfg, seeds)), axis=1)
            one = list(simulate_module._lockstep(fam, cfg, seeds, slots=1))
            assert [b.shape[1:] for b in one] == [(r, 1) for r in sizes]
            np.testing.assert_array_equal(np.concatenate(one, axis=1), full[:, :, :1])

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_estimate_steps_one_slot(self, monkeypatch, scheme):
        # the estimator reads only slot 0, so it steps no other slot
        fam = helpers.random_family(np.random.default_rng(90), 4, 3)
        widths = []
        lockstep = simulate_module._lockstep

        def spy(*args, **kwargs):
            for b in lockstep(*args, **kwargs):
                widths.append(b.shape[2])
                yield b

        monkeypatch.setattr(simulate_module, "_lockstep", spy)
        monkeypatch.setattr(simulate_module, "BLOCK_DRAWS", 3 * 20)
        f = Observable(np.arange(4.0))
        estimate_variance(fam, f, 20, 8, 1, scheme)
        assert widths == [1, 1, 1]

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_permuted_seeds(self, monkeypatch, e1, scheme):
        seeds = [derive_seed(3, r) for r in range(12)]
        permuted = [seeds[i] for i in np.random.default_rng(1).permutation(12)]
        monkeypatch.setattr(simulate_module, "BLOCK_DRAWS", 5 * 40 * 2)
        cfg = SimulationConfig(steps=40, scheme=scheme)
        blocks = simulate_module._lockstep(e1, cfg, permuted)
        slots = np.concatenate(list(blocks), axis=1)
        for r, seed in enumerate(permuted):
            path = helpers.reference_path(e1, scheme, seed, 40)
            if scheme == "embedded":
                path = extract_embedded_component(path)
            np.testing.assert_array_equal(slots[:, r, 0], path)

    @pytest.mark.parametrize(
        "scheme, point, standard_error",
        [
            ("strat", 2.9105015065562183, 0.29162201341863586),
            ("rand", 2.8348063559987438, 0.2966787838685329),
            ("embedded", 2.7075274811557795, 0.22572127778895174),
        ],
    )
    def test_pinned_e1_estimates(self, e1, e1_f, scheme, point, standard_error):
        est = estimate_variance(e1, e1_f, 4096, 200, 7, scheme)
        assert (est.point, est.standard_error) == (point, standard_error)


def _force(mp, table: bool) -> None:
    """Make _lockstep draw through the count table (True) or the gather."""
    mp.setattr(simulate_module._CountTable, "fits", staticmethod(lambda n, k, draws: table))


def _cumulative(fam):
    return np.cumsum(np.stack(fam.matrices), axis=2).reshape(fam.k * fam.n, fam.n)


def _reference_slots(fam, scheme, seeds, steps):
    """Reference paths in _lockstep's full-width layout (steps, replicas,
    coords): slot s holds coordinate (s + i) mod coords at time i."""
    paths = [helpers.reference_path(fam, scheme, seed, steps) for seed in seeds]
    if scheme != "embedded":
        return np.stack(paths, axis=1)[:, :, None]
    held = (np.arange(fam.k) + np.arange(steps)[:, None]) % fam.k
    return np.stack([np.take_along_axis(p, held, axis=1) for p in paths], axis=1)


class TestDrawRoutes:
    """The count table and the gather draw the reference's bits."""

    @staticmethod
    def _check(fam, steps, seeds):
        # blocks of two one-slot replicas (the last one short), or one
        # block with key groups of two
        layouts = [("BLOCK_DRAWS", 2 * steps), ("KEY_GROUP", 2)]
        for scheme in SCHEMES:
            cfg = SimulationConfig(steps=steps, scheme=scheme)
            expected = _reference_slots(fam, scheme, seeds, steps)
            for table in (False, True):
                for name, value in layouts:
                    with pytest.MonkeyPatch.context() as mp:
                        _force(mp, table)
                        mp.setattr(simulate_module, name, value)
                        for slots in (None, 1):
                            blocks = simulate_module._lockstep(fam, cfg, seeds, slots)
                            got = np.concatenate(list(blocks), axis=1)
                            assert got.dtype == np.int64
                            np.testing.assert_array_equal(
                                got,
                                expected[:, :, : got.shape[2]],
                                err_msg=f"{scheme} table={table} {name} slots={slots}",
                            )

    @given(helpers.families(), st.sampled_from([1, 2, 5, 38]), st.integers(0, 2**64 - 1))
    def test_routes_on_families(self, case, steps, seed):
        # Gibbs kernels repeat cumulative weights, hold-1.0 kernels have
        # identity rows, and k runs from one to five
        fam, _ = case
        self._check(fam, steps, [derive_seed(seed, r) for r in range(5)])

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_routes_on_one_state(self, k):
        fam = make_family([1.0], [np.eye(1)] * k)
        self._check(fam, 9, [derive_seed(4, r) for r in range(5)])

    def test_routes_on_crowded_buckets(self):
        self._check(helpers.crowded_family(), 300, [derive_seed(6, r) for r in range(5)])

    @pytest.mark.parametrize(
        "fam",
        [
            helpers.e1_family(),
            helpers.random_family(np.random.default_rng(3), 9, 3),
            helpers.crowded_family(),
        ],
        ids=["e1", "random", "crowded"],
    )
    def test_search_counts_breakpoints_not_above(self, fam):
        cum = _cumulative(fam)
        table = simulate_module._CountTable(cum)
        b = np.unique(cum[:, :-1])
        edges = np.arange(table.grid) / table.grid  # each guide bucket's lower end
        u = np.concatenate(
            [
                b,
                np.nextafter(b, 0.0),
                [0.0, 1.0 - 2.0**-53],
                edges,
                np.nextafter(edges[1:], 0.0),
                np.random.default_rng(0).random(2000),
            ]
        )
        u = u[(u >= 0.0) & (u < 1.0)]
        g = table.search(u)
        np.testing.assert_array_equal(g, np.searchsorted(b, u, side="right"))
        # each entry of row g is the row's draw at u
        cum[:, -1] = np.inf
        draws = table.counts.reshape(-1, table.width)[g]
        np.testing.assert_array_equal(draws, np.argmax(cum > u[:, None, None], axis=2))

    def test_crowded_family_crowds_the_end_buckets(self):
        table = simulate_module._CountTable(_cumulative(helpers.crowded_family()))
        b = table.breaks[:-1]
        assert np.count_nonzero(b < 1.0 / table.grid) > 20
        assert np.count_nonzero((b >= 1.0 - 1.0 / table.grid) & (b < 1.0)) > 20


class TestRouteChoice:
    def test_route_follows_size(self, monkeypatch):
        built = []

        class Spy(simulate_module._CountTable):
            def __init__(self, cum):
                super().__init__(cum)
                built.append(self.counts.nbytes)

        monkeypatch.setattr(simulate_module, "_CountTable", Spy)
        rng = np.random.default_rng(12)
        # the simulate-k2 size takes the table; a short run and n = 400
        # take the gather
        for n, steps, replicas, table in ((30, 2048, 100, True), (30, 38, 5, False),
                                          (400, 256, 20, False)):
            fam = helpers.random_family(rng, n, 2)
            del built[:]
            estimate_variance(fam, helpers.random_centered(rng, fam), steps, replicas, 1, "strat")
            assert len(built) == table, (n, steps, replicas)
        fits = simulate_module._CountTable.fits
        assert fits(30, 2, 2047 * 100) and not fits(30, 2, 37 * 5)
        assert not fits(400, 2, 2047 * 100) and not fits(400, 2, 2**60)

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_no_table_exceeds_budget(self, k):
        fits = simulate_module._CountTable.fits
        n = 1
        while fits(n + 1, k, 2**60):
            n += 1
        fam = helpers.random_family(np.random.default_rng(k), n, k)
        table = simulate_module._CountTable(_cumulative(fam))
        assert 0 < table.counts.nbytes <= simulate_module.TABLE_BYTES

    # the embedded estimate steps one slot, as strat does
    @pytest.mark.parametrize("scheme", ["strat", "rand"])
    def test_table_adds_at_most_its_bytes(self, scheme):
        rng = np.random.default_rng(13)
        fam = helpers.random_family(rng, 30, 2)
        f = helpers.random_centered(rng, fam)
        # what one table holds, measured after a first build has done the
        # imports numpy makes on first use
        simulate_module._CountTable(_cumulative(fam))
        tracemalloc.start()
        try:
            table = simulate_module._CountTable(_cumulative(fam))
            table_bytes = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert table_bytes >= table.counts.nbytes + table.breaks.nbytes + table.guide.nbytes
        peaks = {}
        for route in (False, True):
            with pytest.MonkeyPatch.context() as mp:
                _force(mp, route)
                tracemalloc.start()
                try:
                    estimate_variance(fam, f, 2048, 100, 3, scheme)
                    peaks[route] = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
        assert peaks[True] <= peaks[False] + table_bytes, peaks
