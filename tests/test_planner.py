import dataclasses
import functools
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, seed, settings
from hypothesis import strategies as st

from clusterhop import channel, planner, precoding, simplex
from clusterhop.errors import (CapExceededError, InfeasibleError,
                               SolverError, ValidationError)
from clusterhop.planner import (IlpInstance, expand_schedule, greedy_plan,
                                lp_relaxation_bound, solve_illumination)
from clusterhop.scenario import aggregate_and_scale_demands, scenario_from_dict
from clusterhop.scenariogen import hex_scenario_dict
from clusterhop.snapshots import build_snapshot_set

from conftest import (WORKLOADS, brute_force_plan, fraction_exact_t,
                      fraction_requirement, fraction_spacing,
                      fraction_tau_column, fraction_thresholds,
                      random_snapshot_supply, seed_1_docs, toy_doc)


def exact_min_ratio(instance, psi):
    """Rational objective value of an integer count vector (integer data)."""
    s = instance.l @ psi
    vals = [
        Fraction(int(round(s[j])), int(round(instance.m[j])))
        for j in range(len(instance.m))
        if instance.m[j] > 0
    ]
    return min(vals) if vals else None


def random_integer_instance(rng, max_cols=6, max_slots=12):
    n_c = int(rng.integers(1, 5))
    n_ss = int(rng.integers(1, max_cols + 1))
    n_slot = int(rng.integers(1, max_slots + 1))
    l = random_snapshot_supply(rng, n_c, n_ss)
    m = rng.integers(0, 9, size=n_c).astype(float)
    return IlpInstance(l=l, m=m, n_slot=n_slot)


def test_identity_supply_equal_demand():
    inst = IlpInstance(l=np.eye(2), m=np.array([2.0, 2.0]), n_slot=4)
    plan = solve_illumination(inst)
    assert plan.psi.tolist() == [2, 2]
    assert plan.t == pytest.approx(1.0)
    assert plan.solver_status == "optimal"


def test_identity_supply_skewed_demand():
    inst = IlpInstance(l=np.eye(2), m=np.array([1.0, 3.0]), n_slot=4)
    plan = solve_illumination(inst)
    assert plan.psi.tolist() == [1, 3]
    assert plan.t == pytest.approx(1.0)


def test_single_snapshot_forced():
    inst = IlpInstance(l=np.array([[2.0], [1.0]]),
                       m=np.array([4.0, 3.0]), n_slot=6)
    plan = solve_illumination(inst)
    assert plan.psi.tolist() == [6]
    assert plan.t == pytest.approx(min(6 * 2 / 4, 6 * 1 / 3))


def test_plan_invariants(ref_instance, ref_plan):
    plan = ref_plan
    assert plan.psi.sum() == ref_instance.n_slot
    assert (plan.psi >= 0).all()
    assert plan.s == pytest.approx(ref_instance.l @ plan.psi)
    demanded = ref_instance.m > 0
    assert (plan.s[demanded] >= plan.t * ref_instance.m[demanded] * (1 - 1e-12)).all()
    counts = np.bincount(plan.schedule, minlength=ref_instance.n_snapshots)
    assert (counts == plan.psi).all()


def test_instance_holds_v_as_its_bool_mask(ref_instance):
    """V is the demanded rows' 0/1 mask of l, as bool, not a wider copy."""
    inst = ref_instance
    assert inst.v.dtype == bool
    assert np.array_equal(inst.v, inst.l[inst.demanded] != 0)


def test_support_product_is_the_int64_product():
    """V psi over psi's support equals the int64 product over all of V,
    for random count vectors, one-entry ones among them."""
    rng = np.random.default_rng(11)
    for _ in range(200):
        n_rows, n_ss = int(rng.integers(1, 8)), int(rng.integers(1, 30))
        v = rng.random((n_rows, n_ss)) < 0.4
        if rng.random() < 0.3:
            psi = np.zeros(n_ss, dtype=int)
            psi[rng.integers(n_ss)] = rng.integers(1, 300)
        else:
            psi = rng.integers(0, 4, size=n_ss) * (rng.random(n_ss) < 0.5)
        got = planner._covered(v, psi)
        assert got.dtype == np.int64
        assert np.array_equal(got, v.astype(np.int64) @ psi)


def _requirement_lps(monkeypatch, instance):
    """Every LP that ``solve_illumination`` solves after the root LP, in
    order: its matrix, right-hand side, lower and upper bounds, and
    pivots."""
    lps = []

    def recorded(cost, rows, rhs, lower, upper, warm=None):
        result = solve_bounded_lp(cost, rows, rhs, lower, upper, warm=warm)
        lps.append((rows.copy(), rhs.copy(), lower.copy(), upper.copy(),
                    result.pivots))
        return result

    solve_bounded_lp = planner.solve_bounded_lp
    with monkeypatch.context() as patched:
        patched.setattr(planner, "solve_bounded_lp", recorded)
        solve_illumination(instance)
    return lps[1:]  # the root LP is the first


def test_requirement_lps_are_the_integer_requirement(monkeypatch,
                                                     ref_instance):
    """After the root LP, every LP of the reference solve has the integer
    rows V (entries -1, 0 and 1) and an integral right-hand side, k and
    n_slot, and scaling every demand changes not one of them, nor their
    pivots."""
    lps = _requirement_lps(monkeypatch, ref_instance)
    assert lps
    for rows, rhs, *_ in lps:
        assert np.isin(rows, (-1.0, 0.0, 1.0)).all()
        assert (rhs == np.round(rhs)).all()
    for factor in (0.37, 0.1, 1e-12):
        scaled = IlpInstance(l=ref_instance.l, m=ref_instance.m * factor,
                             n_slot=ref_instance.n_slot)
        lps_scaled = _requirement_lps(monkeypatch, scaled)
        assert len(lps_scaled) == len(lps), factor
        for lp, lp_scaled in zip(lps, lps_scaled):
            assert lp[4] == lp_scaled[4], factor
            for a, b in zip(lp[:4], lp_scaled[:4]):
                assert a.tobytes() == b.tobytes(), factor


def test_brute_force_matches_exact_fuzz():
    rng = np.random.default_rng(42)
    for _ in range(60):
        inst = random_integer_instance(rng)
        a = solve_illumination(inst)
        b = brute_force_plan(inst)
        if (inst.m > 0).any():
            assert exact_min_ratio(inst, a.psi) == exact_min_ratio(inst, b.psi)
            assert a.psi.tolist() == b.psi.tolist()  # lexicographic tie-break


def snapshot_shaped_instance(rng, max_cols=7, max_slots=9):
    """Supply p_j times a 0/1 V whose distinct columns hold 1 to 3 clusters.
    Cluster 0 is undemanded, so two columns can share their demanded rows,
    and sometimes a demanded cluster is in outage (p_j = 0)."""
    n_c = int(rng.integers(3, 6))
    subsets = [s for r in (1, 2, 3) for s in itertools.combinations(range(n_c), r)]
    n_ss = int(rng.integers(2, max_cols + 1))
    v = np.zeros((n_c, n_ss))
    for col, pick in enumerate(rng.choice(len(subsets), n_ss, replace=False)):
        v[list(subsets[pick]), col] = 1.0
    p = rng.integers(1, 6, size=n_c).astype(float)
    if rng.random() < 0.2:
        p[int(rng.integers(1, n_c))] = 0.0
    m = rng.integers(1, 9, size=n_c).astype(float)
    m[0] = 0.0
    return IlpInstance(l=p[:, None] * v, m=m,
                       n_slot=int(rng.integers(1, max_slots + 1)))


def test_exchange_matches_brute_force_on_snapshot_shapes(monkeypatch):
    lowered = []  # the positions an exchange lowered
    exchange = planner._exchange_down

    def counted(w, i, *args):
        before = int(w[i])
        exchange(w, i, *args)
        if w[i] < before:
            lowered.append(i)

    monkeypatch.setattr(planner, "_exchange_down", counted)
    rng = np.random.default_rng(11)
    for _ in range(200):
        inst = snapshot_shaped_instance(rng)
        a = solve_illumination(inst)
        b = brute_force_plan(inst)
        assert exact_min_ratio(inst, a.psi) == exact_min_ratio(inst, b.psi)
        assert a.psi.tolist() == b.psi.tolist()
    assert lowered


def test_each_exchange_keeps_supply_count_and_prefix():
    # columns {0, 1}, {2, 3}, {0, 2}, {1, 3}: two slots of column 0 and of
    # column 1 move to columns 2 and 3
    v = np.array([[1, 0, 1, 0], [1, 0, 0, 1], [0, 1, 1, 0], [0, 1, 0, 1]])
    w = np.array([2, 3, 0, 0])
    planner._exchange_down(w, 0, *planner._column_masks(v), {})
    assert w.tolist() == [0, 1, 2, 2]

    rng = np.random.default_rng(5)
    moves = 0
    for _ in range(200):
        n_rows, n_ss = int(rng.integers(2, 6)), int(rng.integers(2, 12))
        v = rng.integers(0, 2, size=(n_rows, n_ss))
        masks = planner._column_masks(v)
        w = rng.integers(0, 4, size=n_ss)
        for i in np.flatnonzero(w).tolist():
            before = w.copy()
            planner._exchange_down(w, i, *masks, {})
            assert (v @ w == v @ before).all()
            assert w.sum() == before.sum() and (w >= 0).all()
            assert (w[:i] == before[:i]).all() and w[i] <= before[i]
            moves += int(w[i] < before[i])
    assert moves > 0


def test_pairs_beyond_the_split_limit_are_left_to_the_search(monkeypatch):
    # 7-cluster columns {0..6}, {7..13}, {0..3, 7..9}, {4..6, 10..13}: the
    # first two and the last two are disjoint, so each pair differs in 14
    # rows, above _SPLIT_MAX_ROWS, and no exchange moves their slots
    splits = []
    split = planner._split

    def recording(mask_i, mask_j, i, index, sizes):
        result = split(mask_i, mask_j, i, index, sizes)
        splits.append(((mask_i ^ mask_j).bit_count(), result))
        return result

    monkeypatch.setattr(planner, "_split", recording)
    v = np.zeros((14, 4))
    for col, rows in enumerate([range(7), range(7, 14), [0, 1, 2, 3, 7, 8, 9],
                                [4, 5, 6, 10, 11, 12, 13]]):
        v[list(rows), col] = 1.0
    inst = IlpInstance(l=2.0 * v, m=np.ones(14), n_slot=4)
    plan = solve_illumination(inst)
    assert (14, None) in splits
    assert plan.psi.tolist() == brute_force_plan(inst).psi.tolist() == [0, 0, 2, 2]


def test_split_finds_a_pair_whenever_one_exists():
    # Brute force: each column-pair sum V_c + V_d (c = d allowed) maps to
    # its largest min(c, d), so pair (i, j) has a split above i exactly
    # when its sum maps above i.
    rng = np.random.default_rng(5)
    n_pairs = n_split = 0
    for _ in range(300):
        n_rows, n_ss = int(rng.integers(2, 9)), int(rng.integers(3, 21))
        v = np.zeros((n_rows, n_ss), dtype=np.int64)
        for col in range(n_ss):
            if col and rng.random() < 0.3:  # repeat an earlier column
                v[:, col] = v[:, int(rng.integers(col))]
            else:  # a new column of random size
                v[:, col] = rng.random(n_rows) < rng.random()
        sums = {}
        for c, d in itertools.combinations_with_replacement(range(n_ss), 2):
            key = tuple(v[:, c] + v[:, d])
            sums[key] = max(sums.get(key, -1), c)
        masks, index, sizes = planner._column_masks(v)
        for i, j in itertools.combinations(range(n_ss), 2):
            target = v[:, i] + v[:, j]
            found = planner._split(masks[i], masks[j], i, index, sizes)
            assert (found is None) == (sums[tuple(target)] <= i), (v, i, j)
            if found is not None:
                c, d = found
                assert c > i and d > i
                assert (v[:, c] + v[:, d] == target).all()
                n_split += 1
            n_pairs += 1
    assert n_split > 0 and n_pairs > n_split


def _subset_walk_split(mask_i, mask_j, i, index):
    """The per-subset form ``_split`` replaced, kept as the reference: it
    looks up every split of the differing rows, c taking the lowest, in
    increasing order of c's mask, and returns the first with c, d > i."""
    shared, diff = mask_i & mask_j, mask_i ^ mask_j
    if diff.bit_count() > planner._SPLIT_MAX_ROWS:
        return None
    low = diff & -diff
    rest = diff ^ low
    sub = 0
    while True:
        part = low | sub
        c = index.get(shared | part, -1)
        d = index.get(shared | (diff ^ part), -1)
        if c > i and d > i:
            return c, d
        if sub == rest:
            return None
        sub = (sub - rest) & rest


def _numpy_scalar_exchange(w, i, masks, index, splits):
    """The exchange ``_exchange_down`` replaced, kept as the reference: the
    same moves, read and written as numpy scalars of ``w``."""
    moved = True
    while w[i] and moved:
        moved = False
        for j in (np.flatnonzero(w[i + 1:]) + i + 1).tolist():
            if j not in splits:
                splits[j] = _subset_walk_split(masks[i], masks[j], i, index)
            q = min(w[i], w[j])
            if splits[j] is None or q == 0:
                continue
            c, d = splits[j]
            w[i] -= q
            w[j] -= q
            w[c] += q
            w[d] += q
            moved = True
            if w[i] == 0:
                break


def _random_columns(rng, max_rows, max_cols):
    """A 0/1 V with repeated columns: half the time every column has the
    same number of rows, half the time random sizes."""
    n_rows = int(rng.integers(2, max_rows + 1))
    n_ss = int(rng.integers(3, max_cols + 1))
    size = int(rng.integers(1, n_rows + 1)) if rng.random() < 0.5 else None
    v = np.zeros((n_rows, n_ss), dtype=np.int64)
    for col in range(n_ss):
        if col and rng.random() < 0.3:  # repeat an earlier column
            v[:, col] = v[:, int(rng.integers(col))]
        elif size is not None:
            v[rng.choice(n_rows, size, replace=False), col] = 1
        else:
            v[:, col] = rng.random(n_rows) < rng.random()
    return v


def test_split_matches_the_subset_walk():
    rng = np.random.default_rng(17)
    n_found = n_calls = n_mixed = 0
    for _ in range(150):
        v = _random_columns(rng, 14, 24)
        masks, index, sizes = planner._column_masks(v)
        assert sizes == sum(1 << int(n) for n in set(v.sum(axis=0).tolist()))
        n_mixed += sizes.bit_count() > 1
        for i, j in itertools.combinations(range(v.shape[1]), 2):
            want = _subset_walk_split(masks[i], masks[j], i, index)
            assert planner._split(masks[i], masks[j], i, index, sizes) == want
            n_found += want is not None
            n_calls += 1
    assert 0 < n_found < n_calls and 0 < n_mixed < 150


def test_exchange_matches_the_numpy_scalar_moves():
    rng = np.random.default_rng(23)
    moves = 0
    for _ in range(200):
        v = _random_columns(rng, 8, 20)
        masks, index, sizes = planner._column_masks(v)
        w = rng.integers(0, 4, size=v.shape[1])
        for i in np.flatnonzero(w).tolist():
            before = int(w[i])
            want, want_splits = w.copy(), {}
            _numpy_scalar_exchange(want, i, masks, index, want_splits)
            got_splits = {}
            planner._exchange_down(w, i, masks, index, sizes, got_splits)
            assert w.tolist() == want.tolist()
            assert got_splits == want_splits
            moves += int(w[i] < before)
    assert moves > 0


@pytest.mark.parametrize("supply", [1e-309, 1e-312])
def test_subnormal_supplies_plan_the_brute_force_window(supply):
    """Subnormal supplies plan as any other scale does: every LP reads the
    0/1 rows and the exact spacings, and the requirement counts are
    small."""
    v = np.array([[1.0, 0, 1, 0], [0, 1, 1, 0], [0, 0, 0, 1]])
    inst = IlpInstance(l=supply * v, m=np.array([1.0, 2.0, 1.0]), n_slot=7)
    plan = solve_illumination(inst)
    assert plan.psi.tolist() == brute_force_plan(inst).psi.tolist() == [
        0, 0, 4, 3]


_positive_fractions = st.fractions(min_value=Fraction(1, 10**30),
                                   max_value=10**30, max_denominator=10**30)


@given(st.lists(_positive_fractions, min_size=1, max_size=5),
       st.integers(1, planner.N_SLOT_CAP),
       st.fractions(min_value=0, max_value=1, max_denominator=10**30))
@example([Fraction(3, 7), Fraction(1, 10**30)], planner.N_SLOT_CAP,
         Fraction(1))
@example([Fraction(3, 7), Fraction(5, 2)], 7, Fraction(5, 14))
@settings(max_examples=300, deadline=None)
def test_integer_requirement_is_the_fraction_ceiling(spacing, n_slot, share):
    """k_j = ceil(g / spacing_j), as Fractions compute it, from the
    spacings and a threshold as integers in one unit, on the walk's
    thresholds 0 <= g <= n_slot * min(spacing), where every k_j is at most
    n_slot; the right-hand side ends with n_slot."""
    unit = math.lcm(*(c.denominator for c in spacing))
    w = [int(c * unit) for c in spacing]
    g = math.floor(share * n_slot * min(spacing) * unit)
    expected = [math.ceil(Fraction(g, unit) / c) for c in spacing]
    rhs = planner._requirement(w, g, n_slot)
    assert rhs.dtype == float and rhs.tolist() == expected + [n_slot]
    assert max(expected) <= n_slot


_magnitudes = st.one_of(
    st.builds(lambda mantissa, exponent: mantissa * 10.0 ** exponent,
              st.floats(1.0, 10.0, exclude_max=True), st.integers(-300, 299)),
    st.sampled_from([5e-324, 1e-320, 2.5e-310, 2.2250738585072009e-308]))


@given(st.lists(st.tuples(_magnitudes, _magnitudes, st.booleans()),
                min_size=1, max_size=4),
       st.integers(1, 12), st.randoms(use_true_random=False))
@seed(34)
@settings(max_examples=150, deadline=None)
def test_integer_spacings_walk_as_fractions_do(rows, n_slot, rnd):
    """The planner's spacings, integers in one unit, give what Fractions
    give: the spacings themselves, the threshold sequence of the walk's
    whole range, each threshold's requirement, the order of exact
    objectives, the tau column's bits and the LP bound's float. Supplies
    and demands span 1e-300 to 1e300, subnormal supplies among them, and a
    cluster in outage (no supply) has p_j = 1."""
    p = [1.0 if out else pj for pj, _, out in rows]
    m = [mj for _, mj, _ in rows]
    assume(all(math.isfinite(n_slot * pj / mj) for pj, mj in zip(p, m)))
    n_ss = 4
    v = np.array([[rnd.random() < 0.6 for _ in range(n_ss)] for _ in rows])
    v[:, -1] = True  # the witness column lights every cluster
    l = np.where(v, np.array([[0.0 if out else pj] for pj, _, out in rows]),
                 0.0)
    inst = IlpInstance(l=l, m=np.array(m), n_slot=n_slot)
    spacing = fraction_spacing(p, m)
    unit = inst.unit
    assert [Fraction(w, unit) for w in inst.spacing] == spacing

    expected = fraction_thresholds(spacing, Fraction(0),
                                   n_slot * min(spacing))
    got = list(planner._thresholds(inst.spacing, 0,
                                   n_slot * min(inst.spacing)))
    assert [Fraction(g, unit) for g in got] == expected
    for g, g_frac in zip(got, expected):
        assert (planner._requirement(inst.spacing, g, n_slot)[:-1].tolist()
                == fraction_requirement(spacing, g_frac))

    counts = [np.array([rnd.randrange(n_slot + 1) for _ in range(n_ss)])
              for _ in range(6)]
    exact = [planner._exact_t(inst.v, inst.spacing, psi) for psi in counts]
    reference = [fraction_exact_t(inst.v, spacing, psi) for psi in counts]
    assert [Fraction(t, unit) for t in exact] == reference

    rows_lp = planner._requirement_rows(inst.v, inst.spacing)
    assert (rows_lp[:-1, -1].tobytes()
            == np.array(fraction_tau_column(spacing)).tobytes())
    tau = planner._root_lp(rows_lp, inst.spacing, n_slot) / min(inst.spacing)
    assert lp_relaxation_bound(inst) == float(tau * min(spacing))


def test_brute_force_respects_cap():
    inst = IlpInstance(l=np.ones((1, 30)), m=np.array([1.0]), n_slot=100)
    with pytest.raises(CapExceededError):
        brute_force_plan(inst, cap=1000)


def test_brute_force_single_slot():
    l = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 0.0]])
    inst = IlpInstance(l=l, m=np.array([1.0, 1.0, 0.0]), n_slot=1)
    plan = brute_force_plan(inst)
    # both columns reach min ratio 1 (they differ only on the undemanded
    # cluster); (0,1) precedes (1,0) lexicographically
    assert plan.psi.tolist() == [0, 1]
    assert plan.t == pytest.approx(1.0)


def test_column_permutation_keeps_objective():
    rng = np.random.default_rng(3)
    inst = random_integer_instance(rng)
    perm = rng.permutation(inst.n_snapshots)
    inst_p = IlpInstance(l=inst.l[:, perm], m=inst.m, n_slot=inst.n_slot)
    t_a = brute_force_plan(inst).t
    t_b = brute_force_plan(inst_p).t
    assert t_a == pytest.approx(t_b)


def test_greedy_concentrates_on_dominant():
    l = np.array([[3.0, 0.0], [3.0, 3.0]])
    inst = IlpInstance(l=l, m=np.array([2.0, 2.0]), n_slot=5)
    plan = greedy_plan(inst)
    assert plan.psi.tolist() == [5, 0]
    assert plan.solver_status == "heuristic"


def test_greedy_matches_optimum_on_identity():
    inst = IlpInstance(l=np.eye(2), m=np.array([2.0, 2.0]), n_slot=4)
    assert greedy_plan(inst).t == pytest.approx(1.0)


def test_sandwich_lp_ilp_greedy():
    rng = np.random.default_rng(7)
    for _ in range(40):
        inst = random_integer_instance(rng)
        if not (inst.m > 0).any():
            continue
        t_lp = lp_relaxation_bound(inst)
        t_ilp = solve_illumination(inst).t
        t_greedy = greedy_plan(inst).t
        assert t_greedy <= t_ilp + 1e-9
        assert t_ilp <= t_lp + 1e-9


def _instance_of(doc):
    """The planner's instance for a scenario document, as the CLI builds
    it."""
    scen = scenario_from_dict(doc)
    caps = precoding.cluster_capacities(
        scen, channel.build_all_cluster_channels(scen),
        precoding.load_dvbs2_table())
    snaps = build_snapshot_set(scen.adjacency, scen.system.n_p,
                               caps.p_cluster_bits)
    _, m = aggregate_and_scale_demands(scen)
    return IlpInstance(l=snaps.l, m=m, n_slot=scen.system.n_slot)


@pytest.mark.parametrize("docs", [
    lambda: [toy_doc()], lambda: [hex_scenario_dict()],
    lambda: [hex_scenario_dict(120, 20, system={"N_P": 4})],
    *(functools.partial(seed_1_docs, name) for name in WORKLOADS)],
    ids=["toy", "ref_71beam", "120_20_4", *WORKLOADS])
def test_greedy_reaches_the_exact_t(docs):
    """Greedy is the exact walk without the refinement: on every scenario
    its t is the exact optimum's, compared as exact rationals."""
    for doc in docs():
        inst = _instance_of(doc)
        heuristic, exact = greedy_plan(inst), solve_illumination(inst)
        assert heuristic.solver_status == "heuristic"
        assert (planner._exact_t(inst.v, inst.spacing, heuristic.psi)
                == planner._exact_t(inst.v, inst.spacing, exact.psi))


def test_greedy_reaches_the_exact_t_below_a_low_root_bound(monkeypatch,
                                                           ref_instance):
    """A root LP bound that round-off left just below the optimum t* does
    not stop greedy below t*: its walk starts at the widened bound, as the
    exact one does, whose plan does not change."""
    inst, exact = ref_instance, solve_illumination(ref_instance)
    t_star = planner._exact_t(inst.v, inst.spacing, exact.psi)
    monkeypatch.setattr(planner, "_root_lp",
                        lambda *args: t_star * (1 - Fraction(1, 10**9)))
    heuristic = greedy_plan(inst)
    assert planner._exact_t(inst.v, inst.spacing, heuristic.psi) == t_star
    assert solve_illumination(inst).psi.tolist() == exact.psi.tolist()


def _raised_at_upper_bound(monkeypatch, margin):
    """Patch the planner's LPs: in every feasible requirement LP's point,
    the first count at its upper bound lies ``margin`` above it."""
    def raised(c, a, b, lower, upper, warm=None):
        res = simplex.solve_bounded_lp(c, a, b, lower, upper, warm=warm)
        if c is None and res.x is not None:
            n_ss = a.shape[1] - a.shape[0] + 1
            at_upper = np.flatnonzero(res.x[:n_ss] == upper[:n_ss])
            if at_upper.size:
                x = res.x.copy()
                x[at_upper[0]] += margin
                res = dataclasses.replace(res, x=x)
        return res

    monkeypatch.setattr(planner, "solve_bounded_lp", raised)


def test_lp_point_within_the_simplex_tolerance_is_read_in_its_box(
        monkeypatch):
    """At N_slot 256 the simplex accepts basic values up to 2.56e-7
    outside their bounds, more than the integer test's 1e-7. A count
    2e-7 above its upper bound is read at the bound, and the search finds
    the brute-force point (it used to branch on that count and fail);
    3e-7 above, beyond the simplex's tolerance, is a SolverError."""
    inst = IlpInstance(l=np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]]),
                       m=np.array([3.0, 1.0]), n_slot=256)
    assert simplex.feasibility_tolerance([256.0]) == pytest.approx(2.56e-7)
    _raised_at_upper_bound(monkeypatch, 2e-7)
    assert (solve_illumination(inst).psi.tolist()
            == brute_force_plan(inst).psi.tolist() == [0, 256, 0])
    _raised_at_upper_bound(monkeypatch, 3e-7)
    with pytest.raises(SolverError, match="outside its node's box"):
        solve_illumination(inst)


def test_walk_is_capped_at_n_slot_times_the_smallest_spacing(monkeypatch):
    """A root LP bound far above every plan changes no plan: the walk
    starts at n_slot * s_min, where every requirement count is at most
    n_slot, and the exact plan is still the brute-force one."""
    monkeypatch.setattr(planner, "_root_lp", lambda *args: Fraction(10**30))
    rng = np.random.default_rng(11)
    for _ in range(60):
        inst = random_integer_instance(rng)
        assert (solve_illumination(inst).psi.tolist()
                == brute_force_plan(inst).psi.tolist())


def test_lp_bound_scales_with_the_demands():
    """The root LP reads the 0/1 rows and the spacings' ratios, not their
    scale: every demand times f divides the bound by f, for f from 1e-12
    to 1e12 (the LP's bound was 0.0 from f = 1e9 while it read l / m)."""
    inst = _instance_of(hex_scenario_dict())
    bound = lp_relaxation_bound(inst)
    assert bound > 0
    for f in 10.0 ** np.arange(-12, 13):
        scaled = IlpInstance(l=inst.l, m=f * inst.m, n_slot=inst.n_slot)
        assert lp_relaxation_bound(scaled) * f == pytest.approx(bound,
                                                                rel=1e-12)


def test_demand_scaling_inverts_objective():
    rng = np.random.default_rng(5)
    for _ in range(10):
        inst = random_integer_instance(rng)
        if not (inst.m > 0).any():
            continue
        plan = solve_illumination(inst)
        scaled = IlpInstance(l=inst.l, m=2.0 * inst.m, n_slot=inst.n_slot)
        plan2 = solve_illumination(scaled)
        assert plan2.t == pytest.approx(plan.t / 2.0)
        assert plan2.psi.tolist() == plan.psi.tolist()


def test_ordered_sequences_equal_count_vectors():
    rng = np.random.default_rng(9)
    for _ in range(12):
        n_c = int(rng.integers(1, 4))
        n_ss = int(rng.integers(1, 5))
        n_slot = int(rng.integers(1, 7))
        l = random_snapshot_supply(rng, n_c, n_ss)
        m = rng.integers(1, 7, size=n_c).astype(float)
        inst = IlpInstance(l=l, m=m, n_slot=n_slot)
        best = None
        for seq in itertools.product(range(n_ss), repeat=n_slot):
            s = l[:, list(seq)].sum(axis=1)
            t = min(Fraction(int(s[j]), int(m[j])) for j in range(n_c))
            best = t if best is None or t > best else best
        ilp = solve_illumination(inst)
        assert exact_min_ratio(inst, ilp.psi) == best


def test_zero_demand_cluster_excluded():
    l = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    m = np.array([2.0, 2.0, 0.0])
    plan = solve_illumination(IlpInstance(l=l, m=m, n_slot=4))
    assert plan.psi.tolist() == [2, 2]
    # undemanded cluster still accumulates supply
    assert plan.s[2] == pytest.approx(4.0)


def test_all_zero_demand_sentinel():
    inst = IlpInstance(l=np.eye(3), m=np.zeros(3), n_slot=7)
    for plan in (solve_illumination(inst), brute_force_plan(inst)):
        assert plan.t == np.inf
        assert plan.solver_status == "heuristic"
        assert plan.psi.sum() == 7
        assert plan.psi.tolist() == [3, 2, 2]


def test_all_zero_demand_greedy_and_lp_bound():
    inst = IlpInstance(l=np.eye(3), m=np.zeros(3), n_slot=7)
    plan = greedy_plan(inst)
    assert plan.t == np.inf
    assert plan.solver_status == "heuristic"
    assert plan.psi.tolist() == [3, 2, 2]
    assert lp_relaxation_bound(inst) == np.inf


def test_no_snapshots_is_infeasible():
    inst = IlpInstance(l=np.zeros((2, 0)), m=np.array([1.0, 1.0]), n_slot=4)
    with pytest.raises(InfeasibleError):
        solve_illumination(inst)
    with pytest.raises(InfeasibleError):
        greedy_plan(inst)
    with pytest.raises(InfeasibleError):
        brute_force_plan(inst)
    with pytest.raises(InfeasibleError):
        lp_relaxation_bound(inst)


def test_demanded_zero_supply_row_gives_zero_t():
    # cluster 1 is in outage: it is demanded but no snapshot serves it
    l = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
    inst = IlpInstance(l=l, m=np.array([2.0, 3.0]), n_slot=5)
    plan = solve_illumination(inst)
    assert plan.t == 0
    assert plan.psi.tolist() == [0, 0, 5]
    assert plan.solver_status == "optimal"
    assert plan.psi.tolist() == brute_force_plan(inst).psi.tolist()


def test_non_snapshot_row_is_rejected():
    # each row is compared exactly with its own maximum; the error names the
    # first cluster whose row is not one value times a 0/1 row
    for row in ([0.5, 0.7], [1.0, 1.0 + 1e-12]):
        with pytest.raises(ValidationError, match="cluster 0 "):
            IlpInstance(l=np.array([row]), m=np.array([1.0]), n_slot=3)
        with pytest.raises(ValidationError, match="cluster 1 "):
            IlpInstance(l=np.array([[2.0, 0.0], row, row]), m=np.ones(3),
                        n_slot=3)


def test_n_slot_cap_bounds_every_solver(monkeypatch):
    monkeypatch.setattr(planner, "N_SLOT_CAP", 5)
    inst = IlpInstance(l=np.eye(2), m=np.array([2.0, 3.0]), n_slot=5)
    for plan in (solve_illumination(inst), greedy_plan(inst),
                 brute_force_plan(inst)):
        assert plan.psi.tolist() == [2, 3]
    with pytest.raises(CapExceededError, match="N_slot=6 "):
        IlpInstance(l=np.eye(2), m=np.array([2.0, 3.0]), n_slot=6)


def _fraction_optimum(l, m, n_slot):
    """Lexicographically smallest count vector with the largest exact
    min_j (l_j psi) / m_j over demanded rows, by enumerating every count
    vector in lexicographic order in rational arithmetic."""
    rows = [([Fraction(x) for x in l[j]], Fraction(m[j]))
            for j in range(len(m)) if m[j] > 0]

    def compositions(total, parts):
        if parts == 1:
            yield (total,)
            return
        for first in range(total + 1):
            for rest in compositions(total - first, parts - 1):
                yield (first,) + rest

    best_t, best_psi = None, None
    for psi in compositions(n_slot, l.shape[1]):
        t = min(sum(x * n for x, n in zip(row, psi)) / mj for row, mj in rows)
        if best_t is None or t > best_t:
            best_t, best_psi = t, list(psi)
    return best_psi


def test_near_tie_demands_pinned():
    # psi = [0, 3, 3, 0] reaches t = 5.9999999994 and [0, 4, 2, 0] reaches
    # 5.99999999982: the thresholds differ by 4e-10, relative 7e-11
    v = np.array([[0, 1, 1, 0], [0, 1, 0, 1]])
    l = np.array([[3.0], [2.0]]) * v
    m = np.array([3.00000000009, 1.0000000001])
    plan = solve_illumination(IlpInstance(l=l, m=m, n_slot=6))
    assert plan.psi.tolist() == [0, 4, 2, 0]
    assert _fraction_optimum(l, m, 6) == [0, 4, 2, 0]


def test_near_tie_demands_match_fraction_oracle():
    # snapshot-shaped supplies (p_j on a 0/1 pattern) with demands a few
    # 1e-11 off integers, so distinct thresholds lie within 1e-10 of each
    # other; the planner must agree with exact rational enumeration
    rng = np.random.default_rng(2024)
    scales = [1 - 1e-10, 1 - 3e-11, 1 + 3e-11, 1 + 1e-10]
    for _ in range(400):
        n_c = int(rng.integers(2, 4))
        n_ss = int(rng.integers(1, 5))
        n_slot = int(rng.integers(1, 7))
        p = rng.integers(1, 5, size=n_c).astype(float)
        l = p[:, None] * rng.integers(0, 2, size=(n_c, n_ss))
        m = rng.integers(1, 9, size=n_c) * rng.choice(scales, size=n_c)
        inst = IlpInstance(l=l, m=m, n_slot=n_slot)
        assert solve_illumination(inst).psi.tolist() == \
            _fraction_optimum(l, m, n_slot), (l.tolist(), m.tolist(), n_slot)


@pytest.mark.parametrize("l, m", [([[1.0, np.inf]], [1.0]),
                                  ([[1.0, 2.0]], [np.inf])])
def test_non_finite_instance_is_rejected(l, m):
    with pytest.raises(ValidationError, match="finite"):
        IlpInstance(l=np.array(l), m=np.array(m), n_slot=2)


def test_expand_even_interleave():
    assert expand_schedule(np.array([2, 2])).tolist() == [0, 1, 0, 1]


def test_expand_single_snapshot():
    assert expand_schedule(np.array([4, 0])).tolist() == [0, 0, 0, 0]


def test_expand_three_one_gap():
    sched = expand_schedule(np.array([3, 1])).tolist()
    positions = [i for i, s in enumerate(sched) if s == 0]
    gaps = np.diff(positions)
    assert sched.count(0) == 3 and sched.count(1) == 1
    assert gaps.max() <= 2


@given(st.lists(st.integers(min_value=0, max_value=8), min_size=1, max_size=6))
@settings(max_examples=80, deadline=None)
def test_expand_multiset_matches_counts(psi):
    psi = np.array(psi, dtype=int)
    sched = expand_schedule(psi)
    counts = np.bincount(sched, minlength=len(psi)) if sched.size else \
        np.zeros(len(psi), dtype=int)
    assert (counts == psi).all()


def _expand_schedule_dense(psi):
    """Reference largest-deficit expansion over every snapshot, one numpy
    vector of exact integer deficits psi * (n + 1) - placed * n_slot per
    slot; argmax takes the lowest index on a tie."""
    n_slot = int(psi.sum())
    placed = np.zeros(len(psi), dtype=np.int64)
    schedule = np.empty(n_slot, dtype=int)
    for n in range(n_slot):
        deficit = psi * (n + 1) - placed * n_slot
        pick = int(np.argmax(deficit))
        schedule[n] = pick
        placed[pick] += 1
    return schedule


def test_expand_breaks_exact_ties_to_the_lowest_index():
    # slot 3 ties snapshots 1 and 2 at deficit 2/3, which no double holds
    psi = np.array([1, 4, 1])
    assert expand_schedule(psi).tolist() == [1, 0, 1, 1, 2, 1]
    assert _expand_schedule_dense(psi).tolist() == [1, 0, 1, 1, 2, 1]


@given(st.lists(st.integers(min_value=0, max_value=400), min_size=1,
                max_size=20))
@settings(max_examples=60, deadline=None)
def test_expand_matches_dense_reference(psi):
    psi = np.array(psi, dtype=int)
    assert np.array_equal(expand_schedule(psi), _expand_schedule_dense(psi))


def test_expand_matches_dense_reference_long_window():
    psi = np.array([0, 700, 0, 0, 1, 333, 2048, 0, 13, 1001], dtype=int)
    assert np.array_equal(expand_schedule(psi), _expand_schedule_dense(psi))


def test_expand_spacing_dominant_snapshot(ref_plan):
    sched = ref_plan.schedule
    psi = ref_plan.psi
    for i in np.flatnonzero(psi):
        positions = np.flatnonzero(sched == i)
        if len(positions) > 1:
            max_gap = int(np.diff(positions).max())
            assert max_gap <= 2 * int(np.ceil(len(sched) / psi[i]))
