"""Domain model: validation, ground set, JSON round trip."""

import ast
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dcopt
from dcopt import (
    Association,
    ClusterProblem,
    PfClusterProblem,
    allocate_cluster,
    compute_user_rates,
    instance_errors,
    instance_from_json,
    instance_to_json,
    make_instance,
    pf_bisection,
)
from dcopt.net_model import AllocationFractions, build_ground_set
from dcopt.scenario import DeploymentConfig, generate

from conftest import assoc_instance, association_errors, rate, single_macro_instance, weight


def tiny(rate_min=0.0, rate_ub=1.0):
    return make_instance(
        [(5, 1.0, rate_min, math.inf)],
        [(0, [1])],
        [(5, 0, 1.0), (5, 1, rate_ub)],
    )


def test_minimal_instance_is_valid():
    assert instance_errors(tiny()) == []


def test_zero_rate_reported():
    # a zero (omitted) peak rate means "no link"; negative and non-finite
    # rates are reported
    inst = make_instance([(5, 1.0, 0.0, math.inf)], [(0, [1])], [(5, 0, 1.0)])
    assert instance_errors(inst) == []
    for bad in (-1.0, math.nan, math.inf):
        inst = make_instance([(5, 1.0, 0.0, math.inf)], [(0, [1])],
                             [(5, 0, 1.0), (5, 1, bad)])
        msgs = instance_errors(inst)
        assert msgs == ["user 5, tp 1: peak rate must be non-negative and finite"]


@pytest.mark.parametrize("solve", [
    lambda inst: allocate_cluster(ClusterProblem.build(inst, 0, {10: [1, 2]})),
    lambda inst: pf_bisection(PfClusterProblem.build(inst, 0, {10: [1, 2]})),
    lambda inst: pf_bisection(PfClusterProblem.build(inst, 0, {10: [2]},
                                                     macro_only=[1])),
], ids=["wsr", "pf-pico", "pf-macro-only"])
def test_cluster_builds_reject_nan_peak_rate(solve):
    # NaN compares false both ways, so a "<= 0" check would let it through
    inst = make_instance(
        [(1, 1.0, 0.0, math.inf), (2, 1.0, 0.0, math.inf)],
        [(0, [10])],
        [(1, 0, math.nan), (1, 10, 2.0), (2, 0, 1.0), (2, 10, 3.0)],
    )
    with pytest.raises(ValueError, match="user 1 needs positive peak rates"):
        solve(inst)


@pytest.mark.parametrize("kind, build", [
    ("wsr", lambda inst, m, groups, solo: ClusterProblem.build(inst, m, groups)),
    ("pf", lambda inst, m, groups, solo: PfClusterProblem.build(inst, m, groups,
                                                                macro_only=solo)),
], ids=["wsr", "pf"])
@pytest.mark.parametrize("macro, groups, solo, message", [
    (7, {10: [1]}, [], "unknown macro 7"),
    (0, {10: [1], 20: [2]}, [], "pico 20 not under macro 0"),
    (0, {10: [1], 11: [1]}, [], "user 1 attached to two picos"),
    # PF takes a pico user without a macro link; WSR's ratio key divides by r_m
    (0, {10: [1, 3]}, [], {"wsr": "user 3 needs positive peak rates", "pf": None}),
    (0, {10: [1, 2]}, [], "user 2 needs positive peak rates"),
], ids=["unknown-macro", "foreign-pico", "two-picos", "zero-macro-rate",
        "negative-pico-rate"])
def test_cluster_builds_share_error_texts(kind, build, macro, groups, solo, message):
    inst = make_instance(
        [(u, 1.0, 0.0, math.inf) for u in (1, 2, 3)],
        [(0, [10, 11]), (1, [20])],
        [(1, 0, 1.0), (1, 10, 2.0), (1, 11, 2.0), (2, 0, 1.0), (2, 10, -1.0),
         (3, 10, 2.0)],
    )
    if isinstance(message, dict):
        message = message[kind]
    if message is None:   # user 3 heads the ladder at ratio 0
        cl = build(inst, macro, groups, solo)
        assert cl.pico_users == {10: (3, 1)} and cl.ladders == {10: (0.0, 0.5)}
        return
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build(inst, macro, groups, solo)


@pytest.mark.parametrize("build", [ClusterProblem.build, PfClusterProblem.build],
                         ids=["wsr", "pf"])
def test_cluster_builds_skip_empty_picos(build):
    # an empty pico is no pico of the cluster, so it is not checked either
    inst = make_instance([(1, 1.0, 0.0, math.inf)], [(0, [10]), (1, [20])],
                         [(1, 0, 1.0), (1, 10, 2.0)])
    assert build(inst, 0, {10: [1], 11: [], 20: []}).pico_users == {10: (1,)}


@pytest.mark.parametrize("solo, message", [
    ([1], "user 1 attached to two picos"),
    ([3], "user 3 needs positive peak rates"),
])
def test_pf_build_checks_macro_only_users(solo, message):
    inst = make_instance(
        [(u, 1.0, 0.0, math.inf) for u in (1, 2, 3)],
        [(0, [10])],
        [(1, 0, 1.0), (1, 10, 2.0), (2, 0, 1.0), (3, 10, 2.0)],
    )
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        PfClusterProblem.build(inst, 0, {10: [1]}, macro_only=solo)


def test_src_reads_instances_by_index():
    # the id-keyed reads (rmin and rmax, and the tests' rate and weight
    # helpers) are for callers; inside the library every read goes through
    # array rows (inst.rates and friends)
    calls = []
    for path in sorted(Path(dcopt.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        calls += [
            f"{path.name}:{node.lineno}" for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in {"rate", "weight", "rmin", "rmax"}
        ]
    assert calls == []


def test_public_names_are_used():
    # every public function or class of the package is reached from its
    # module-level code, a private helper or another reached name, or named
    # by perfbench or a README code example; test-only code lives in tests/
    src = Path(dcopt.__file__).parent
    root = src.parents[1]
    public, refs = set(), {}
    for path in sorted(src.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = getattr(node, "name", None)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and owner[0] != "_":
                public.add(owner)
            refs.setdefault(owner, set()).update(
                n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                if isinstance(n, (ast.Name, ast.Attribute)))
    readme = (root / "README.md").read_text(encoding="utf-8")
    outside = re.findall(r"```.*?```", readme, re.S) + [
        p.read_text(encoding="utf-8") for p in (root / "perfbench").glob("*.py")]
    live = public & set(re.findall(r"\w+", " ".join(outside)))
    while True:
        reached = public & set().union(*(
            names for owner, names in refs.items() if owner not in public or owner in live))
        if reached <= live:
            break
        live |= reached
    assert sorted(public - live) == []


@pytest.mark.parametrize("weight, peaks, total", [
    (1e300, [(1, 0, 1.0), (1, 10, 1.0), (2, 0, 1e9), (2, 10, 2e10)], "inf"),
    # each w x r is finite (up to 1.7e308), but a cluster value sums them
    (1e298, [(1, 0, 1.0), (1, 10, 1.0), (2, 0, 1.7e10), (2, 10, 1.7e10)], "inf"),
    (1e290, [(1, 0, 1.0), (1, 10, 1.0), (2, 0, 4e10), (2, 10, 7e10)], "1.1e+301"),
    (1e289, [(1, 0, 1.0), (1, 10, 1.0), (2, 0, 4e10), (2, 10, 5e10)], None),
], ids=["product-overflows", "sum-overflows", "sum-above-limit", "sum-below-limit"])
def test_weighted_peak_rates_must_stay_finite(weight, peaks, total):
    # user 2 has the largest weighted rate and is named
    inst = make_instance([(u, weight, 0.0, math.inf) for u in (1, 2)], [(0, [10])], peaks)
    assert instance_errors(inst) == ([] if total is None else [
        f"weight x peak rate summed over all links is {total}, above 1e+300 "
        "(user 2 has the largest)"])


def test_bad_user_rows_reported():
    inst = make_instance(
        [(5, 0.0, 2.0, 1.0)], [(0, [1])], [(5, 0, 1.0), (5, 1, 1.0)]
    )
    msgs = "\n".join(instance_errors(inst))
    assert "weight" in msgs and "rate_min exceeds rate_max" in msgs


def test_duplicate_ids_rejected():
    # each message names the repeated id and where it repeats
    user = [(5, 1, 0, 1)]
    for users, macros, peaks, message in [
        (user * 2, [(0, [1])], [], "user id 5 listed twice"),
        (user, [(0, [10, 10])], [], "pico 10 listed twice under macro 0"),
        (user, [(0, [1]), (2, [1])], [], "pico 1 listed under macros 0 and 2"),
        (user, [(0, [1]), (0, [2])], [], "tp id 0 used twice"),
        (user, [(0, [0])], [], "tp id 0 used twice"),   # one id as macro and pico
        (user, [(0, [1])], [(5, 99, 1.0)], "peak rate refers to unknown id (5, 99)"),
    ]:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            make_instance(users, macros, peaks)


@pytest.mark.parametrize("peaks, message", [
    ([(5, 0, 1.0), (6, 1, 1.0), (5, 99, 1.0)], "peak rate refers to unknown id (6, 1)"),
    ([(5, 0, 1.0), (2**70, 1, 1.0)], f"peak rate refers to unknown id ({2**70}, 1)"),
    ([(5, 1, 1.0), (5, 0, 1.0), (5, 1, 2.0)], "peak rate for (5, 1) listed twice"),
    ([(5, 0, 1.0), (5.0, 1, 1.0)], "peak-rate user id 5.0 is not an integer"),
    ([(5, 0, 1.0), (5, 1)], "each peak rate must be a [user, tp, rate] triple"),
    ([(5, 0, 1.0), (5, 1, 10**400)], "peak rate for (5, 1) is too large for a float"),
])
def test_peak_rate_rows_checked(peaks, message):
    # the first offending row is named; ids beyond int64 are looked up too
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make_instance([(5, 1.0, 0.0, 1.0)], [(0, [1])], peaks)
    big = make_instance([(2**70, 1.0, 0.0, 1.0)], [(-2**70, [1])],
                        [(2**70, 1, 3.0), (2**70, -2**70, 2.0)])
    assert big.rates.tolist() == [[2.0, 3.0]]


# -- ground set ---------------------------------------------------------------


def test_ground_set_zero_min_keeps_all_picos():
    rng = np.random.default_rng(7)
    inst = single_macro_instance(rng, 3, 4)
    gs = build_ground_set(inst)
    for u in inst.users:
        assert [b for v, b in gs if v == u] == sorted(inst.pico_macro)


def test_ground_set_drops_unreachable_user():
    inst = tiny(rate_min=5.0)  # R_m + R_b = 2 < 5
    gs = build_ground_set(inst)
    assert gs == ()


def test_ground_set_filter_matches_inequality():
    rng = np.random.default_rng(11)
    inst = single_macro_instance(rng, 3, 2, min_frac=1.2)
    gs = build_ground_set(inst)
    got = set(gs)
    want = {
        (u, b)
        for u in inst.users
        for b in sorted(inst.pico_macro)
        if rate(inst, u, 0) + rate(inst, u, b) >= inst.rmin(u)
    }
    assert got == want


def test_ground_set_monotone_in_rmin():
    rng = np.random.default_rng(13)
    for trial in range(20):
        inst = single_macro_instance(rng, 4, 3, min_frac=1.5)
        lowered = make_instance(
            [(u, weight(inst, u), 0.5 * inst.rmin(u), inst.rmax(u))
             for u in inst.users],
            [(0, inst.picos_of[0])],
            [(u, t, rate(inst, u, t)) for u in inst.users for t in inst.tps],
        )
        assert set(build_ground_set(inst)) <= set(
            build_ground_set(lowered)
        )


def test_ground_set_is_sorted_distinct_pairs():
    rng = np.random.default_rng(17)
    inst = assoc_instance(rng, n_users=5, n_macros=3, picos_per=2)
    gs = build_ground_set(inst)
    assert isinstance(gs, tuple) and gs
    assert list(gs) == sorted(set(gs))
    assert all(u in inst.users and b in inst.pico_macro for u, b in gs)


def _scalar_ground_set(inst):
    """The per-element enumeration build_ground_set replaced, kept as the
    reference: (user, pico, macro) triples sorted, read back as pairs."""
    triples = []
    for u in inst.users:
        for m in inst.macros:
            rm = rate(inst, u, m)
            for b in inst.picos_of[m]:
                rb = rate(inst, u, b)
                if rm > 0 and rb > 0 and rm + rb >= inst.rmin(u):
                    triples.append((u, b, m))
    return tuple((u, b) for u, b, _ in sorted(triples))


def test_ground_set_matches_scalar_enumeration():
    rng = np.random.default_rng(29)
    boundary = 0
    for trial in range(120):
        n_macros = int(rng.integers(1, 4))
        macros = [(m, [10 * (m + 1) + j for j in range(int(rng.integers(0, 4)))])
                  for m in rng.permutation(n_macros).tolist()]
        tps = [t for m, ps in macros for t in [m] + ps]
        users, peaks = [], []
        for u in rng.permutation(np.arange(100, 100 + int(rng.integers(1, 7)))).tolist():
            row = {}
            for t in tps:
                if rng.random() < 0.3:
                    continue   # omitted: zero rate, no link
                row[t] = float(rng.choice([0.0, -1.0, math.nan, -math.inf, math.inf,
                                           1e308, 0.5, 1.0, 2.0,
                                           float(np.exp(rng.uniform(-1, 1)))]))
            peaks += [(u, t, r) for t, r in row.items()]
            rmin = float(rng.choice([0.0, 1.0, 2.5]))
            links = [(m, b) for m, ps in macros for b in ps
                     if row.get(m, 0) > 0 and row.get(b, 0) > 0]
            if links and rng.random() < 0.5:
                m, b = links[int(rng.integers(len(links)))]
                rmin = row[m] + row[b]   # attainable exactly at this pair
                boundary += 1
            users.append((u, 1.0, rmin, math.inf))
        inst = make_instance(users, macros, peaks)
        assert build_ground_set(inst) == _scalar_ground_set(inst)
    assert boundary >= 20


# -- association / fractions ---------------------------------------------------


def test_association_validate():
    rng = np.random.default_rng(19)
    inst = assoc_instance(rng, n_users=2, n_macros=2, picos_per=2)
    u1, u2 = inst.users
    ok = Association(pairs={u1: (0, 10), u2: (1, None)})
    assert association_errors(ok, inst) == []
    assert ok.users_of_macro(0) == {10: [u1]}
    assert ok.users_of_macro(1) == {None: [u2]}

    bad = Association(pairs={u1: (0, 20), u2: (9, 10), 999: (0, 10)})
    msgs = "\n".join(association_errors(bad, inst))
    assert "pico 20 not under macro 0" in msgs
    assert "unknown macro 9" in msgs
    assert "unknown user 999" in msgs


def test_compute_user_rates_sums_both_legs():
    inst = tiny(rate_ub=3.0)
    fr = AllocationFractions(theta={(5, 0): 0.25}, gamma={(5, 1): 0.5})
    assert compute_user_rates(inst, fr) == {5: 0.25 * 1.0 + 0.5 * 3.0}


# -- JSON ----------------------------------------------------------------------


def test_json_round_trip_identical():
    rng = np.random.default_rng(23)
    inst = assoc_instance(rng, n_users=4, n_macros=2, picos_per=2,
                          admission=True)
    text = instance_to_json(inst)
    back = instance_from_json(text)
    assert instance_to_json(back) == text
    assert back.users == inst.users
    assert np.array_equal(back.rates, inst.rates)


def test_json_omits_infinite_rate_max():
    inst = tiny()
    text = instance_to_json(inst)
    assert "rate_max" not in text
    assert math.isinf(instance_from_json(text).rmax(5))


_POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@st.composite
def _sparse_instances(draw):
    """Instances with ids beyond 2**32, zero ("no link") peak rates and
    rate_max both infinite and finite."""
    ids = st.integers(-2**70, 2**70)
    users = draw(st.lists(ids, min_size=1, max_size=6, unique=True))
    tps = draw(st.lists(ids, min_size=1, max_size=6, unique=True))
    macros = tps[:draw(st.integers(1, len(tps)))]
    owner = [draw(st.sampled_from(macros)) for _ in tps[len(macros):]]
    rows = [(u, draw(_POSITIVE), draw(st.just(0.0) | _POSITIVE),
             draw(st.just(math.inf) | _POSITIVE)) for u in users]
    peaks = [(u, t, r) for u in users for t in tps
             if (r := draw(st.just(0.0) | _POSITIVE)) > 0.0]
    return make_instance(
        rows, [(m, [b for b, o in zip(tps[len(macros):], owner) if o == m]) for m in macros],
        peaks)


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(inst=_sparse_instances())
def test_json_round_trip_is_exact(inst):
    text = instance_to_json(inst)
    back = instance_from_json(text)
    assert (back.users, back.macros, back.picos_of, back.tps) == (
        inst.users, inst.macros, inst.picos_of, inst.tps)
    for name in ("weights", "rate_min", "rate_max", "rates"):
        a, b = getattr(inst, name), getattr(back, name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name
    assert instance_to_json(back) == text


def _json_dumps_reference(inst):
    """The json.dumps call whose text instance_to_json writes directly."""
    users = []
    for i, u in enumerate(inst.users):
        row = {"id": u, "weight": inst.weights[i], "rate_min": inst.rate_min[i]}
        if math.isfinite(inst.rate_max[i]):
            row["rate_max"] = inst.rate_max[i]
        users.append(row)
    macros = [{"id": m, "picos": list(inst.picos_of[m])} for m in inst.macros]
    peaks = [[u, t, r] for u, row in zip(inst.users, inst.rates.tolist())
             for t, r in zip(inst.tps, row) if r != 0.0]
    doc = {"users": users, "macros": macros, "peak_rates": peaks}
    return json.dumps(doc, sort_keys=True, separators=(",", ": "), indent=1)


# any float, with subnormal, huge, signed-zero and non-finite values drawn often
_ANY_FLOAT = st.floats() | st.sampled_from(
    [5e-324, 2.2e-308, 1.7976931348623157e308, -0.0, math.nan, math.inf, -math.inf])


@st.composite
def _writer_instances(draw):
    """Instances make_instance accepts, none of them checked by
    instance_errors: empty or childless macros, users without links, ids
    beyond int64, and weights, rate limits and peak rates of any float."""
    ids = st.integers(-2**70, 2**70) | st.integers(-3, 3)
    users = draw(st.lists(ids, max_size=5, unique=True))
    tps = draw(st.lists(ids, max_size=6, unique=True))
    macros = tps[:draw(st.integers(min(1, len(tps)), len(tps)))]
    owner = [draw(st.sampled_from(macros)) for _ in tps[len(macros):]]
    rows = [(u, draw(_ANY_FLOAT), draw(_ANY_FLOAT), draw(_ANY_FLOAT)) for u in users]
    peaks = [(u, t, draw(st.just(0.0) | _ANY_FLOAT)) for u in users for t in tps
             if draw(st.booleans())]
    return make_instance(
        rows, [(m, [b for b, o in zip(tps[len(macros):], owner) if o == m]) for m in macros],
        peaks)


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(inst=_writer_instances())
def test_json_writer_matches_json_dumps(inst):
    assert instance_to_json(inst) == _json_dumps_reference(inst)


def test_json_writer_matches_json_dumps_on_a_generated_deployment():
    # the wsr-dense benchmark's deployment size: 7 macros, 70 picos, 63 users
    inst = generate(DeploymentConfig(seed=1001, rings=1, sectors_per_site=1,
                                     users_per_macro=9)).inst
    assert len(inst.users) * len(inst.tps) == 63 * 77
    assert instance_to_json(inst) == _json_dumps_reference(inst)
