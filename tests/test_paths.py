import inspect
import os
import subprocess
import sys
from itertools import combinations, permutations, product
from math import comb
from pathlib import Path

import pytest

import offdiag.paths
from offdiag.matrices import matrix_a
from offdiag.paths import (
    FULL,
    REDUCED,
    PathFamily,
    PathGraph,
    delannoy,
    enumerate_families,
    q_doublet,
    signed_family_count,
    staircase,
)


def brute_count(g, src, dst):
    if src not in g.vertices or dst not in g.vertices:
        return 0
    if src == dst:
        return 1
    return sum(brute_count(g, nxt, dst) for nxt in g.out[src])


def test_delannoy_table():
    table = [[delannoy(p, q) for q in range(5)] for p in range(5)]
    assert table == [
        [1, 1, 1, 1, 1],
        [1, 3, 5, 7, 9],
        [1, 5, 13, 25, 41],
        [1, 7, 25, 63, 129],
        [1, 9, 41, 129, 321],
    ]
    assert delannoy(-1, 3) == 0
    assert delannoy(2, -1) == 0
    for p in range(6):
        for q in range(6):
            assert delannoy(p, q) == delannoy(q, p)


def delannoy_closed_form(p, q):
    return sum(comb(p, k) * comb(q, k) * 2 ** k for k in range(min(p, q) + 1))


def test_delannoy_matches_closed_form_and_recurrence():
    for p in range(40):
        for q in range(40):
            assert delannoy(p, q) == delannoy_closed_form(p, q)
            if p and q:
                assert delannoy(p, q) == (delannoy(p - 1, q)
                                          + delannoy(p, q - 1)
                                          + delannoy(p - 1, q - 1))


def test_delannoy_cold_cache_deep_arguments(monkeypatch):
    # a cold call extends the diagonal through (p, q) in a loop, so even a
    # recursion limit 50 frames above the caller's depth leaves room for it
    monkeypatch.setattr(offdiag.paths, "_DIAGONALS", {})
    delannoy.cache_clear()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 50)
    try:
        assert delannoy(1200, 1200) == delannoy_closed_form(1200, 1200)
        assert delannoy(2000, 1500) == delannoy_closed_form(2000, 1500)
        assert delannoy(5000, 5000) == (delannoy(4999, 5000)
                                        + delannoy(5000, 4999)
                                        + delannoy(4999, 4999))
    finally:
        sys.setrecursionlimit(limit)
        delannoy.cache_clear()


def test_delannoy_refuses_a_corrupted_diagonal(monkeypatch):
    # the recurrence divides through series._exact: with D(1, 1) = 3 stored
    # as 4, the step to D(3, 3) = 63 has numerator
    # 5 * 72 * 13 - 2 * 2 * 2 * 6 * 4 = 4488 = 62 * 72 + 24, which raises
    # instead of flooring to 62, and neither memo takes a value
    monkeypatch.setattr(offdiag.paths, "_DIAGONALS", {0: [1, 4, 13]})
    delannoy.cache_clear()
    try:
        with pytest.raises(ArithmeticError, match="^inexact division$"):
            delannoy(3, 3)
        assert offdiag.paths._DIAGONALS == {0: [1, 4, 13]}
        assert delannoy.cache_info().currsize == 0
    finally:
        delannoy.cache_clear()


FLOAT_THEN_COUNT = """
import offdiag, offdiag.cli
try:
    offdiag.delannoy(3.0, 3)
except TypeError:
    print("refused")
print(offdiag.d_vector("pm", 5))
offdiag.cli.main(["count", "dpm", "--n", "5", "--all", "--format", "json"])
assert offdiag.delannoy(3, 3) == 63
try:
    offdiag.delannoy(3.0, 3)
except TypeError:
    print("refused when warm")
"""


def test_float_arguments_never_enter_the_delannoy_cache():
    # an untyped lru_cache takes (3.0, 3) and (3, 3) for one key, so a float
    # cached there would turn later counts into floats, and a float asked
    # after the int would be answered from the cache; a fresh process keeps
    # such a cache away from the other tests
    env = dict(os.environ,
               PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    done = subprocess.run([sys.executable, "-c", FLOAT_THEN_COUNT], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "refused",
        "(24, 96, 72, 96, 24)",
        '{"target": "dpm", "n": 5, "values": '
        '["24", "96", "72", "96", "24"]}',
        "refused when warm",
    ]


def test_graph_structure():
    g = PathGraph(4, FULL)
    assert len(g.vertices) == 4 * 5 // 2 + 4
    assert g.w[1] == g.x[4]
    assert g.v[2] == g.x[1]
    assert g.u[1] == g.v[1]
    assert g.doublet_indices == (1, 2, 3, 4)
    for j in range(1, 5):
        assert g.doublets[j - 1] == (g.v[2 * j - 1], g.v[2 * j])
        assert g.out[g.v[2 * j]] == ()  # staircase tops are sinks
    for p in g.vertices:
        if p[1] == -1:
            assert all(q[1] == 0 for q in g.out[p])

    r = PathGraph(4, REDUCED)
    assert len(r.vertices) == 4 * 5 // 2
    assert r.u == {}
    assert 1 not in r.v and 2 in r.v
    assert r.doublet_indices == (2, 3, 4)
    assert all(p[1] >= 0 for p in r.vertices)


def test_graph_rejects_bad_arguments():
    with pytest.raises(ValueError):
        PathGraph(0)
    with pytest.raises(ValueError):
        PathGraph(3, "diagonal")


def test_count_paths_matches_brute_force():
    for variant in (FULL, REDUCED):
        for n in (1, 2, 3, 4):
            g = PathGraph(n, variant)
            for src in g.vertices:
                for dst in g.vertices:
                    assert g.count_paths(src, dst) == brute_count(g, src, dst)


def test_path_count_closed_forms():
    for n in range(1, 7):
        g = PathGraph(n, FULL)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                assert g.count_paths(g.x[i], g.v[2 * j]) == delannoy(i - j, j - 1)
                assert g.count_paths(g.x[i], g.v[2 * j - 1]) == delannoy(i - j, j - 2)
                up = g.count_paths(g.u[i], g.v[2 * j])
                down = g.count_paths(g.u[i], g.v[2 * j - 1])
                assert up + down == 2 * delannoy(i - j, j - 1)
                assert up - down == 2 * delannoy(i - j - 1, j - 1)


def test_doublet_kernel_is_antisymmetric():
    for variant in (FULL, REDUCED):
        g = PathGraph(3, variant)
        verts = sorted(g.vertices)
        for a in verts:
            for b in verts:
                assert q_doublet(g, a, b) == -q_doublet(g, b, a)


def test_doublet_kernel_matches_matrix_entries():
    for n in range(1, 6):
        g = PathGraph(n, FULL)
        a = matrix_a(n)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                assert q_doublet(g, g.u[i], g.u[j]) == a.rows[i - 1][j - 1]


def test_family_enumeration_is_deterministic():
    g = PathGraph(3, FULL)
    starts = (g.u[1], g.u[2])
    assert enumerate_families(g, starts) == enumerate_families(g, starts)


def test_families_are_vertex_disjoint_and_signed():
    g = PathGraph(3, FULL)
    fams = enumerate_families(g, (g.u[1], g.u[2]))
    assert fams
    for fam in fams:
        assert fam.sign in (1, -1)
        seen = set()
        for path in fam.paths:
            for p in path:
                assert p not in seen
                seen.add(p)
        assert tuple(sorted(fam.ends)) in g.doublets
    assert signed_family_count(fams) == 2


def test_odd_start_count_has_no_complete_doublet_families():
    g = PathGraph(3, FULL)
    assert enumerate_families(g, (g.u[1], g.u[2], g.u[3])) == ()


def test_two_family_count_equals_kernel():
    for n in (2, 3):
        g = PathGraph(n, FULL)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                fams = enumerate_families(g, (g.u[j], g.w[i]))
                assert signed_family_count(fams) == q_doublet(g, g.u[j], g.w[i])


def test_fixed_end_decomposition():
    g = PathGraph(3, FULL)
    starts = (g.u[1], g.u[2], g.u[3])
    parts = [signed_family_count(enumerate_families(g, starts,
                                                    fixed_ends=(g.v[k],)))
             for k in range(1, 7)]
    assert parts == [2, 2, 2, 6, 2, 2]
    assert sum(parts) == 16


def test_enumeration_size_guard():
    g = PathGraph(9, FULL)
    with pytest.raises(ValueError):
        enumerate_families(g, (g.u[1],))


def test_staircase_keeps_one_graph_per_size_and_variant(empty_memos):
    g = staircase(3, FULL)
    assert staircase(3, FULL) is g
    assert staircase(3, REDUCED) is not g
    assert (g.n, g.variant) == (3, FULL)
    with pytest.raises(TypeError):
        staircase(3.0, FULL)


def test_doublet_kernel_matches_the_minor_sum_over_count_dicts():
    for variant in (FULL, REDUCED):
        for n in range(1, 6):
            g = PathGraph(n, variant)
            for a in g.vertices:
                ca = g.path_counts(a)
                for b in g.vertices:
                    cb = g.path_counts(b)
                    want = sum(ca.get(vm, 0) * cb.get(vp, 0)
                               - ca.get(vp, 0) * cb.get(vm, 0)
                               for vm, vp in g.doublets)
                    assert q_doublet(g, a, b) == want


def test_points_off_the_graph_are_refused():
    g = PathGraph(3, FULL)
    with pytest.raises(ValueError, match=r"\(99, 99\)"):
        enumerate_families(g, [(99, 99)])
    with pytest.raises(ValueError, match=r"\(0, 0\)"):
        enumerate_families(g, (g.u[1],), fixed_ends=((0, 0),))
    with pytest.raises(ValueError, match=r"\(99, 99\)"):
        q_doublet(g, (99, 99), g.u[1])
    with pytest.raises(ValueError, match=r"\(-4, 0\)"):
        q_doublet(g, g.u[1], (-4, 0))
    r = PathGraph(3, REDUCED)
    with pytest.raises(ValueError, match=r"\(-1, -1\)"):
        q_doublet(r, (-1, -1), r.x[1])
    with pytest.raises(ValueError, match=r"\(-2, -1\)"):
        enumerate_families(r, (r.x[1], (-2, -1)))
    # the full graph puts u_1 = (-1, -1) in the point table, and the
    # reduced graph, which lacks it, still refuses it
    g.path_counts(g.u[1])
    assert (-1, -1) in offdiag.paths._COUNTS
    for graph, src in ((g, (99, 99)), (r, (-1, -1))):
        with pytest.raises(ValueError, match=r"not on the"):
            graph.path_counts(src)
        with pytest.raises(ValueError, match=r"not on the"):
            graph.count_paths(src, graph.x[1])
    assert (99, 99) not in offdiag.paths._COUNTS
    with pytest.raises(ValueError, match=r"\(99, 99\)"):
        staircase(3, FULL).count_paths((-1, 0), (99, 99))
    with pytest.raises(ValueError, match=r"\(-1, -1\)"):
        r.count_paths(r.x[1], (-1, -1))


@pytest.mark.parametrize("graph", [None, 5, "full"], ids=repr)
def test_a_graph_that_is_not_a_path_graph_is_refused(graph):
    # a one-line TypeError that names what was passed, never an
    # AttributeError from inside
    want = f"^expected a PathGraph, got {type(graph).__name__}$"
    g = PathGraph(3, FULL)
    with pytest.raises(TypeError, match=want):
        q_doublet(graph, g.u[1], g.u[2])
    with pytest.raises(TypeError, match=want):
        enumerate_families(graph, (g.u[1], g.u[2]))
    with pytest.raises(TypeError, match=want):
        enumerate_families(graph, (g.u[1],), fixed_ends=(g.v[1],))


def brute_paths(g, a, b, memo):
    """Every path a -> b as a vertex tuple, by recursion over g.out."""
    if (a, b) not in memo:
        memo[a, b] = [(a,)] if a == b else [
            (a,) + rest
            for q in g.out[a] for rest in brute_paths(g, q, b, memo)]
    return memo[a, b]


def reference_families(g, starts, fixed, memo):
    """The families of `enumerate_families`, by brute force: every choice
    of free doublets, every assignment of starts to the end slots, and
    every product of their path lists, kept when vertex-disjoint."""
    r, free = len(starts), len(starts) - len(fixed)
    found = []
    if free % 2:
        return found
    for chosen in combinations(g.doublets, free // 2):
        ends = fixed + tuple(p for d in chosen for p in d)
        if len(set(ends)) < len(ends):
            continue
        for perm in permutations(range(r)):
            inversions = sum(perm[i] > perm[j]
                             for i, j in combinations(range(r), 2))
            lists = [brute_paths(g, starts[s], end, memo)
                     for s, end in zip(perm, ends)]
            for paths in product(*lists):
                points = [p for path in paths for p in path]
                if len(points) == len(set(points)):
                    found.append(PathFamily(
                        ends=ends, paths=paths,
                        connection=tuple(s + 1 for s in perm),
                        sign=(-1) ** inversions))
    return found


def family_order(g, starts, fixed, family, memo):
    """The documented order of `enumerate_families` as a sort key: the
    index of the end choice, then slot by slot the start index and the
    path's position in `brute_paths`, which walks g.out in the sorted
    order of `_path_list`."""
    free = family.ends[len(fixed):]
    choice = tuple(g.doublets.index(free[i:i + 2])
                   for i in range(0, len(free), 2))
    slots = tuple((c, brute_paths(g, starts[c - 1], end, memo).index(path))
                  for c, end, path in zip(family.connection, family.ends,
                                          family.paths))
    return choice, slots


def test_family_enumeration_matches_brute_force():
    # every start subset up to n = 5, start sets of at most 3 at n = 6
    for variant in (FULL, REDUCED):
        for n in range(1, 7):
            g = PathGraph(n, variant)
            sources = list((g.u if variant == FULL else g.x).values())
            memo = {}
            for size in range((n if n <= 5 else 3) + 1):
                for starts in combinations(sources, size):
                    for fixed in [()] + [(p,) for p in g.v.values()]:
                        if len(fixed) > size:
                            continue
                        got = enumerate_families(g, starts, fixed_ends=fixed)
                        want = reference_families(g, starts, fixed, memo)
                        want.sort(key=lambda f: family_order(
                            g, starts, fixed, f, memo))
                        assert list(got) == want


def test_family_order_is_pinned():
    # free ends in doublet order, then starts by index and paths in
    # depth-first order, slot by slot
    g = PathGraph(4, FULL)
    fams = enumerate_families(g, (g.u[4], (-3, 1)))
    assert fams == (
        PathFamily(ends=((-2, 0), (-2, 1)),
                   paths=(((-4, -1), (-4, 0), (-3, 0), (-2, 0)),
                          ((-3, 1), (-2, 1))),
                   connection=(1, 2), sign=1),
        PathFamily(ends=((-2, 0), (-2, 1)),
                   paths=(((-4, -1), (-3, 0), (-2, 0)), ((-3, 1), (-2, 1))),
                   connection=(1, 2), sign=1),
        PathFamily(ends=((-3, 1), (-3, 2)),
                   paths=(((-3, 1),),
                          ((-4, -1), (-4, 0), (-4, 1), (-4, 2), (-3, 2))),
                   connection=(2, 1), sign=-1),
        PathFamily(ends=((-3, 1), (-3, 2)),
                   paths=(((-3, 1),), ((-4, -1), (-4, 0), (-4, 1), (-3, 2))),
                   connection=(2, 1), sign=-1),
    )


def graph_counts(g, src):
    """The path counts out of src on g alone: each vertex pulls from its
    in-neighbours in an order where every step raises x + y; the vertices
    src does not reach are left out."""
    into = {p: [q for q in g.vertices if p in g.out[q]] for p in g.vertices}
    counts = {}
    for p in sorted(g.vertices, key=lambda p: (p[0] + p[1], p[0])):
        c = (p == src) + sum(counts.get(q, 0) for q in into[p])
        if c:
            counts[p] = c
    return counts


@pytest.mark.parametrize("largest_first", (False, True))
def test_point_tables_match_each_graph_alone(empty_memos, largest_first):
    # the tables are filled by whichever graph asks first, so each graph's
    # counts and path lists must be its own, from either end of the sizes
    sizes = sorted(range(1, 9), reverse=largest_first)
    for n, variant in product(sizes, (FULL, REDUCED)):
        g = staircase(n, variant)
        memo = {}
        for a in g.vertices:
            assert g.path_counts(a) == graph_counts(g, a)
            for b in g.vertices:
                got = g._path_list(a, b)
                assert [path for _, path in got] == brute_paths(g, a, b, memo)
                for mask, path in got:
                    assert mask == sum(map(offdiag.paths._bit, path))


def test_mask_bits_are_one_per_vertex_of_every_graph():
    # distinct single bits, so masks are disjoint exactly when paths are
    vertices = staircase(8, FULL).vertices
    bits = {offdiag.paths._bit(p) for p in vertices}
    assert len(bits) == len(vertices)
    assert all(bit.bit_count() == 1 for bit in bits)
    # the graphs of smaller size or the reduced variant hold no other vertex
    for n, variant in product(range(1, 9), (FULL, REDUCED)):
        assert staircase(n, variant).vertices <= vertices
