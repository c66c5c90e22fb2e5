import hashlib
import xml.etree.ElementTree as ET
from itertools import combinations

import pytest

import offdiag.oracle
from offdiag.counts import (
    count_nearly,
    count_off_diag,
    d_vector,
    even_order_full,
    o_vector,
)
from offdiag.oracle import (
    Region,
    boundary_square,
    build_region,
    cell_block,
    classify_region_tilings,
    count_all_tilings,
    diagonal_profile,
    enumerate_tilings,
    is_black,
    mirror_domino,
    mirror_square,
    oracle_counts,
    paths_to_tiling,
    render_svg,
    render_text,
    span,
    symmetric_tilings,
    tiling_to_paths,
)

RENDER_AD1_HORIZONTAL = """\
#---#
|   |
+-+-+
|   |
#---#
cells bottom to top: +1
"""


def all_kept_subsets(n):
    labels = list(range(1, n + 1))
    for mask in range(1 << n):
        yield frozenset(l for i, l in enumerate(labels) if mask >> i & 1)


def is_mirror_symmetric(tiling):
    """Reference predicate: the tiling holds the mirror image of each of its
    dominoes."""
    return all(mirror_domino(d) in tiling for d in tiling)


def reference_profile(region, tiling):
    """diagonal_profile by its definition: a set per cell, and the whole
    tiling scanned once per cell for the dominoes inside it."""
    profile = []
    for k in range(1, region.n + 1):
        block = set(cell_block(region.n, k))
        inside = sum(1 for s, t in tiling if s in block and t in block)
        profile.append(inside - 1)
    return tuple(profile)


def reference_census(region):
    """(off_diag, nearly_plus, nearly_minus) by filtering every tiling."""
    off_diag = 0
    plus = [0] * region.n
    minus = [0] * region.n
    for tiling in enumerate_tilings(region):
        if not is_mirror_symmetric(tiling):
            continue
        profile = reference_profile(region, tiling)
        defects = [k for k, value in enumerate(profile) if value]
        if not defects:
            off_diag += 1
        elif len(defects) == 1:
            k = defects[0]
            (plus if profile[k] > 0 else minus)[k] += 1
    return off_diag, tuple(plus), tuple(minus)


def test_mirror_and_color_helpers():
    for sq in ((0, 0), (-1, 3), (2, -2)):
        assert mirror_square(mirror_square(sq)) == sq
    assert mirror_square((0, 5)) == (-1, 5)
    d = ((0, 0), (1, 0))
    assert mirror_domino(mirror_domino(d)) == d
    # adjacent squares always differ in color
    for n in (1, 2, 3):
        for a in range(-3, 3):
            for b in range(-3, 3):
                assert is_black(n, (a, b)) != is_black(n, (a + 1, b))
                assert is_black(n, (a, b)) != is_black(n, (a, b + 1))


def test_region_shapes():
    r1 = build_region(1)
    assert len(r1.squares) == 4
    for n in (1, 2, 3, 4):
        region = build_region(n)
        assert len(region.squares) == 2 * n * (n + 1)
        # mirror closure
        assert all(mirror_square(s) in region.squares for s in region.squares)
    # boundary deletion removes a square and its mirror image
    assert boundary_square(1, 1) == (-1, -1)
    removed = build_region(3, (1, 3))
    assert len(removed.squares) == 24 - 2
    missing = build_region(3).squares - removed.squares
    assert missing == {boundary_square(3, 2), mirror_square(boundary_square(3, 2))}
    with pytest.raises(ValueError):
        build_region(3, (4,))
    with pytest.raises(ValueError, match="repeat"):
        build_region(3, (1, 1, 2))
    with pytest.raises(ValueError):
        build_region(0)


def test_non_integer_labels_are_refused():
    # labels go through operator.index: 1.5 is no label, and 2.0 is not
    # taken for 2
    for kept in ([1.5], [1, 2.0]):
        with pytest.raises(TypeError):
            build_region(3, kept)
    assert build_region(3, [True, 3]) == build_region(3, [1, 3])


def test_total_tiling_counts():
    for n in (1, 2, 3, 4, 8):
        assert count_all_tilings(build_region(n)) == 2 ** (n * (n + 1) // 2)


def test_count_all_tilings_matches_enumeration():
    regions = [build_region(n, kept) for n in (1, 2, 3, 4)
               for kept in all_kept_subsets(n)]
    regions.append(build_region(5))
    for region in regions:
        assert count_all_tilings(region) == sum(
            1 for _ in enumerate_tilings(region))


def test_counters_refuse_orders_above_nine():
    # build_region refuses order 10 itself, so the region is built by hand
    with pytest.raises(ValueError, match="region too large"):
        build_region(10)
    squares = frozenset((a, b) for a in range(-10, 10) for b in range(-10, 10)
                        if span(a) + span(b) <= 11)
    region = Region(10, frozenset(range(1, 11)), squares)
    for counter in (count_all_tilings, classify_region_tilings):
        with pytest.raises(ValueError, match="up to 9"):
            counter(region)


def test_enumeration_guard_on_large_regions():
    for generate in (enumerate_tilings, symmetric_tilings):
        with pytest.raises(ValueError):
            next(generate(build_region(7)))


def test_symmetric_tilings_match_mirror_filter():
    for n in (1, 2, 3, 4):
        for kept in all_kept_subsets(n):
            region = build_region(n, kept)
            built = list(symmetric_tilings(region))
            assert len(set(built)) == len(built)
            assert built == [t for t in enumerate_tilings(region)
                             if is_mirror_symmetric(t)]


def test_symmetric_tiling_counts_at_n5():
    assert sum(1 for _ in symmetric_tilings(build_region(5))) == 1048
    deleted = []
    for k in range(1, 6):
        region = build_region(5, set(range(1, 6)) - {k})
        deleted.append(sum(1 for _ in symmetric_tilings(region)))
    assert deleted == [916, 1716, 1484, 684, 132]


def test_census_matches_reference_classification():
    # the reference skips asymmetric tilings and those with two or more
    # nonzero cells, so the census must leave both out as well
    for n in (1, 2, 3, 4):
        for kept in all_kept_subsets(n):
            region = build_region(n, kept)
            census = classify_region_tilings(region)
            assert (census.off_diag, census.nearly_plus,
                    census.nearly_minus) == reference_census(region)


def test_diagonal_profile_matches_its_definition():
    seen = 0
    for n in (1, 2, 3, 4):
        for kept in all_kept_subsets(n):
            region = build_region(n, kept)
            for tiling in enumerate_tilings(region):
                assert (diagonal_profile(region, tiling)
                        == reference_profile(region, tiling))
                seen += 1
    assert seen == 6184


def test_ad1_classification():
    region = build_region(1)
    tilings = list(enumerate_tilings(region))
    assert len(tilings) == 2
    assert list(symmetric_tilings(region)) == tilings
    for tiling in tilings:
        assert is_mirror_symmetric(tiling)
        assert diagonal_profile(region, tiling) == (1,)
    census = classify_region_tilings(region)
    assert census.off_diag == 0
    assert census.nearly_plus == (2,)
    assert census.nearly_minus == (0,)


def test_ad1_deleted_region():
    region = build_region(1, ())
    tilings = list(symmetric_tilings(region))
    assert tilings == list(enumerate_tilings(region))
    assert len(tilings) == 1
    assert diagonal_profile(region, tilings[0]) == (0,)
    assert classify_region_tilings(region).off_diag == 1


def test_ad3_census_matches_matrix_counts():
    region = build_region(3)
    census = classify_region_tilings(region)
    # 24 symmetric tilings: 16 nearly off-diagonal, 8 with two or more
    # nonzero cells, which the census leaves out
    assert sum(1 for _ in symmetric_tilings(region)) == 24
    assert census.off_diag == 0
    assert census.nearly_plus == tuple(d_vector("plus", 3))
    assert census.nearly_minus == tuple(d_vector("minus", 3))


def test_even_order_census_matches_matrix_counts():
    for n in (2, 4):
        census = classify_region_tilings(build_region(n))
        assert census.off_diag == even_order_full(n)


def test_oracle_counts_fixture():
    for n, total in ((3, 64), (7, 2 ** 28), (9, 2 ** 45)):
        oc = oracle_counts(n)
        assert oc.total == total
        assert oc.off_diag_full == 0
        assert oc.o == o_vector(n)
        assert oc.d_pm == d_vector("pm", n)
        assert oc.d_plus == d_vector("plus", n)
        assert oc.d_minus == d_vector("minus", n)
        assert oc.nearly_total == count_nearly(n)
    with pytest.raises(ValueError, match="odd n <= 9"):
        oracle_counts(11)
    with pytest.raises(ValueError):
        oracle_counts(2)


def test_total_counts_the_tilings_once_per_order(monkeypatch):
    # oracle_counts counts only the symmetric tilings; each read of `total`
    # counts every tiling of the full region of its own order once, anew
    calls = []
    count_all_tilings = offdiag.oracle.count_all_tilings

    def counted(region):
        calls.append(region.n)
        return count_all_tilings(region)

    monkeypatch.setattr(offdiag.oracle, "count_all_tilings", counted)
    oc = oracle_counts(5)
    assert calls == []
    assert (oc.total, oc.total) == (2 ** 15, 2 ** 15)
    assert calls == [5, 5]
    assert oracle_counts(3).total == 2 ** 6
    assert calls == [5, 5, 3]


def test_deleted_region_counts_match_o_vector():
    for n in (1, 3):
        for k in range(1, n + 1):
            region = build_region(n, set(range(1, n + 1)) - {k})
            census = classify_region_tilings(region)
            assert census.off_diag == o_vector(n)[k - 1]


def test_every_kept_set_matches_its_pfaffian():
    # all 126 kept label sets at n <= 6, the empty one included
    checked = 0
    for n in range(1, 7):
        for size in range(n + 1):
            for kept in combinations(range(1, n + 1), size):
                census = classify_region_tilings(build_region(n, kept))
                assert census.off_diag == count_off_diag(n, kept), (n, kept)
                checked += 1
    assert checked == 126


def test_cell_block_layout():
    assert cell_block(3, 1) == ((-1, -3), (0, -3), (-1, -2), (0, -2))
    assert cell_block(3, 2) == ((-1, -1), (0, -1), (-1, 0), (0, 0))
    with pytest.raises(ValueError):
        cell_block(3, 4)


def test_path_round_trip_on_all_symmetric_tilings():
    seen = 0
    for n in (1, 2, 3):
        for kept in all_kept_subsets(n):
            region = build_region(n, kept)
            for tiling in symmetric_tilings(region):
                paths = tiling_to_paths(region, tiling)
                rebuilt = paths_to_tiling(region, paths)
                assert rebuilt == tiling
                seen += 1
    assert seen == 99


def test_paths_to_tiling_rejects_bad_input():
    region = build_region(3)
    paths = tiling_to_paths(region, next(symmetric_tilings(region)))
    # the chain out of label 1 is one square on the axis column; the
    # others take one step each
    assert [len(paths[i]) for i in (1, 2, 3)] == [1, 2, 2]
    (x, y), = paths[1]
    cases = [
        ({1: ()}, r"^path 1 is empty$"),
        # a path filed under a label the region does not keep, or under
        # another kept label than its boundary square's
        ({7: paths[1], 2: paths[2], 3: paths[3]},
         r"^label 7 is not a kept label$"),
        ({**paths, "a": paths[1]}, r"^label 'a' is not a kept label$"),
        ({1: paths[2], 2: paths[1], 3: paths[3]},
         r"^path 1 must start at \(-1, -3\), got \(-2, -2\)$"),
        ({**paths, 3: paths[3][:1] + paths[2][1:]},
         r"^paths intersect at \(0, -2\)$"),
        ({1: paths[1] + ((99, 99),)},
         r"^not a unit step: \(-1, -3\) -> \(199, -3\)$"),
        ({**paths, 2: paths[2][:-1]},
         r"^path must end on the axis, got \(-2, -2\)$"),
        ({2: paths[2], 3: paths[3]},
         r"^no room to finish square \(-1, -3\)$"),
        ({**paths, 1: paths[1] + ((x + 1, y),)},
         r"^paths do not induce a tiling of the region$"),
    ]
    for broken, message in cases:
        with pytest.raises(ValueError, match=message):
            paths_to_tiling(region, broken)
    # an empty path is refused before any other path is read
    with pytest.raises(ValueError, match=r"^path 9 is empty$"):
        paths_to_tiling(region, {**paths, 8: paths[1], 9: ()})
    # a region that drops label 2 keeps no path under it
    dropped = build_region(3, (1, 3))
    with pytest.raises(ValueError, match=r"^label 2 is not a kept label$"):
        paths_to_tiling(dropped, paths)


def test_render_text_fixture_and_determinism():
    region = build_region(1)
    tilings = list(enumerate_tilings(region))
    text = render_text(region, tilings[0])
    assert text == RENDER_AD1_HORIZONTAL
    assert render_text(region, tilings[0]) == text
    other = render_text(region, tilings[1])
    assert other != text
    assert other.endswith("cells bottom to top: +1\n")


def test_render_svg_is_wellformed():
    region = build_region(3)
    tiling = next(iter(enumerate_tilings(region)))
    svg = render_svg(region, tiling)
    assert render_svg(region, tiling) == svg
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")
    body = ET.tostring(root, encoding="unicode")
    assert "rect" in body or "path" in body


# sha256 prefixes of each region's tilings in generation order (each
# tiling's sorted dominoes, one byte per coordinate plus 8), recorded from
# the backtracker that built a placement table per region; keyed by order,
# in all_kept_subsets order (the full region alone at order 5)
ENUMERATION_DIGESTS = {
    1: ["420e36ee8181", "7e2b46e96465"],
    2: ["439227f72960", "35f387bd5cfa", "bda0648ff70b", "cc11d7e864cd"],
    3: ["b6f0ca452324", "cc0e0c0ebb33", "d2961e235fbb", "285709298afe",
        "9b3334b31bf9", "c5445048c53a", "169b60006ab8", "9a5c0386d885"],
    4: ["18721f0b1760", "ca3059c959e3", "485b2acd183f", "01c653f9633d",
        "662c374ab2f6", "86e0cb81145e", "9047d28a348e", "52acf4c7b66b",
        "a0c1a9dbb387", "4f7208d071bb", "1b8eb2d51558", "dd0dcac0f710",
        "e88204386878", "0a19e70ae045", "ff62c89caf80", "8a5ba05e483c"],
    5: ["a6e2edb4566a"],
}
SYMMETRIC_DIGESTS = {
    1: ["420e36ee8181", "7e2b46e96465"],
    2: ["439227f72960", "35f387bd5cfa", "8e607186db5a", "846104cf076d"],
    3: ["b6f0ca452324", "cc0e0c0ebb33", "19e9491d9592", "9beefdd6bb8b",
        "0ab2567acb6a", "d55e0c73ccac", "08bb36f6bb3b", "af3c88d3f369"],
    4: ["18721f0b1760", "ca3059c959e3", "55563f4b7851", "abc0dd91f79c",
        "106eb50e3b11", "39471d3c575b", "e0792831d379", "950a4b69a265",
        "a7ab93acd099", "1b72bb58c29c", "ea1240a51f74", "77e37d7322d5",
        "1488fad22cca", "d89e3d31a91d", "04eceb5fee1f", "6c16b811ced0"],
    5: ["7a8a6f6170ee"],
}


def pinned_regions(n):
    return all_kept_subsets(n) if n < 5 else [frozenset(range(1, 6))]


def sequence_digest(tilings):
    h = hashlib.sha256()
    for tiling in tilings:
        h.update(bytes(c + 8 for domino in sorted(tiling) for square in domino
                       for c in square))
    return h.hexdigest()[:12]


@pytest.mark.parametrize("generate, digests", (
    (enumerate_tilings, ENUMERATION_DIGESTS),
    (symmetric_tilings, SYMMETRIC_DIGESTS)))
def test_generation_order_is_pinned(generate, digests):
    # one placement table per order, each region entering as a start mask,
    # keeps every region's order, and with it render --index
    for n, want in digests.items():
        got = [sequence_digest(generate(build_region(n, kept)))
               for kept in pinned_regions(n)]
        assert got == want, n


def region_table(region, images):
    """A placement table over the region's own squares, in (a, b) order:
    each square's rightward, then upward domino, with its images, where
    they fit the region, as (bitmask, dominoes)."""
    squares = sorted(region.squares)
    bit = {sq: 1 << i for i, sq in enumerate(squares)}
    table = []
    for a, b in squares:
        placements = []
        for d in (((a, b), (a + 1, b)), ((a, b), (a, b + 1))):
            dominoes = images(d)
            covered = [sq for domino in dominoes for sq in domino]
            if all(sq in bit for sq in covered):
                placements.append((sum(bit[sq] for sq in covered), dominoes))
        table.append(placements)
    return table


def region_tilings(region, images):
    """Every tiling by the region's own table, covering the first free
    square in each way in turn."""
    table = region_table(region, images)
    full = (1 << len(table)) - 1

    def rec(mask, acc):
        if mask == full:
            yield frozenset(acc)
            return
        first = ((mask + 1) & ~mask).bit_length() - 1
        for cover, dominoes in table[first]:
            if not mask & cover:
                yield from rec(mask | cover, acc + list(dominoes))

    return rec(0, [])


def test_counters_match_a_table_per_region():
    regions = [build_region(n, kept) for n in (1, 2, 3, 4)
               for kept in all_kept_subsets(n)]
    regions.append(build_region(5))
    mirrored = (lambda d: tuple({d, mirror_domino(d)}))
    for region in regions:
        assert count_all_tilings(region) == sum(
            1 for _ in region_tilings(region, lambda d: (d,)))
        off_diag = 0
        plus = [0] * region.n
        minus = [0] * region.n
        for tiling in region_tilings(region, mirrored):
            profile = reference_profile(region, tiling)
            defects = [k for k, value in enumerate(profile) if value]
            if not defects:
                off_diag += 1
            elif len(defects) == 1:
                k = defects[0]
                (plus if profile[k] > 0 else minus)[k] += 1
        assert classify_region_tilings(region) == (off_diag, tuple(plus),
                                                   tuple(minus))
