"""Graph construction, generators, blow-ups, odd girth, graph6, enumeration."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oddspectrum import (
    INFINITE,
    Graph,
    Graph6ParseError,
    LabeledGraphs,
    UnsupportedSizeError,
    blow_up,
    complete_bipartite,
    cycle_graph,
    eigenvalues,
    encode_graph6,
    graph_core,
    odd_girth,
    parse_graph6,
    petersen_graph,
)
from oddspectrum.graph_core import MAX_BFS_SOURCES, MAX_GRAPH6_VERTICES, decode_graph6
from util import (
    brute_force_odd_girth,
    level_bfs_odd_girth,
    neighbors,
    random_graph,
    reference_graph6,
    reference_parse_graph6,
    trace_powers,
    two_colorable,
)

# Derandomized and without an example database: every run tries the same cases.
PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)

# Text that is often graph6: characters from its alphabet, or a size header
# followed by exactly as many data bytes as it needs, with the optional prefix
# or a space in front.
GRAPH6_ALPHABET = "".join(chr(c) for c in range(63, 127))


def _header_and_data(n):
    size = (n * (n - 1) // 2 + 5) // 6
    return st.text(GRAPH6_ALPHABET, min_size=size, max_size=size).map(lambda d: chr(63 + n) + d)


graph6_like = st.builds(
    str.__add__,
    st.sampled_from(["", ">>graph6<<", " "]),
    st.one_of(st.text(GRAPH6_ALPHABET + " ", max_size=12), st.integers(0, 12).flatmap(_header_and_data)),
)


@st.composite
def graph6_graphs(draw):
    """A labeled graph on at most 62 vertices, its edge set drawn as a bitmask
    over the vertex pairs."""
    n = draw(st.integers(0, 62))
    pairs = [(u, v) for v in range(1, n) for u in range(v)]
    mask = draw(st.integers(0, (1 << len(pairs)) - 1))
    return Graph(n, [pair for j, pair in enumerate(pairs) if mask >> j & 1])


def test_graph_normalizes_and_validates():
    g = Graph(3, [(2, 0), (0, 2), (1, 2)])
    assert g.edges == ((0, 2), (1, 2))
    assert g.m == 2
    assert 2 in neighbors(g)[0] and 1 not in neighbors(g)[0]
    with pytest.raises(ValueError):
        Graph(3, [(1, 1)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph(-1)


def test_cycle_graph_shapes():
    g = cycle_graph(3)
    assert g.m == 3
    assert all(len(a) == 2 for a in neighbors(cycle_graph(7)))
    with pytest.raises(ValueError):
        cycle_graph(2)


@pytest.mark.parametrize("k,expected", [(3, 3), (5, 5), (7, 7), (6, INFINITE), (8, INFINITE)])
def test_cycle_odd_girth(k, expected):
    assert odd_girth(cycle_graph(k)) == expected


def test_complete_bipartite_shapes():
    assert complete_bipartite(1, 1).edges == ((0, 1),)
    assert odd_girth(complete_bipartite(3, 3)) == INFINITE
    g = complete_bipartite(2, 3)
    assert g.n == 5 and g.m == 6
    assert complete_bipartite(0, 4).m == 0
    with pytest.raises(ValueError):
        complete_bipartite(-1, 2)


def test_blow_up_identity():
    rng = random.Random(7)
    for _ in range(10):
        g = random_graph(rng, rng.randint(0, 7))
        assert blow_up(g, 1) == g


def test_blow_up_of_edge_is_four_cycle():
    assert blow_up(complete_bipartite(1, 1), 2) == complete_bipartite(2, 2)


def test_blow_up_c5_three_fold():
    g = blow_up(cycle_graph(5), 3)
    assert g.n == 15
    assert odd_girth(g) == 5
    s = eigenvalues(g)
    assert abs(s.lambda1 - 6.0) < 1e-8
    assert abs(s.lambda_n - (-6.0 * math.cos(math.pi / 5))) < 1e-8


def test_blow_up_validation():
    with pytest.raises(ValueError):
        blow_up(cycle_graph(3), 0)


def test_blow_up_preserves_odd_girth():
    rng = random.Random(11)
    for _ in range(25):
        g = random_graph(rng, rng.randint(1, 6))
        target = odd_girth(g)
        for m in (2, 3):
            assert odd_girth(blow_up(g, m)) == target


def test_odd_girth_petersen():
    g = petersen_graph()
    assert odd_girth(g) == 5
    assert brute_force_odd_girth(g, limit=5) == 5


def test_odd_girth_matches_bruteforce():
    rng = random.Random(101)
    for _ in range(150):
        g = random_graph(rng, rng.randint(0, 7), p=rng.choice([0.2, 0.4, 0.6]))
        assert odd_girth(g) == brute_force_odd_girth(g)


@st.composite
def odd_cycles_with_chords(draw):
    """An odd cycle of length 9..39, pendant vertices hung on it up to n <= 40,
    then up to three random chords, all relabelled."""
    length = 2 * draw(st.integers(4, 19)) + 1
    n = draw(st.integers(length, 40))
    edges = [(i, (i + 1) % length) for i in range(length)]
    edges += [(v, draw(st.integers(0, v - 1))) for v in range(length, n)]
    vertex = st.integers(0, n - 1)
    edges += [(u, v) for u, v in draw(st.lists(st.tuples(vertex, vertex), max_size=3)) if u != v]
    label = draw(st.permutations(range(n)))
    return Graph(n, [(label[u], label[v]) for u, v in edges])


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(odd_cycles_with_chords())
def test_odd_girth_is_first_nonzero_odd_trace(g):
    # Past brute-force sizes: the shortest odd closed walk, from exact traces,
    # is the odd girth, and a blow-up keeps it.
    traces = trace_powers(g, g.n)
    expected = next((j for j in range(1, g.n + 1, 2) if traces[j - 1]), INFINITE)
    assert odd_girth(g) == expected
    assert odd_girth(blow_up(g, 2)) == expected


def test_odd_girth_infinite_iff_two_colorable():
    rng = random.Random(5)
    for _ in range(200):
        g = random_graph(rng, rng.randint(0, 8), p=0.35)
        assert (odd_girth(g) == INFINITE) == two_colorable(g)


@st.composite
def mixed_graphs(draw):
    """One to four components, each random, random bipartite or a cycle, then
    up to 20 isolated vertices (n <= 140), all relabelled."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    n, edges = 0, []
    for _ in range(rng.randint(1, 4)):
        size = rng.randint(1, 30)
        kind = rng.choice(["random", "bipartite", "cycle"])
        if kind == "cycle":
            pairs = [(i, (i + 1) % size) for i in range(size)] if size >= 3 else []
        else:
            p = rng.choice([1.0, 1.5, 2.5, 8.0]) / size  # mean degree / size
            half = size // 2 if kind == "bipartite" else 0
            pairs = [(u, v) for u in range(size) for v in range(max(u + 1, half), size)]
            pairs = [pair for pair in pairs if rng.random() < p]
        edges += [(n + u, n + v) for u, v in pairs]
        n += size
    n += rng.randint(0, 20)
    label = list(range(n))
    rng.shuffle(label)
    return Graph(n, [(label[u], label[v]) for u, v in edges])


@PROPERTY
@given(mixed_graphs())
def test_odd_girth_matches_level_bfs(g):
    assert odd_girth(g) == level_bfs_odd_girth(g)


@pytest.mark.parametrize("pad", [0, 1, 65])
@pytest.mark.parametrize("length", [63, 64, 65, 127, 128, 129])
def test_odd_girth_cycles_at_word_boundaries(length, pad):
    # The cycle sits on vertices pad..pad+length-1, after pad isolated ones.
    g = Graph(pad + length, [(pad + i, pad + (i + 1) % length) for i in range(length)])
    assert odd_girth(g) == (length if length % 2 else INFINITE)


@pytest.mark.parametrize("n", [0, 1, 70])
def test_odd_girth_edgeless(n):
    assert odd_girth(Graph(n)) == INFINITE


@pytest.mark.parametrize("centre", [0, 151])
def test_odd_girth_skewed_degrees(centre):
    # K_{1,150} beside a C_9 on vertices 151..159, or centred on one of them.
    star = [(centre, leaf) for leaf in range(1, 151)]
    nine = [(151 + i, 151 + (i + 1) % 9) for i in range(9)]
    assert odd_girth(Graph(160, star + nine)) == 9


def test_odd_girth_long_path_is_bipartite():
    assert odd_girth(Graph(300, [(i, i + 1) for i in range(299)])) == INFINITE


@pytest.mark.parametrize("count", [63, 64, 65, 127, 128, 129])
@pytest.mark.parametrize("where", [0, -1])
def test_odd_girth_sources_at_word_boundaries(count, where):
    # count components, each a pendant vertex on an odd cycle: one source per
    # cycle, so the walk sets take ceil(count/64) words. The BFS from the
    # pendant vertex bounds a C_5 by 7 and a C_7 by 9, so only the walk sets
    # find the one C_5, whose source is the first or the last.
    lengths = [7] * count
    lengths[where] = 5
    assert odd_girth(pendant_cycles(lengths)) == 5


def pendant_cycles(lengths) -> Graph:
    """One component per length: a cycle of that length and a pendant vertex
    on it, numbered first, so that the BFS of odd_girth's first pass roots
    there. Each odd cycle gives one source."""
    edges, n = [], 0
    for length in lengths:
        edges.append((n, n + 1))
        edges += [(n + 1 + i, n + 1 + (i + 1) % length) for i in range(length)]
        n += length + 1
    return Graph(n, edges)


def relabelled(g: Graph, seed: int) -> Graph:
    label = list(range(g.n))
    random.Random(seed).shuffle(label)
    return Graph(g.n, [(label[u], label[v]) for u, v in g.edges])


# (graph, search it takes): BFS from each source up to MAX_BFS_SOURCES
# sources, walk sets above.
SELECTION_CASES = {
    "C101": (lambda: relabelled(cycle_graph(101), 1), "bfs"),  # 1 source
    "C801": (lambda: relabelled(cycle_graph(801), 2), "bfs"),  # 1 source
    "C51x4": (lambda: relabelled(blow_up(cycle_graph(51), 4), 3), "bfs"),  # 4 sources
    "Petersenx20": (lambda: relabelled(blow_up(petersen_graph(), 20), 4), "walk_sets"),  # 80
    "at_threshold": (lambda: pendant_cycles([7] * (MAX_BFS_SOURCES - 1) + [5]), "bfs"),
    "past_threshold": (lambda: pendant_cycles([7] * MAX_BFS_SOURCES + [5]), "walk_sets"),
}


def spy_on_odd_girth_searches(monkeypatch) -> list[str]:
    """The searches odd_girth runs after its first pass, in call order."""
    taken = []
    for side, name in (("bfs", "_source_bfs_girth"), ("walk_sets", "_walk_set_girth")):
        search = getattr(graph_core, name)
        monkeypatch.setattr(
            graph_core, name, lambda *args, _s=search, _side=side: taken.append(_side) or _s(*args)
        )
    return taken


@pytest.mark.parametrize("case", SELECTION_CASES)
def test_odd_girth_selection_sides(monkeypatch, case):
    build, side = SELECTION_CASES[case]
    g = build()
    taken = spy_on_odd_girth_searches(monkeypatch)
    assert odd_girth(g) == level_bfs_odd_girth(g)
    assert taken == [side]


def test_odd_girth_selection_sides_on_random_graphs(monkeypatch):
    # Small graphs have at most n sources, so their BFS runs, checked against
    # brute force; sparse graphs on 300 vertices have well over 64.
    taken = spy_on_odd_girth_searches(monkeypatch)
    rng = random.Random(17)
    for _ in range(60):
        g = random_graph(rng, rng.randint(5, 9), rng.choice([0.25, 0.4]))
        del taken[:]
        assert odd_girth(g) == brute_force_odd_girth(g)
        assert taken in ([], ["bfs"])
    for degree in (4, 5):
        g = random_graph(rng, 300, degree / 300)
        del taken[:]
        assert odd_girth(g) == level_bfs_odd_girth(g)
        assert taken == ["walk_sets"]


def test_odd_girth_many_sources_in_one_component():
    # Sparse random graphs on 300 vertices have well over 64 sources, several
    # of them at odd distances shorter than the odd girth: a source's bit in
    # the wrong word of its row would read as a hit.
    rng = random.Random(5)
    for degree in (4, 5, 6):
        g = random_graph(rng, 300, degree / 300)
        assert odd_girth(g) == level_bfs_odd_girth(g)


def test_parse_graph6_known_values():
    assert parse_graph6("A_") == complete_bipartite(1, 1)
    assert parse_graph6("Dhc") == cycle_graph(5)
    assert parse_graph6("@") == Graph(1)
    assert parse_graph6("D??") == Graph(5)
    assert parse_graph6(">>graph6<<A_") == complete_bipartite(1, 1)


def test_encode_graph6_known_values():
    assert encode_graph6(complete_bipartite(1, 1)) == "A_"
    assert encode_graph6(cycle_graph(5)) == "Dhc"
    assert encode_graph6(Graph(5)) == "D??"
    assert encode_graph6(Graph(1)) == "@"


def test_encode_matches_reference_implementation():
    rng = random.Random(23)
    for n in range(MAX_GRAPH6_VERTICES + 1):
        for p in (0.0, 0.2, 0.5, 1.0):
            g = random_graph(rng, n, p)
            assert encode_graph6(g) == reference_graph6(g.n, g.edges)


def test_graph6_round_trips():
    rng = random.Random(31)
    for _ in range(80):
        g = random_graph(rng, rng.randint(0, 20), p=rng.random())
        text = encode_graph6(g)
        assert parse_graph6(text) == g
        assert encode_graph6(parse_graph6(text)) == text
    # Largest supported header value.
    g = random_graph(rng, 62, p=0.3)
    assert parse_graph6(encode_graph6(g)) == g


@pytest.mark.parametrize(
    "text,offset",
    [
        ("", 0),
        ("~???", 0),  # multi-byte header unsupported
        (" ", 0),  # stripped to empty
        ("D", 1),  # truncated: needs two data bytes
        ("Dhcc", 3),  # trailing garbage
        ("A_X", 2),
        ("D" + chr(32) + "c", 1),  # non-printable data byte
        ("Do", 2),  # short by one byte
        # Offsets count from the start of the text as given.
        (">>graph6<<Dhcc", 13),
        ("  Dhcc", 5),
        (">>graph6<<D", 11),
        # ... in UTF-8 bytes: a no-break space is two.
        ("\xa0Dhcc", 5),
        ("\xa0>>graph6<<D\xe9", 13),
    ],
)
def test_parse_graph6_errors(text, offset):
    errors = []
    for decode in (parse_graph6, decode_graph6):
        with pytest.raises(Graph6ParseError) as exc_info:
            decode(text)
        errors.append((str(exc_info.value), exc_info.value.offset))
    assert errors[0] == errors[1]
    assert errors[0][1] == offset


def test_parse_graph6_rejects_nonzero_padding():
    # K2 has one edge bit; the remaining five bits of the byte must be zero.
    with pytest.raises(Graph6ParseError):
        parse_graph6("A" + chr(63 + 0b100001))


@PROPERTY
@given(st.one_of(st.text(), graph6_like))
def test_parse_graph6_total_on_text(text):
    # Either a graph whose canonical encoding is the input itself, or the
    # typed error with a byte offset inside the input; never another exception.
    try:
        g = parse_graph6(text)
    except Graph6ParseError as exc:
        assert 0 <= exc.offset <= len(text.encode("utf-8", "surrogateescape"))
    else:
        assert encode_graph6(g) == text.strip().removeprefix(">>graph6<<")


@PROPERTY
@given(graph6_graphs())
def test_graph6_round_trip_property(g):
    assert parse_graph6(encode_graph6(g)) == g


def _assert_like_built_graph(g):
    # parse_graph6 builds its Graph without Graph.__init__; it must be one
    # that __init__ would have built from the same edges.
    built = Graph(g.n, g.edges)
    assert type(g) is Graph
    assert g.edges == built.edges
    assert hash(g) == hash(built)
    assert g == built and built == g


def _assert_parsers_agree(text):
    # The same graph, edge tuple included, or the same error at the same
    # offset; from parse_graph6 and from decode_graph6's bits alike.
    try:
        want = reference_parse_graph6(text)
    except Graph6ParseError as exc:
        for decode in (parse_graph6, decode_graph6):
            with pytest.raises(Graph6ParseError) as got:
                decode(text)
            assert (str(got.value), got.value.offset) == (str(exc), exc.offset)
    else:
        g = parse_graph6(text)
        assert (g.n, g.edges) == (want.n, want.edges)
        _assert_like_built_graph(g)
        n, bits = decode_graph6(text)
        edges = set(want.edges)
        assert (n, bits) == (want.n, bytes((u, v) in edges for v in range(n) for u in range(v)))


@st.composite
def corrupted_graph6(draw):
    """A valid encoding with one character replaced by any of U+0000..U+00FF."""
    text = encode_graph6(draw(graph6_graphs()))
    i = draw(st.integers(0, len(text) - 1))
    return text[:i] + chr(draw(st.integers(0, 255))) + text[i + 1 :]


@PROPERTY
@given(st.one_of(st.text(), graph6_like, corrupted_graph6()))
def test_parse_graph6_matches_reference_parser(text):
    _assert_parsers_agree(text)


@pytest.mark.parametrize("n", [0, 1, 2, MAX_GRAPH6_VERTICES])
def test_parse_graph6_matches_reference_parser_at_edge_sizes(n):
    rng = random.Random(n)
    for p in (0.0, 0.5, 1.0):
        text = encode_graph6(random_graph(rng, n, p))
        _assert_parsers_agree(text)
        _assert_parsers_agree(">>graph6<<" + text)
        _assert_parsers_agree(text[:-1])
        _assert_parsers_agree(text + "?")


@pytest.mark.parametrize(
    "n", [n for n in range(MAX_GRAPH6_VERTICES + 1) if n * (n - 1) // 2 % 6]
)
def test_parse_graph6_padding_bit_at_every_size(n):
    # The last bit of the last data byte is padding for these n.
    text = encode_graph6(Graph(n))[:-1] + chr(63 + 1)
    with pytest.raises(Graph6ParseError, match="nonzero padding bits") as exc_info:
        parse_graph6(text)
    assert exc_info.value.offset == len(text) - 1
    _assert_parsers_agree(text)


def test_parsed_graphs_equal_normally_built_ones():
    rng = random.Random(47)
    for n in range(MAX_GRAPH6_VERTICES + 1):
        for p in (0.0, 0.3, 1.0):
            g = random_graph(rng, n, p)
            parsed = parse_graph6(encode_graph6(g))
            _assert_like_built_graph(parsed)
            assert parsed == g and hash(parsed) == hash(g)


def test_encode_too_large():
    with pytest.raises(UnsupportedSizeError):
        encode_graph6(Graph(63))


def test_enumerate_counts():
    assert len(list(LabeledGraphs(0))) == 1
    three = list(LabeledGraphs(3))
    assert len(three) == 8
    assert len(set(three)) == 8
    assert three[0] == Graph(3)
    assert three[-1].m == 3  # complete graph comes last in bitmask order
    assert len(list(LabeledGraphs(4))) == 64


def test_enumerate_limit():
    with pytest.raises(UnsupportedSizeError):
        LabeledGraphs(9)


def test_enumerated_max_measure_at_five_vertices():
    # Exhaustive oracle: among 5-vertex graphs with odd girth >= 5 the cycle
    # itself maximizes the measure.
    best = max(
        eigenvalues(g).measure
        for g in LabeledGraphs(5)
        if odd_girth(g) >= 5
    )
    expected = (2.0 / 5.0) * (1.0 - math.cos(math.pi / 5.0))
    assert abs(best - expected) < 1e-8
