import hashlib
import math
from fractions import Fraction
from pathlib import Path

import pytest

from transknot.cli import MAX_COUNT, MAX_ORDER, MAX_RESOLUTIONS, dispatch, render_svg
from transknot.diagram import build_diagram, parse_diagram, serialize_diagram
from transknot.fixtures import trefoil_right, u_minus, u_minus_forbidden
from transknot.geometry import dot, vec
from transknot.invariants import self_linking, v2, writhe
from transknot.moves_singular import (
    DefectReport,
    OrderCheckResult,
    make_singular,
    resolve,
    stabilize,
)

INPUT_DIR = Path(__file__).resolve().parents[1] / "perfbench" / "inputs"
FLOAT_RANGE_ERROR = "error: coordinates from 2**510 or features within 2**-511 leave float range"


@pytest.fixture
def u_minus_file(tmp_path):
    path = tmp_path / "u_minus.txt"
    path.write_text(serialize_diagram(u_minus()), encoding="utf-8")
    return str(path)


@pytest.fixture
def trefoil_file(tmp_path):
    path = tmp_path / "trefoil.txt"
    path.write_text(serialize_diagram(trefoil_right()), encoding="utf-8")
    return str(path)


class TestValidate:
    def test_valid_file(self, u_minus_file):
        out = dispatch(["validate", u_minus_file])
        assert out.exit_code == 0
        assert out.stdout_lines == []

    def test_forbidden_over_choice(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text(serialize_diagram(u_minus_forbidden()), encoding="utf-8")
        out = dispatch(["validate", str(path)])
        assert out.exit_code == 1
        assert out.stdout_lines == ["VIOLATION ForbiddenCrossing (0,0)"]

    def test_upward_edge(self, tmp_path):
        path = tmp_path / "square.txt"
        path.write_text(
            "transverse-diagram/1\ncoorientation: +\nvertices:\n"
            "0 0\n4 0\n4 4\n0 4\nover:\nend\n",
            encoding="utf-8",
        )
        out = dispatch(["validate", str(path)])
        assert out.exit_code == 1
        assert "VIOLATION UpwardEdge e2" in out.stdout_lines

    def test_crossing_mismatch(self, u_minus_file, tmp_path):
        text = open(u_minus_file).read().replace("cross 1 6", "cross 2 5")
        path = tmp_path / "mismatch.txt"
        path.write_text(text, encoding="utf-8")
        out = dispatch(["validate", str(path)])
        assert out.exit_code == 1
        assert out.stdout_lines == [
            "VIOLATION CrossingMismatch e1,e6",
            "VIOLATION CrossingMismatch e2,e5",
        ]

    def test_nongeneric_file(self, tmp_path):
        path = tmp_path / "flat.txt"
        path.write_text(
            "transverse-diagram/1\ncoorientation: +\nvertices:\n"
            "0 0\n2 0\n1 0\nover:\nend\n",
            encoding="utf-8",
        )
        out = dispatch(["validate", str(path)])
        assert out.exit_code == 1
        assert any("CollinearOverlap" in line for line in out.stdout_lines)

    def test_missing_file(self):
        out = dispatch(["validate", "/no/such/file.txt"])
        assert out.exit_code == 1
        assert out.stdout_lines[0].startswith("error:")

    def test_garbage_file(self, tmp_path):
        path = tmp_path / "garbage.txt"
        path.write_text("not a diagram\n", encoding="utf-8")
        out = dispatch(["validate", str(path)])
        assert out.exit_code == 1
        assert out.stdout_lines[0].startswith("error:")


class TestInvariants:
    def test_u_minus(self, u_minus_file):
        out = dispatch(["invariants", u_minus_file])
        assert out.exit_code == 0
        assert out.stdout_lines == [
            "writhe=-1",
            "sl=-1",
            "whitney=0",
            "crossings=1",
            "v2=0",
        ]

    def test_trefoil(self, trefoil_file):
        out = dispatch(["invariants", trefoil_file])
        assert out.exit_code == 0
        assert out.stdout_lines == [
            "writhe=1",
            "sl=1",
            "whitney=0",
            "crossings=7",
            "v2=1",
        ]

    def test_invalid_diagram_reports_violations(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text(serialize_diagram(u_minus_forbidden()), encoding="utf-8")
        out = dispatch(["invariants", str(path)])
        assert out.exit_code == 1
        assert out.stdout_lines == ["VIOLATION ForbiddenCrossing (0,0)"]


def test_oracle_sl(u_minus_file, trefoil_file):
    assert dispatch(["oracle-sl", u_minus_file]).stdout_lines == ["oracle_sl=-1"]
    assert dispatch(["oracle-sl", trefoil_file]).stdout_lines == ["oracle_sl=1"]


def test_oracle_sl_is_the_sl_line_on_every_benchmark_input():
    # the same exit code from both commands; on a valid file oracle_sl=
    # is the sl= line, and on an invalid one the oracle prints one line
    inputs = sorted((Path(__file__).resolve().parents[1] / "perfbench" / "inputs").glob("*/*.td"))
    codes = []
    for path in inputs:
        oracle, values = dispatch(["oracle-sl", str(path)]), dispatch(["invariants", str(path)])
        assert oracle.exit_code == values.exit_code
        if values.exit_code == 0:
            assert ["oracle_" + line for line in values.stdout_lines
                    if line.startswith("sl=")] == oracle.stdout_lines
        else:
            assert len(oracle.stdout_lines) == 1
        codes.append(values.exit_code)
    assert len(inputs) == 12 and sorted(set(codes)) == [0, 1]


class TestStabilize:
    def test_writes_stabilized_diagram(self, u_minus_file, tmp_path):
        out_path = tmp_path / "stab.txt"
        out = dispatch(
            ["stabilize", u_minus_file, "--edge", "5", "--count", "1", "-o", str(out_path)]
        )
        assert out.exit_code == 0
        d = parse_diagram(out_path.read_text(encoding="utf-8"))
        assert writhe(d) == -3
        assert len(d.crossings) == 3

    def test_bad_edge_is_a_domain_error(self, u_minus_file, tmp_path):
        out = dispatch(
            ["stabilize", u_minus_file, "--edge", "99", "--count", "1",
             "-o", str(tmp_path / "x.txt")]
        )
        assert out.exit_code == 1
        assert out.stdout_lines[0].startswith("error:")


class TestResolve:
    def test_flip_one_braid_crossing(self, trefoil_file, tmp_path):
        out_path = tmp_path / "resolved.txt"
        out = dispatch(
            ["resolve", trefoil_file, "--sites", "1,2", "--assign", "+-",
             "-o", str(out_path)]
        )
        assert out.exit_code == 0
        d = parse_diagram(out_path.read_text(encoding="utf-8"))
        assert writhe(d) == -1
        assert v2(d) == 0

    def test_all_positive_restores_input(self, trefoil_file, tmp_path):
        out_path = tmp_path / "same.txt"
        dispatch(
            ["resolve", trefoil_file, "--sites", "1,2,3", "--assign", "+++",
             "-o", str(out_path)]
        )
        assert out_path.read_text(encoding="utf-8") == serialize_diagram(trefoil_right())

    @pytest.mark.parametrize("sites, assign", [([1, 2], "--"), ([1, 2], "-+"), ([1], "-")])
    def test_attached_assign_value(self, trefoil_file, tmp_path, sites, assign):
        # argparse reads a bare "--" value as its end-of-options marker
        out_path = tmp_path / "resolved.txt"
        out = dispatch(
            ["resolve", trefoil_file, "--sites", ",".join(map(str, sites)),
             f"--assign={assign}", "-o", str(out_path)]
        )
        assert out.exit_code == 0
        zero_based = [i - 1 for i in sites]
        s = make_singular(trefoil_right(), zero_based)
        signs = [1 if ch == "+" else -1 for ch in assign]
        want = resolve(s, dict(zip(zero_based, signs)))
        assert out_path.read_text(encoding="utf-8") == serialize_diagram(want)

    @pytest.mark.parametrize("sites, assign", [([1, 2], "--"), ([1, 2], "-+"), ([1], "-")])
    def test_separate_assign_value(self, trefoil_file, tmp_path, sites, assign):
        # a value given as its own argument resolves as the attached one
        attached, separate = tmp_path / "attached.txt", tmp_path / "separate.txt"
        head = ["resolve", trefoil_file, "--sites", ",".join(map(str, sites))]
        assert dispatch([*head, f"--assign={assign}", "-o", str(attached)]).exit_code == 0
        out = dispatch([*head, "--assign", assign, "-o", str(separate)])
        assert out.exit_code == 0
        assert separate.read_bytes() == attached.read_bytes()

    def test_assign_must_match_sites(self, trefoil_file, tmp_path):
        out = dispatch(
            ["resolve", trefoil_file, "--sites", "1,2", "--assign", "+",
             "-o", str(tmp_path / "x.txt")]
        )
        assert out.exit_code == 1
        assert "length" in out.stdout_lines[0]

    @pytest.mark.parametrize("site", [0, 8, 9])
    def test_site_out_of_range_names_the_1_based_range(self, trefoil_file, tmp_path, site):
        out_path = tmp_path / "resolved.txt"
        out = dispatch(["resolve", trefoil_file, "--sites", str(site), "--assign", "+",
                        "-o", str(out_path)])
        assert out.exit_code == 1
        assert out.stdout_lines == [f"error: --sites index {site} is not in 1..7"]
        assert not out_path.exists()

    def test_repeated_site_is_refused(self, trefoil_file, tmp_path):
        out_path = tmp_path / "resolved.txt"
        out = dispatch(["resolve", trefoil_file, "--sites", "1,1", "--assign", "+-",
                        "-o", str(out_path)])
        assert out.exit_code == 1
        assert out.stdout_lines == ["error: --sites lists site 1 twice"]
        assert not out_path.exists()

    @pytest.mark.parametrize("sites, assign, message", [
        ("1", "x", "error: --assign must be a string of + and -, got 'x'"),
        ("", "+", "error: --assign length must match the number of sites"),
    ])
    def test_bad_assign_is_one_error_line(self, trefoil_file, tmp_path, sites, assign,
                                          message):
        out_path = tmp_path / "resolved.txt"
        out = dispatch(["resolve", trefoil_file, "--sites", sites, "--assign", assign,
                        "-o", str(out_path)])
        assert (out.exit_code, out.stdout_lines) == (1, [message])
        assert not out_path.exists()

    def test_forced_site_is_a_domain_error(self, u_minus_file, tmp_path):
        out = dispatch(
            ["resolve", u_minus_file, "--sites", "1", "--assign", "+",
             "-o", str(tmp_path / "x.txt")]
        )
        assert out.exit_code == 1
        assert "forced over bit" in out.stdout_lines[0]

    @pytest.mark.parametrize("name, sites, assign, message", [
        ("hosts/trefoil_right.td", "5", "-", "error: --sites index 5 has a forced over bit"),
        ("hosts/trefoil_right.td", "7,1,5", "+-+", "error: --sites index 5 has a forced over bit"),
        ("cli/u_minus.td", "1", "+", "error: --sites index 1 has a forced over bit"),
        ("hosts/trefoil_right.td", "5,8", "++", "error: --sites index 8 is not in 1..7"),
        ("hosts/trefoil_right.td", "5,5", "++", "error: --sites lists site 5 twice"),
        ("cli/forbidden.td", "1", "+", "error: diagram is not valid (1 violations)"),
    ])
    def test_forced_site_is_named_as_given(self, tmp_path, name, sites, assign, message):
        # range and repeat are checked first, then validity, then the
        # forced sites, of which the lowest is named by its 1-based index
        out_path = tmp_path / "resolved.txt"
        out = dispatch(["resolve", str(INPUT_DIR / name), "--sites", sites,
                        f"--assign={assign}", "-o", str(out_path)])
        assert (out.exit_code, out.stdout_lines) == (1, [message])
        assert not out_path.exists()


class TestOrderCheck:
    def test_writhe_passes_order_one(self):
        out = dispatch(
            ["order-check", "--invariant", "writhe", "--order", "1",
             "--seed", "11", "--samples", "3"]
        )
        assert out.exit_code == 0
        assert out.stdout_lines == ["defect=0", "defect=0", "defect=0"]

    def test_writhe_fails_order_zero(self):
        out = dispatch(
            ["order-check", "--invariant", "writhe", "--order", "0",
             "--seed", "11", "--samples", "3"]
        )
        assert out.exit_code == 1
        assert out.stdout_lines == ["defect=2", "defect=2", "defect=2"]

    def test_v2_fails_order_one(self):
        out = dispatch(
            ["order-check", "--invariant", "v2", "--order", "1",
             "--seed", "5", "--samples", "2"]
        )
        assert out.exit_code == 1
        assert out.stdout_lines[0] == "defect=1"

    def test_sl_pullback_passes_order_one(self):
        out = dispatch(
            ["order-check", "--invariant", "sl-pullback", "--order", "1",
             "--seed", "11", "--samples", "2"]
        )
        assert out.exit_code == 0

    @pytest.mark.parametrize("holds, code", [(True, 0), (False, 1)])
    def test_prints_the_library_verdict(self, monkeypatch, holds, code):
        # one defect= line per report, and the exit code is is_order_at_most's
        reports = (DefectReport("writhe", 1, 0, 4), DefectReport("writhe", 1, 3, 4))
        monkeypatch.setattr("transknot.moves_singular.is_order_at_most",
                            lambda inv, n, family: OrderCheckResult(holds, reports))
        out = dispatch(["order-check", "--invariant", "writhe", "--order", "1",
                        "--seed", "11", "--samples", "2"])
        assert (out.exit_code, out.stdout_lines) == (code, ["defect=0", "defect=3"])


def test_mtor():
    assert dispatch(["mtor", "--pairings", "4,6"]).stdout_lines == ["m=2"]
    assert dispatch(["mtor"]).stdout_lines == ["m=0"]


def test_mtor_takes_a_separate_pairing_list_that_starts_negative():
    out = dispatch(["mtor", "--pairings", "-4,6,0"])
    assert (out.exit_code, out.stdout_lines) == (0, ["m=2"])


@pytest.mark.parametrize("argv", [
    ["exists", "--pairings", "-4,6", "--exhaustive"],
    ["exists", "--exhaustive", "--pairings", "-4,6"],
    ["distinguish", "--tight", "1", "--pairings", "-4,6", "--stabilizations", "1"],
    ["distinguish", "--pairings", "-4,6", "--stabilizations", "1"],
])
def test_descriptor_takes_a_separate_pairing_list_that_starts_negative(argv):
    i = argv.index("--pairings")
    attached = argv[:i] + [f"--pairings={argv[i + 1]}"] + argv[i + 2:]
    out = dispatch(argv)
    assert out.exit_code != 2
    assert out == dispatch(attached)


def test_pairings_still_refuse_a_missing_or_bad_list():
    assert dispatch(["mtor", "--pairings"]).exit_code == 2
    assert dispatch(["mtor", "--pairings", "--"]).exit_code == 2
    out = dispatch(["mtor", "--pairings", "-4,a"])
    assert out.exit_code == 2
    assert "expected comma-separated integers, got '-4,a'" in out.stdout_lines[-1]


class TestExists:
    def test_flag_verdict(self):
        out = dispatch(["exists", "--tight", "1"])
        assert out.exit_code == 0
        assert out.stdout_lines == ["EXISTS tight-contact-structure"]

    def test_empty_pairings_mean_m_t_zero(self):
        assert dispatch(["exists"]).stdout_lines == ["EXISTS m_T=0"]

    def test_exhaustive_pairings(self):
        out = dispatch(["exists", "--pairings", "4,6", "--exhaustive"])
        assert out.stdout_lines == ["MOD 2"]

    def test_partial_pairings(self):
        assert dispatch(["exists", "--pairings", "4,6"]).stdout_lines == ["UNKNOWN"]


class TestDistinguish:
    def test_distinguished(self):
        out = dispatch(["distinguish", "--tight", "1", "--stabilizations", "1"])
        assert out.exit_code == 0
        assert out.stdout_lines == ["DISTINGUISHED", "F(K1) = (-2)·F(K0)"]

    def test_inconclusive_with_sphere(self):
        out = dispatch(
            ["distinguish", "--tight", "1", "--sphere", "1", "--stabilizations", "2"]
        )
        assert out.exit_code == 1
        assert out.stdout_lines == ["INCONCLUSIVE", "F(K1) = (-4)·F(K0)"]

    def test_unestablished_descriptor(self):
        out = dispatch(
            ["distinguish", "--pairings", "4,6", "--stabilizations", "1"]
        )
        assert out.exit_code == 1
        assert out.stdout_lines[0].startswith("error:")

    def test_negative_count_is_an_error(self):
        out = dispatch(["distinguish", "--tight", "1", "--stabilizations", "-3"])
        assert out.exit_code == 1
        assert out.stdout_lines == ["error: stabilization count must be nonnegative"]


class TestRender:
    def test_u_minus_svg(self, u_minus_file, tmp_path):
        out_path = tmp_path / "um.svg"
        out = dispatch(["render", u_minus_file, "-o", str(out_path)])
        assert out.exit_code == 0
        svg = out_path.read_text(encoding="utf-8")
        assert svg.startswith("<?xml")
        assert svg.count("<polyline") == 11  # 10 edges + 1 broken under-strand
        assert render_svg(u_minus()) == svg

    def test_trefoil_piece_count(self, trefoil_file, tmp_path):
        out_path = tmp_path / "t.svg"
        dispatch(["render", trefoil_file, "-o", str(out_path)])
        svg = out_path.read_text(encoding="utf-8")
        assert svg.count("<polyline") == 15 + 7  # 15 edges + 7 under passes

    @pytest.mark.parametrize("name, digest", [
        ("hosts/trefoil_right.td",
         "6279016d0162c224e9cd3b37b357cd92e40b24648f5611324a7a89b65782863e"),
        ("ladder/trefoil_right-e1-k2.td",
         "0326bf54778abfca87fd726e57e6a846fa4b7a1ee9a0a7924b18aa7994d0a6eb"),
        ("ladder/trefoil_right-e1-k4.td",
         "db0a92fa5c27fbbfbe9b22bc1e13bb0b7673f362bb2a79c7e202067ce480ffce"),
        ("ladder/trefoil_right-e1-k8.td",
         "a61625d9f8cdbc0c65e977a391f36442af5040787bb917bdc69ce42b72624d06"),
    ])
    def test_svg_bytes_are_pinned(self, name, digest):
        # SHA-256 of the pictures as drawn when each edge sorted its own
        # float cuts; the exact along-edge order must draw the same bytes.
        # The stabilized rungs are drawn with the floor stroke, a
        # thousandth of the picture's larger side, and each of their
        # breaks is sized by its own room.
        path = Path(__file__).resolve().parents[1] / "perfbench" / "inputs" / name
        svg = render_svg(parse_diagram(path.read_text(encoding="utf-8")))
        assert hashlib.sha256(svg.encode()).hexdigest() == digest

    @pytest.mark.parametrize("name, loops, digest", [
        ("cli/forbidden.td", 0,
         "0280290a4aad0651f8fe6e7746bcf89237ad15a3e0ec6a4be6d71d3e1e309e4f"),
        ("cli/minus_unknot.td", 0,
         "3b16839db9d05bf7cfba279bde30060fd108873d748511f063030718abb7d4ea"),
        ("cli/u_minus.td", 0,
         "bd0877fc813d9f46697bbd82723bfbdd8389a79c708e2fbb24fb61b470e0810e"),
        ("hosts/random-minus-2.td", 0,
         "49291fffb419fe4151fe4e525fe9c541db1c1131d127eaf333db9d2d33205d18"),
        ("hosts/random-plus-1.td", 0,
         "29d92d14c037055c15717f5a70e19902e7a731cdd0740a77c927a4278cb24ae3"),
        ("hosts/trefoil_left.td", 0,
         "3dd3cdf33dd22ba94a02f1d22f18e75aad8c6e855a184fda9a93d89b68262b81"),
        ("ladder/trefoil_right-e1-k0.td", 0,
         "6279016d0162c224e9cd3b37b357cd92e40b24648f5611324a7a89b65782863e"),
        ("hosts/random-minus-2.td", 2,
         "20fd2b2a111d3cdef60ae5fda2ac1c8e602dbe5788af0b7cf5836c128d883c2e"),
    ])
    def test_svg_bytes_of_the_other_inputs_are_pinned(self, name, loops, digest):
        # SHA-256 of the pictures, as drawn from the Fraction vertices, of
        # every parseable input the test above leaves out, and of a
        # random host with two loops on edge 5 (scale 10240, two crossings
        # on an edge): drawn from the curve's ints, they are the same bytes
        d = parse_diagram((INPUT_DIR / name).read_text(encoding="utf-8"))
        svg = render_svg(stabilize(d, 5, loops) if loops else d)
        assert hashlib.sha256(svg.encode()).hexdigest() == digest

    @pytest.mark.parametrize("path", sorted(INPUT_DIR.glob("ladder/*.td")) + sorted(
        INPUT_DIR.glob("hosts/*.td")), ids=lambda path: f"{path.parent.name}/{path.name}")
    def test_every_stroke_is_visible(self, path):
        # half the gap of a deep stabilization is below the printed
        # precision; the floor keeps every stroke visible
        svg = render_svg(parse_diagram(path.read_text(encoding="utf-8")))
        width = svg.split('stroke-width="', 1)[1].split('"', 1)[0]
        assert Fraction(width) > 0

    @pytest.mark.parametrize("path", sorted(INPUT_DIR.glob("ladder/*.td")) + sorted(
        INPUT_DIR.glob("hosts/*.td")), ids=lambda path: f"{path.parent.name}/{path.name}")
    def test_every_break_with_room_clears_its_stroke(self, path):
        # the room of a crossing is half the distance along its under
        # edge to the neighbouring crossing or the edge's end; where it
        # exceeds twice the stroke, the printed ends of the two pieces
        # of the under edge lie more than one stroke apart
        d = parse_diagram(path.read_text(encoding="utf-8"))
        svg = render_svg(d)
        stroke = float(svg.split('stroke-width="', 1)[1].split('"', 1)[0])
        pieces = iter([[tuple(map(float, end.split(","))) for end in line.split('"')[1].split()]
                       for line in svg.splitlines() if line.startswith("<polyline")])
        checked = 0
        for i, a, b in d.curve.edges():
            e = vec(a, b)
            on = sorted(((dot(vec(a, c.point), e) / dot(e, e), c) for c in d.crossings
                         if i in (c.lo, c.hi)), key=lambda tc: tc[0])
            ts = [0, *(t for t, _ in on), 1]
            piece = next(pieces)
            for j, (t, c) in enumerate(on, start=1):
                if c.under_edge != i:
                    continue
                after = next(pieces)
                room = min(t - ts[j - 1], ts[j + 1] - t) / 2 * math.sqrt(float(dot(e, e)))
                if room > 2 * stroke:
                    assert math.dist(piece[-1], after[0]) > stroke, (i, c)
                    checked += 1
                piece = after
        assert next(pieces, None) is None
        assert checked >= min(len(d.entries), 7)  # the trefoil's seven at least


def _must_not_run(*args, **kwargs):
    pytest.fail("the bound was not checked before the work started")


class TestWorkBounds:
    # Only bound + 1 is ever passed: the value is refused before any
    # work, so no test runs an extreme --count or --order.
    def test_count_over_bound(self, u_minus_file, tmp_path, monkeypatch):
        monkeypatch.setattr("transknot.moves_singular.stabilize", _must_not_run)
        out_path = tmp_path / "out.txt"
        out = dispatch(["stabilize", u_minus_file, "--edge", "1",
                        "--count", str(MAX_COUNT + 1), "-o", str(out_path)])
        assert out.exit_code == 1
        assert out.stdout_lines == [f"error: --count must be at most {MAX_COUNT}"]
        assert not out_path.exists()

    def test_order_over_bound(self, monkeypatch):
        monkeypatch.setattr("transknot.moves_singular.singular_family", _must_not_run)
        out = dispatch(["order-check", "--invariant", "writhe", "--order",
                        str(MAX_ORDER + 1), "--seed", "1", "--samples", "1"])
        assert out.exit_code == 1
        assert out.stdout_lines == [f"error: --order must be at most {MAX_ORDER}"]

    @pytest.mark.parametrize("order", [0, 2, MAX_ORDER])
    def test_samples_over_bound(self, monkeypatch, order):
        monkeypatch.setattr("transknot.moves_singular.singular_family", _must_not_run)
        samples = MAX_RESOLUTIONS // 2 ** (order + 1) + 1
        out = dispatch(["order-check", "--invariant", "writhe", "--order", str(order),
                        "--seed", "1", "--samples", str(samples)])
        assert out.exit_code == 1
        assert out.stdout_lines == [
            f"error: --samples times 2**(order + 1) must be at most {MAX_RESOLUTIONS}"]

    @pytest.mark.parametrize("order, samples, message", [
        ("-1", "1", "error: --order must be nonnegative"),
        ("1", "0", "error: --samples must be positive"),
    ])
    def test_order_and_samples_below_range(self, monkeypatch, order, samples, message):
        monkeypatch.setattr("transknot.moves_singular.singular_family", _must_not_run)
        out = dispatch(["order-check", "--invariant", "writhe", "--order", order,
                        "--seed", "1", "--samples", samples])
        assert (out.exit_code, out.stdout_lines) == (1, [message])

    @pytest.mark.parametrize("limit, value, message", [
        ("MAX_VERTICES", 9, "error: line 13: more than 9 vertices"),
        ("MAX_EDGE_PAIRS", 5, "error: more than 5 pairs of edges with meeting boxes"),
    ])
    @pytest.mark.parametrize("command", ["validate", "invariants", "oracle-sl"])
    def test_file_past_a_parse_limit(self, u_minus_file, monkeypatch, limit, value, message,
                                     command):
        monkeypatch.setattr(f"transknot.diagram.{limit}", value)
        out = dispatch([command, u_minus_file])
        assert (out.exit_code, out.stdout_lines) == (1, [message])

    def test_samples_at_bound_reach_the_family(self, monkeypatch):
        asked = []
        monkeypatch.setattr("transknot.moves_singular.singular_family",
                            lambda seed, doubles, size: asked.append(size) or [])
        out = dispatch(["order-check", "--invariant", "writhe", "--order", "2",
                        "--seed", "1", "--samples", str(MAX_RESOLUTIONS // 8)])
        assert (out.exit_code, out.stdout_lines, asked) == (0, [], [MAX_RESOLUTIONS // 8])


class TestUnexpectedErrors:
    @staticmethod
    def triangle(tmp_path, coordinate):
        path = tmp_path / "huge.td"
        path.write_text("transverse-diagram/1\ncoorientation: +\nvertices:\n"
                        f"0 0\n{coordinate} 0\n0 {coordinate}\nover:\nend\n",
                        encoding="utf-8")
        return str(path)

    def test_render_huge_exponent_is_a_parse_error(self, tmp_path):
        out = dispatch(["render", self.triangle(tmp_path, "1e5000"),
                        "-o", str(tmp_path / "out.svg")])
        assert out.exit_code == 1
        assert out.stdout_lines == ["error: line 5: exponent of '1e5000' exceeds 1000"]

    def test_render_overflowing_a_float_is_one_error_line(self, tmp_path):
        # 1e400 parses, but the picture of the triangle does not fit a float
        out_path = tmp_path / "out.svg"
        out = dispatch(["render", self.triangle(tmp_path, "1e400"), "-o", str(out_path)])
        assert out.exit_code == 1
        assert len(out.stdout_lines) == 1
        assert out.stdout_lines == [FLOAT_RANGE_ERROR]
        assert not out_path.exists()

    @pytest.mark.parametrize("source", ["huge", "tiny"])
    def test_render_out_of_float_range_is_a_domain_error(self, tmp_path, source):
        # a float would overflow on the huge triangle and divide by a
        # length that underflowed to 0 on the tiny u_minus; both are
        # refused before any float is taken, and no file is written
        if source == "huge":
            path = self.triangle(tmp_path, "4e999")
        else:
            d, factor = u_minus(), Fraction(1, 10**400)
            tiny = build_diagram([(p.x * factor, p.z * factor) for p in d.curve.vertices],
                                 d.coorientation, {(c.lo, c.hi): c.over for c in d.crossings})
            path = tmp_path / "tiny.td"
            path.write_text(serialize_diagram(tiny), encoding="utf-8")
        out_path = tmp_path / "out.svg"
        out = dispatch(["render", str(path), "-o", str(out_path)])
        assert (out.exit_code, out.stdout_lines) == (1, [FLOAT_RANGE_ERROR])
        assert not out_path.exists()
        # just inside the bounds the picture is drawn
        inside = dispatch(["render", self.triangle(tmp_path, str(2**509)), "-o", str(out_path)])
        assert (inside.exit_code, inside.stdout_lines) == (0, [])
        assert "inf" not in out_path.read_text(encoding="utf-8")

    def test_any_exception_is_one_error_line(self, u_minus_file, monkeypatch):
        def broken(d):
            raise KeyError("boom")

        monkeypatch.setattr("transknot.cli.invariant_values", broken)
        out = dispatch(["invariants", u_minus_file])
        assert out.exit_code == 1
        assert out.stdout_lines == ["error: KeyError: 'boom'"]


class TestUsageErrors:
    def test_unknown_command(self):
        out = dispatch(["frobnicate"])
        assert out.exit_code == 2
        assert any("usage" in line for line in out.stdout_lines)

    def test_missing_required_flag(self):
        out = dispatch(["stabilize", "x.txt", "--count", "1", "-o", "y.txt"])
        assert out.exit_code == 2

    def test_bad_bool(self):
        out = dispatch(["exists", "--tight", "yes"])
        assert out.exit_code == 2

    def test_no_command(self):
        assert dispatch([]).exit_code == 2

    @pytest.mark.parametrize("argv", [
        ["resolve", "x.td", "--sites", "1,x", "--assign", "++", "-o", "y.td"],
        ["exists", "--pairings", "4,a"],
    ])
    def test_bad_integer_list(self, argv):
        out = dispatch(argv)
        assert out.exit_code == 2
        assert any("expected comma-separated integers" in line for line in out.stdout_lines)


def test_repeated_dispatch_is_byte_identical(u_minus_file):
    runs = [dispatch(["invariants", u_minus_file]) for _ in range(3)]
    assert all(r.stdout_lines == runs[0].stdout_lines for r in runs)
    checks = [
        dispatch(["order-check", "--invariant", "writhe", "--order", "1",
                  "--seed", "4", "--samples", "2"])
        for _ in range(2)
    ]
    assert checks[0] == checks[1]
