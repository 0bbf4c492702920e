import pytest

from transknot.cli import dispatch, render_svg
from transknot.diagram import parse_diagram, serialize_diagram
from transknot.fixtures import trefoil_right, u_minus, u_minus_forbidden
from transknot.invariants import self_linking, v2, writhe
from transknot.moves_singular import (
    Resolution,
    ResolutionAssignment,
    make_singular,
    resolve,
)


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
        signs = [Resolution.POS if ch == "+" else Resolution.NEG for ch in assign]
        want = resolve(s, ResolutionAssignment(dict(zip(zero_based, signs))))
        assert out_path.read_text(encoding="utf-8") == serialize_diagram(want)

    def test_assign_must_match_sites(self, trefoil_file, tmp_path):
        out = dispatch(
            ["resolve", trefoil_file, "--sites", "1,2", "--assign", "+",
             "-o", str(tmp_path / "x.txt")]
        )
        assert out.exit_code == 1
        assert "length" in out.stdout_lines[0]

    def test_forced_site_is_a_domain_error(self, u_minus_file, tmp_path):
        out = dispatch(
            ["resolve", u_minus_file, "--sites", "1", "--assign", "+",
             "-o", str(tmp_path / "x.txt")]
        )
        assert out.exit_code == 1
        assert "forced over bit" in out.stdout_lines[0]


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


def test_mtor():
    assert dispatch(["mtor", "--pairings", "4,6"]).stdout_lines == ["m=2"]
    assert dispatch(["mtor"]).stdout_lines == ["m=0"]


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


def test_repeated_dispatch_is_byte_identical(u_minus_file):
    runs = [dispatch(["invariants", u_minus_file]) for _ in range(3)]
    assert all(r.stdout_lines == runs[0].stdout_lines for r in runs)
    checks = [
        dispatch(["order-check", "--invariant", "writhe", "--order", "1",
                  "--seed", "4", "--samples", "2"])
        for _ in range(2)
    ]
    assert checks[0] == checks[1]
