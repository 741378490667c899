import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from hdx import cosets
from hdx.cli import main, parse_fraction, resolve_complex
from hdx.catalog import named_complex
from hdx.cochains import COBOUNDARIES, coboundary, cochain_from_lines, distance
from hdx.errors import PropertyViolation, UsageError
from hdx.rings import modular_ring
from test_building import dropping_least_vertex
from test_intmat import record_reductions, reductions


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_fraction():
    from fractions import Fraction

    assert parse_fraction("1/3") == Fraction(1, 3)
    assert parse_fraction("2") == 2
    with pytest.raises(UsageError):
        parse_fraction("a/b")
    with pytest.raises(UsageError):
        parse_fraction("1/0")


def test_resolve_complex_sources(tmp_path):
    assert resolve_complex("hollow_triangle") is named_complex("hollow_triangle")
    path = tmp_path / "tri.cx"
    path.write_text("# hollow triangle\na b\nb c\na c\n")
    assert resolve_complex(str(path)) == named_complex("hollow_triangle")
    B = resolve_complex("building:n=3,q=2")
    assert len(B.faces(0)) == 14
    with pytest.raises(UsageError):
        resolve_complex("building:n=3")


def test_report_expansion_coboundary(capsys, tmp_path):
    path = tmp_path / "tri.cx"
    path.write_text("a b\nb c\na c\n")
    code, out, _ = run_cli(
        ["report", "expansion", "--kind", "coboundary", "--ring", "F2", "--k", "0", str(path)],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["epsilon"] == {"num": 2, "den": 1}
    assert doc["certified"] is True
    assert doc["witness"]


def test_report_expansion_deterministic(capsys):
    args = ["report", "expansion", "--kind", "cosystolic", "--ring", "F2", "--k", "0", "two_triangles"]
    _, out1, _ = run_cli(args, capsys)
    _, out2, _ = run_cli(args, capsys)
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["mu"] == {"num": 1, "den": 2}


def test_report_small_set_failure_exit_code(capsys):
    code, out, _ = run_cli(
        ["report", "expansion", "--kind", "small-set", "--ring", "F2",
         "--epsilon", "101/100", "--mu", "1/4", "octahedron"],
        capsys,
    )
    assert code == 2
    doc = json.loads(out)
    assert doc["holds"] is False
    assert doc["counterexample"]


def test_report_small_set_pass(capsys):
    code, out, _ = run_cli(
        ["report", "expansion", "--kind", "small-set", "--ring", "F2",
         "--epsilon", "1", "--mu", "1/4", "octahedron"],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["holds"] is True


def test_report_cohomology(capsys):
    code, out, _ = run_cli(["report", "cohomology", "--k", "2", "rp2"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["torsion"] == [2]
    assert doc["f2_dimension"] == 1
    assert doc["uct"]["ok"] is True


@pytest.mark.parametrize(
    "k,name,calls", [(1, "rp2", 2), (2, "rp2", 1), (0, "hollow_triangle", 2)]
)
def test_report_cohomology_takes_each_smith_form_once(
    capsys, monkeypatch, k, name, calls
):
    # delta_{k-1} and delta_k, each reduced once over the unit-pivot and the
    # Smith route; none past the top dimension
    seen = record_reductions(monkeypatch)
    code, _, _ = run_cli(["report", "cohomology", "--k", str(k), name], capsys)
    assert code == 0
    reduced = reductions(seen)
    assert len(reduced) == calls
    assert all(reduced.count(M) == 1 for M in reduced)


def test_report_fatfaces_with_support(capsys):
    code, out, _ = run_cli(
        ["report", "fatfaces", "--k", "1", "--eta", "1/2",
         "--support", "1 2,1 3", "octahedron"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["fat_bound_ok"] is True
    assert doc["family"]["eta"] == {"num": 1, "den": 2}
    assert len(doc["family"]["levels"]) == 3


def test_report_fatfaces_random_draws(capsys):
    args = ["report", "fatfaces", "--k", "1", "--eta", "1/3", "--draws", "10",
            "--seed", "7", "octahedron"]
    code, out1, _ = run_cli(args, capsys)
    assert code == 0
    _, out2, _ = run_cli(args, capsys)
    assert out1 == out2


@pytest.mark.parametrize("draws", ["0", "-3"])
def test_report_fatfaces_refuses_draws_below_one(capsys, draws):
    # with no draws no family is audited, and fat_bound_ok would hold vacuously
    code, out, err = run_cli(
        ["report", "fatfaces", "--k", "0", "--eta", "1/2", "--draws", draws, "octahedron"],
        capsys,
    )
    assert code == 1
    assert out == ""
    assert "ParameterOutOfRange" in err


@pytest.mark.parametrize("args", [
    ["--k", "0", "--seed", "0", "hollow_triangle"],
    ["--k", "5", "--seed", "0", "octahedron"],
])
def test_report_fatfaces_refuses_when_every_draw_is_empty(capsys, args):
    # seed 0 draws no vertex of the triangle, and the octahedron has no 5-faces
    code, out, err = run_cli(
        ["report", "fatfaces", "--eta", "1/2", "--draws", "1"] + args, capsys
    )
    assert code == 1
    assert out == ""
    assert "ParameterOutOfRange" in err and "no family to audit" in err


@pytest.mark.parametrize("args,flag", [
    (["fatfaces", "--k", "1", "--eta", "1/2", "--support", "", "octahedron"], "--support"),
    (["fatfaces", "--k", "1", "--eta", "1/2", "--support", "", "--draws", "0", "octahedron"],
     "--support"),
    (["fatfaces", "--k", "1", "--eta", "1/2", "--support", "1 2, ", "octahedron"], "--support"),
    (["building-audit", "--n", "3", "--q", "2", "--samples", "1", "--eps-rings", ""],
     "--eps-rings"),
    (["building-audit", "--n", "3", "--q", "2", "--samples", "1", "--eps-rings", "F2,,F3"],
     "--eps-rings"),
])
def test_empty_list_arguments_are_usage_errors(capsys, args, flag):
    # an empty argument is given, not absent: it must not fall back to the
    # random draws or to the default ring
    code, out, err = run_cli(["report"] + args, capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("usage error:") and flag in err


def test_report_expansion_skeleton(capsys):
    from hdx.expansion import skeleton_alpha

    code, out, _ = run_cli(["report", "expansion", "--kind", "skeleton", "two_edges"], capsys)
    assert code == 0
    alpha, witness = skeleton_alpha(named_complex("two_edges"))
    assert json.loads(out) == {
        "kind": "skeleton",
        "ring": None,
        "epsilon": {"num": alpha.numerator, "den": alpha.denominator},
        "witness": list(witness),
        "certified": True,
    }
    assert alpha == Fraction(1, 2)


def test_report_building_audit(capsys):
    code, out, _ = run_cli(
        ["report", "building-audit", "--n", "3", "--q", "2", "--ring", "Z",
         "--samples", "5"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["theta"] == 12
    assert doc["beta_theorem"] == {"num": 1, "den": 24}
    assert doc["epsilon_ok"] and doc["homotopy_ok"]
    assert doc["symmetry"]["group_order"] == 168


def test_building_audit_with_an_overstated_cone_side_exits_2(capsys, monkeypatch):
    # lhs above rhs at one chamber is a failed cone inequality, not a crash
    import hdx.building as building

    cone_norms = building.cone_norms

    def overstated(fam, f):
        lhs, rhs = cone_norms(fam, f)
        lhs[3] = rhs[3] + 1
        return lhs, rhs

    monkeypatch.setattr(building, "cone_norms", overstated)
    code, out, _ = run_cli(
        ["report", "building-audit", "--n", "3", "--q", "2", "--ring", "Z", "--samples", "2"],
        capsys,
    )
    assert code == 2
    doc = json.loads(out)
    assert doc["homological_ok"] is False
    assert doc["homotopy_ok"] and doc["epsilon_ok"] and doc["symmetry"]["summed_bound_ok"]


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_report_building_audit_refuses_samples_below_one(capsys, samples):
    # with no sampled cochain the homotopy and homological flags hold vacuously
    code, out, err = run_cli(
        ["report", "building-audit", "--n", "3", "--q", "2", "--samples", samples],
        capsys,
    )
    assert code == 1
    assert out == ""
    assert "ParameterOutOfRange" in err


def test_property_violation_exits_2(capsys, monkeypatch):
    import hdx.building as building

    def broken_chain_family(B, ring, **kwargs):
        raise PropertyViolation("injected chain family failure")

    monkeypatch.setattr(building, "chain_family", broken_chain_family)
    code, out, err = run_cli(
        ["report", "building-audit", "--n", "3", "--q", "2", "--samples", "1"], capsys
    )
    assert code == 2
    assert "injected chain family failure" in err


def test_building_audit_on_a_sigma0_target_outside_its_domain_exits_2(capsys, monkeypatch):
    # sigma_0's least vertex dropped from its domains at the other vertices: the
    # sigma_0 filling refuses the target as a construction bug
    import hdx.building as building

    monkeypatch.setattr(building, "_in_intersections", dropping_least_vertex)
    code, out, err = run_cli(["report", "building-audit", "--n", "3", "--q", "2"], capsys)
    assert code == 2
    assert out == ""
    assert "family target" in err and "leaves its domain" in err


def test_building_audit_with_an_unsolvable_filling_exits_2(capsys, monkeypatch):
    # a sigma_0 filling with no solution is a construction bug, not a usage error
    solve = cosets.unit_solve_stack
    monkeypatch.setattr(cosets, "unit_solve_stack", lambda A: (solve(A)[0], np.zeros(len(A), bool)))
    code, out, err = run_cli(["report", "building-audit", "--n", "3", "--q", "2"], capsys)
    assert code == 2
    assert out == ""
    assert "has no filling" in err


def test_building_audit_on_a_tampered_apartment_exits_2(capsys, monkeypatch):
    # one vertex of apartment 0 swapped for a vertex outside it: the symmetry
    # checks still pass on it, the building axioms do not
    import dataclasses

    import hdx.building as building

    build = building.build_building

    def tampered(n, q):
        B = build(n, q)
        apt, *rest = B.apartments
        i = next(i for i, f in enumerate(apt) if len(f) == 1)
        outside = next(v for v in B.complex.faces(0) if v not in apt)
        return dataclasses.replace(B, apartments=[apt[:i] + (outside,) + apt[i + 1:], *rest])

    monkeypatch.setattr(building, "build_building", tampered)
    assert building.symmetry_checks(tampered(3, 2)).ok
    code, out, err = run_cli(
        ["report", "building-audit", "--n", "3", "--q", "2", "--samples", "1"], capsys
    )
    assert code == 2
    assert out == ""
    assert "closure of its chambers" in err


@pytest.mark.parametrize("flag", ["transitive_on_top", "apartment_equivariance_ok"])
def test_building_audit_exit_code_gates_symmetry_flags(capsys, monkeypatch, flag):
    import hdx.building as building

    checks = building.symmetry_checks

    def failing_checks(B, **kwargs):
        report = checks(B, **kwargs)
        setattr(report, flag, False)
        return report

    monkeypatch.setattr(building, "symmetry_checks", failing_checks)
    code, out, _ = run_cli(
        ["report", "building-audit", "--n", "3", "--q", "2", "--samples", "1"], capsys
    )
    assert code == 2
    assert json.loads(out)["symmetry"][flag] is False


def test_report_lattice(capsys):
    code, out, _ = run_cli(
        ["report", "lattice", "--k", "1", "--coeff-bound", "2", "hollow_triangle"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["dimension"] == 1
    assert doc["distance"] == {"num": 1, "den": 3}


@pytest.mark.parametrize("bound", ["0", "-1"])
def test_report_lattice_refuses_coeff_bound_below_one(capsys, bound):
    code, out, err = run_cli(
        ["report", "lattice", "--k", "1", "--coeff-bound", bound, "hollow_triangle"],
        capsys,
    )
    assert code == 1
    assert out == ""
    assert "ParameterOutOfRange" in err


def test_report_expansion_z4_octahedron_k1(capsys):
    # 4^12 cochains against |B^1| = 1024: a scan that ran for minutes before
    # the distance table replaced the subgroup sweep
    code, out, _ = run_cli(
        ["report", "expansion", "--kind", "coboundary", "--ring", "Z/4", "--k", "1",
         "octahedron"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["certified"] is True
    assert doc["extra"] == {"cosets_scanned": 4 ** 12}
    X, ring = named_complex("octahedron"), modular_ring(4)
    w = cochain_from_lines(X, ring, 1, doc["witness"])
    eps = Fraction(doc["epsilon"]["num"], doc["epsilon"]["den"])
    assert coboundary(w).norm() / distance(w, COBOUNDARIES)[0] == eps


def test_usage_error_exit_code(capsys):
    code, _, err = run_cli(
        ["report", "expansion", "--kind", "small-set", "--ring", "F2", "octahedron"],
        capsys,
    )
    assert code == 1
    assert "usage error" in err


def test_missing_file_exit_code(capsys):
    code, _, err = run_cli(
        ["report", "cohomology", "--k", "0", "no_such_file.cx"], capsys
    )
    assert code == 1


@pytest.mark.parametrize("content", [None, b"\xff\xfe 0 1\n"])
def test_unreadable_complex_path_is_an_input_error(tmp_path, capsys, content):
    # a directory, or a file that is no UTF-8 text
    path = tmp_path
    if content is not None:
        path = tmp_path / "binary.cx"
        path.write_bytes(content)
    code, out, err = run_cli(["report", "expansion", "--kind", "skeleton", str(path)], capsys)
    assert code == 1 and out == ""
    assert err.startswith("input error: ") and len(err.splitlines()) == 1
    assert str(path) in err


@pytest.mark.parametrize("args", [
    ["report", "building-audit", "--n", "3", "--q", "1"],
    ["report", "expansion", "--kind", "coboundary", "--ring", "F2", "--k", "0", "building:n=3,q=1"],
])
def test_building_over_a_field_size_below_two_is_refused(capsys, args):
    code, out, err = run_cli(args, capsys)
    assert code == 1 and out == ""
    assert err.splitlines() == ["error: NotPrimePower: 1 is not a prime power"]


def test_cap_override_env(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("HDX_CAP", "4")
    code, _, err = run_cli(
        ["report", "expansion", "--kind", "coboundary", "--ring", "F3", "--k", "1",
         "octahedron"],
        capsys,
    )
    assert code == 1
    assert "SearchSpaceTooLarge" in err
    # a value that is not a positive integer is an input error, not a traceback
    for value in ["abc", "0", "-5"]:
        monkeypatch.setenv("HDX_CAP", value)
        code, out, err = run_cli(
            ["report", "expansion", "--kind", "coboundary", "--ring", "F2", "--k", "0",
             "hollow_triangle"],
            capsys,
        )
        assert code == 1 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1, err
        assert lines[0].startswith("error: InputFormatError:") and "HDX_CAP" in lines[0]
        assert "Traceback" not in err


def test_output_file(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(
        ["report", "cohomology", "--k", "1", "--output", str(out_path),
         "hollow_triangle"],
        capsys,
    )
    assert code == 0
    assert out == ""
    doc = json.loads(out_path.read_text())
    assert doc["free_rank"] == 1


def test_verify_command_runs_and_mutation_is_caught(capsys, monkeypatch):
    # a sign error injected into the coboundary operator must break the
    # delta-delta-zero check (mutation sanity for the verify suite)
    import hdx.cochains as cochains_mod
    from hdx.verify import run_verify

    results = run_verify(seed=0, names_filter={"delta-delta-zero", "stokes-identity"})
    assert all(r.ok for r in results)

    real = cochains_mod.coboundary

    def broken(f):
        g = real(f)
        if g.values:
            face = sorted(g.values)[0]
            vals = dict(g.values)
            vals[face] = g.ring.reduce(-vals[face])  # flip one sign
            return cochains_mod.Cochain(g.complex, g.ring, g.dim, vals)
        return g

    monkeypatch.setattr(cochains_mod, "coboundary", broken)
    results = run_verify(seed=0, names_filter={"delta-delta-zero"})
    assert not results[0].ok


def test_report_expansion_on_building_source(capsys):
    code, out, _ = run_cli(
        ["report", "expansion", "--kind", "coboundary", "--ring", "F2", "--k", "0",
         "building:n=3,q=2"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["epsilon"] == {"num": 2, "den": 3}


@pytest.mark.parametrize("spec", ["building:n=a,q=2", "building:n=3,q=2.5"])
def test_building_source_with_a_non_integer_parameter_is_a_usage_error(capsys, spec):
    code, out, err = run_cli(["report", "expansion", "--kind", "skeleton", spec], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("usage error: ") and "Traceback" not in err


def test_report_cohomology_on_building_source(capsys):
    code, out, _ = run_cli(
        ["report", "cohomology", "--k", "0", "building:n=3,q=2"], capsys
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["free_rank"] == 0 and doc["torsion"] == []
    assert doc["uct"]["ok"] is True


def test_report_fatfaces_vertex_level(capsys):
    code, out, _ = run_cli(
        ["report", "fatfaces", "--k", "0", "--eta", "1/3",
         "--support", "1,2,3", "octahedron"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc["family"]["levels"]) == 2  # dimensions -1 and 0
    assert doc["fat_bound_ok"] is True


def test_verify_deterministic_across_runs():
    from hdx.verify import run_verify

    subset = {"stokes-identity", "fat-face-bound", "repair-procedure"}
    a = run_verify(seed=3, names_filter=subset)
    b = run_verify(seed=3, names_filter=subset)
    assert [(r.name, r.ok, r.detail) for r in a] == [(r.name, r.ok, r.detail) for r in b]


def test_verify_seed_zero_transcript_matches_golden_byte_for_byte(capsys):
    golden = Path(__file__).resolve().parent.parent / "perfbench" / "golden"
    code, out, _ = run_cli(["verify", "--seed", "0"], capsys)
    assert code == int((golden / "8.code").read_text())
    assert out.encode("utf-8") == (golden / "8.out").read_bytes()
