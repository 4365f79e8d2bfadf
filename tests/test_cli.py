import json
from pathlib import Path

import pytest

from shellability.catalog import write_atlas
from shellability.cli import main
from shellability.complexes import CapacityError, face_vertices, format_complex, from_facets, parse_complex
from shellability.graphs import cycle_graph, independence_complex
from shellability.shelling import is_shellable

from conftest import DUNCE_HAT_FACETS

GOLDEN = Path(__file__).parent / "golden"


def write(tmp_path: Path, name: str, c) -> str:
    p = tmp_path / name
    p.write_text(format_complex(c), encoding="utf-8")
    return str(p)


def test_check_exit_codes(tmp_path, two_k2, simplex3, capsys):
    p_bad = write(tmp_path, "2k2.cplx", two_k2)
    p_good = write(tmp_path, "simplex.cplx", simplex3)

    assert main(["check", p_bad, "--property", "shellable"]) == 1
    assert "nonshellable" in capsys.readouterr().out

    assert main(["check", p_good, "--property", "partitionable", "--certificate"]) == 0
    out = capsys.readouterr().out
    assert "partitionable" in out and "interval" in out


def test_check_parse_error(tmp_path, capsys):
    p = tmp_path / "bad.cplx"
    p.write_text("0 !\n", encoding="utf-8")
    assert main(["check", str(p), "--property", "shellable"]) == 2
    assert "line 1" in capsys.readouterr().err


def test_check_missing_file(capsys):
    assert main(["check", "/nonexistent.cplx", "--property", "shellable"]) == 2


def test_check_unknown_property(tmp_path, two_k2, capsys):
    p = write(tmp_path, "c.cplx", two_k2)
    assert main(["check", p, "--property", "frobnitz"]) == 2


@pytest.mark.parametrize("name", ["shellability", "Shellable", "partitionability", "sequentially-cm", "sequentially_cm"])
def test_check_accepts_only_the_listed_property_names(tmp_path, two_k2, capsys, name):
    p = write(tmp_path, "c.cplx", two_k2)
    assert main(["check", p, "--property", name]) == 2
    assert f"unknown property {name!r}" in capsys.readouterr().err


@pytest.mark.parametrize("prop, plain, certified", [
    ("shellable", 1, 1), ("partitionable", 1, 1), ("scm", 1, 1),
])
def test_check_decides_the_property_once(tmp_path, capsys, monkeypatch, prop, plain, certified):
    """A certificate costs no decision of its own: in every variant, a check
    of this nonshellable 10-vertex input with ``--certificate`` runs as many
    shelling searches as the same check without it.  The input is above the
    labeling cap, where the deciders memoize on raw facets, so the caches are
    cleared before each check; ``plain`` and ``certified`` are the counts of
    the plain variant."""
    from shellability import cache, shelling

    c = from_facets([f | {8, 9} for f in DUNCE_HAT_FACETS])  # the join with an edge
    assert c.n_vertices == 10 and not is_shellable(c).shellable
    p = write(tmp_path, "join.cplx", c)
    searches = []
    search = shelling._search_ordering

    def counted(*args, **kwargs):
        searches.append(1)
        return search(*args, **kwargs)

    monkeypatch.setattr(shelling, "_search_ordering", counted)
    for variant in ("plain", "hereditary", "obstruction", "strong-obstruction"):
        counts = []
        for extra in ([], ["--certificate"]):
            cache.clear_all_caches()
            searches.clear()
            main(["check", p, "--property", prop, "--variant", variant, *extra])
            counts.append(len(searches))
        assert counts[0] == counts[1], (prop, variant, counts)
        if variant == "plain":
            assert counts == [plain, certified], prop


def test_check_obstruction_variants(tmp_path, two_k2, capsys):
    p = write(tmp_path, "2k2.cplx", two_k2)
    assert main(["check", p, "--property", "shellable", "--variant", "obstruction"]) == 0
    assert main(["check", p, "--property", "shellable", "--variant", "strong-obstruction"]) == 0
    assert main(["check", p, "--property", "shellable", "--variant", "hereditary"]) == 1


def test_check_strong_obstruction_ind_c7(tmp_path, capsys):
    ind7 = independence_complex(cycle_graph(7))
    p = write(tmp_path, "ind_c7.cplx", ind7)
    assert main(["check", p, "--property", "shellable", "--variant", "strong-obstruction"]) == 0
    assert "is a strong obstruction" in capsys.readouterr().out


def test_check_json_output(tmp_path, delta5, capsys):
    p = write(tmp_path, "band.cplx", delta5)
    code = main(["check", p, "--property", "scm", "--json", "--certificate"])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"].startswith("shellability-check/")
    assert payload["verdict"] is False
    assert payload["witness"]["homology"] == "Z"


def test_check_scm_certificate_names_its_evidence(tmp_path, simplex3, capsys):
    """A shelling decides a shellable input; the dunce hat has none, so the
    skeleton scan decides it."""
    p = write(tmp_path, "simplex.cplx", simplex3)
    assert main(["check", p, "--property", "scm", "--certificate"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == (
        "sequentially Cohen-Macaulay; the complex is shellable, which implies it"
    )
    p = write(tmp_path, "dunce.cplx", from_facets(DUNCE_HAT_FACETS))
    assert main(["check", p, "--property", "scm", "--certificate"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == (
        "sequentially Cohen-Macaulay; every pure skeleton passes the homology checks"
    )


def test_check_partition_certificate_of_a_shellable_input(tmp_path, hollow_triangle, capsys):
    """The intervals printed are the shelling's [R(F_i), F_i], sorted by facet."""
    p = write(tmp_path, "triangle.cplx", hollow_triangle)
    assert main(["check", p, "--property", "partitionable", "--certificate", "--json"]) == 0
    intervals = json.loads(capsys.readouterr().out)["intervals"]
    shelling = is_shellable(hollow_triangle).certificate
    assert intervals == [
        {"facet": list(face_vertices(sigma)), "bottom": list(face_vertices(tau))}
        for sigma, tau in sorted(zip(shelling.ordering, shelling.restriction_sets))
    ]


def test_enumerate_dim1(tmp_path, capsys):
    out = tmp_path / "cat.json"
    code = main(["enumerate", "--dim", "1", "--property", "shellable",
                 "--output", str(out), "--summary"])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["count"] == 1
    assert doc["entries"][0]["label"] == "2K2"
    assert doc["entries"][0]["facets"] == [[0, 1], [2, 3]]
    assert "2K2" in capsys.readouterr().out


def test_enumerate_compare(tmp_path, capsys):
    out = tmp_path / "cat.json"
    code = main(["enumerate", "--dim", "1", "--property", "shellable",
                 "--output", str(out), "--compare", "partitionable", "--compare", "scm"])
    assert code == 0
    text = capsys.readouterr().out
    assert text.count("IDENTICAL") == 2


def test_enumerate_compare_rejects_unknown_property(tmp_path, capsys):
    out = tmp_path / "cat.json"
    code = main(["enumerate", "--dim", "1", "--output", str(out), "--compare", "bogus"])
    assert code == 2
    assert "unknown property 'bogus'" in capsys.readouterr().err
    assert not out.exists()


def test_enumerate_compare_names_the_pair(tmp_path, capsys):
    out = tmp_path / "cat.json"
    code = main(["enumerate", "--dim", "2", "--max-vertices", "5", "--property", "scm",
                 "--output", str(out), "--compare", "partitionable"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "obstructions(scm) vs obstructions(partitionable): IDENTICAL"


def test_enumerate_edge_minimal_six_vertices(tmp_path, capsys):
    out = tmp_path / "cat.json"
    code = main(["enumerate", "--dim", "2", "--max-vertices", "6",
                 "--edge-minimal", "--output", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["count"] == 11  # all but the 7-vertex band
    labels = sorted(e["label"] for e in doc["entries"])
    assert labels == ["1a", "1b", "1c", "2", "3a", "3b", "3c", "3d", "3e", "4a", "4b"]


@pytest.mark.parametrize("dim", ["0", "1"])
def test_enumerate_edge_minimal_outside_dimension_two_is_rejected(tmp_path, capsys, monkeypatch, dim):
    """The mode is refused before any enumeration runs."""
    from shellability import enumeration

    def no_enumeration(*args, **kwargs):
        raise AssertionError("an enumeration ran")

    monkeypatch.setattr(enumeration, "generic_obstructions", no_enumeration)
    out = tmp_path / "cat.json"
    assert main(["enumerate", "--dim", dim, "--edge-minimal", "--output", str(out)]) == 2
    assert "edge-minimality is a 2-dimensional notion" in capsys.readouterr().err
    assert not out.exists()


def test_atlas_round_trip(tmp_path, capsys):
    out_dir = tmp_path / "atlas"
    code = main(["atlas", str(out_dir), "--max-vertices", "5"])
    assert code == 0
    doc = json.loads((out_dir / "catalog.json").read_text())
    assert doc["schema"].startswith("shellability-obstruction-catalog/")
    assert (out_dir / "summary.txt").exists()
    files = sorted((out_dir / "complexes").glob("*.cplx"))
    assert len(files) == doc["count"] == len(doc["entries"])
    # every emitted facet file parses back to the entry it came from
    for entry, path in zip(doc["entries"], files):
        c = parse_complex(path.read_text())
        assert c == from_facets([set(f) for f in entry["facets"]])


def test_atlas_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["atlas", str(a), "--max-vertices", "5"]) == 0
    assert main(["atlas", str(b), "--max-vertices", "5"]) == 0
    assert (a / "catalog.json").read_bytes() == (b / "catalog.json").read_bytes()
    assert (a / "summary.txt").read_bytes() == (b / "summary.txt").read_bytes()


def test_atlas_matches_the_golden_six_vertex_atlas(tmp_path):
    assert main(["atlas", str(tmp_path), "--max-vertices", "6"]) == 0
    for name in ("catalog.json", "summary.txt"):
        assert (tmp_path / name).read_bytes() == (GOLDEN / f"atlas6_{name}").read_bytes(), name


@pytest.mark.parametrize("argv, message", [
    (["--max-vertices", "0"], "--max-vertices must be 1..7"),
    (["--max-vertices", "8"], "--max-vertices must be 1..7"),
])
def test_atlas_rejects_bad_arguments(tmp_path, capsys, argv, message):
    out_dir = tmp_path / "atlas"
    assert main(["atlas", str(out_dir), *argv]) == 2
    assert message in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("max_vertices", [0, 8])
def test_write_atlas_rejects_bounds_outside_the_search_before_writing(tmp_path, max_vertices):
    """No 8-vertex atlas exists to write, and a bad bound leaves no directory behind."""
    out_dir = tmp_path / "atlas"
    with pytest.raises(CapacityError):
        write_atlas(out_dir, max_vertices)
    assert not out_dir.exists()


@pytest.mark.parametrize("n", ["2", "31"])
def test_indcycle_rejects_a_length_outside_the_bound(capsys, n):
    """Past 30 vertices building the complex takes seconds to hours; nothing is printed."""
    assert main(["indcycle", n]) == 2
    captured = capsys.readouterr()
    assert "indcycle n must be 3..30" in captured.err
    assert captured.out == ""


def test_indcycle(tmp_path, capsys):
    assert main(["indcycle", "6"]) == 0
    text = capsys.readouterr().out
    c = parse_complex(text)
    assert c == independence_complex(cycle_graph(6))
