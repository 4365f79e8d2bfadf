import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from shellability import cli
from shellability.catalog import write_atlas
from shellability.cli import main
from shellability.complexes import CapacityError, face, face_vertices, format_complex, from_facets, parse_complex
from shellability.graphs import cycle_graph, independence_complex
from shellability.shelling import is_shellable, verify_shelling

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



def test_python_dash_m_runs_the_cli_from_a_checkout(tmp_path, two_k2):
    """``PYTHONPATH=src python -m shellability`` runs without installing."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src}

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "shellability", *argv], env=env,
                              cwd=tmp_path, capture_output=True, text=True, timeout=60)

    helped = run("--help")
    assert helped.returncode == 0 and "usage: shellability" in helped.stdout
    checked = run("check", write(tmp_path, "2k2.cplx", two_k2), "--property", "shellable")
    assert checked.returncode == 1 and "nonshellable" in checked.stdout


def test_check_parse_error(tmp_path, capsys):
    p = tmp_path / "bad.cplx"
    p.write_text("0 !\n", encoding="utf-8")
    assert main(["check", str(p), "--property", "shellable"]) == 2
    assert "line 1" in capsys.readouterr().err


def test_check_reads_a_non_ascii_digit_as_a_label(tmp_path, capsys):
    p = tmp_path / "superscript.cplx"
    p.write_text("²\n", encoding="utf-8")
    assert main(["check", str(p), "--property", "shellable"]) == 0
    captured = capsys.readouterr()
    assert "shellable" in captured.out and not captured.err


def test_check_missing_file(capsys):
    assert main(["check", "/nonexistent.cplx", "--property", "shellable"]) == 2
    assert "/nonexistent.cplx" in capsys.readouterr().err


def test_check_names_a_file_that_is_not_utf8(tmp_path, capsys):
    p = tmp_path / "bad.cplx"
    p.write_bytes(b"\xff\xfe 1 2\n")
    assert main(["check", str(p), "--property", "shellable"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {p}: ") and "utf-8" in err


@pytest.mark.parametrize("argv", [
    ["atlas", "{tmp}/taken", "--max-vertices", "4"],
    ["enumerate", "--dim", "1", "--max-vertices", "4", "--output", "{tmp}/missing/cat.json"],
    ["indcycle", "6", "--output", "{tmp}/missing/ind.cplx"],
], ids=["atlas", "enumerate", "indcycle"])
def test_file_errors_exit_2_and_name_the_path(tmp_path, capsys, argv):
    """A path that cannot be written is a usage error, not a failed predicate."""
    (tmp_path / "taken").write_text("")
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    path = next(arg for arg in argv if arg.startswith(str(tmp_path)))
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and path in err


def _no_search(monkeypatch) -> None:
    from shellability import enumeration

    def no_search(*args, **kwargs):
        raise AssertionError("a search ran")

    for name in ("generic_obstructions", "dim2_shellability_obstructions", "triangle_cores"):
        monkeypatch.setattr(enumeration, name, no_search)


@pytest.mark.parametrize("argv", [
    ["atlas", "{tmp}/taken"],
    ["atlas", "{tmp}/taken/atlas"],
    ["enumerate", "--dim", "1", "--output", "{tmp}/missing/cat.json"],
    ["enumerate", "--dim", "2", "--output", "{tmp}/folder"],
    ["enumerate", "--dim", "2", "--output", "{tmp}/taken/cat.json"],
], ids=["atlas-onto-a-file", "atlas-below-a-file", "enumerate-missing-directory",
        "enumerate-onto-a-directory", "enumerate-below-a-file"])
def test_an_unwritable_output_fails_before_the_search(tmp_path, capsys, monkeypatch, argv):
    """The output path is checked first, so a path that cannot be written
    fails at once instead of after the whole search, which is stubbed here
    to raise; the exit code is 2 and the message names the path."""
    (tmp_path / "taken").write_text("")
    (tmp_path / "folder").mkdir()
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    _no_search(monkeypatch)
    path = next(arg for arg in argv if arg.startswith(str(tmp_path)))
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and path in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["folder", "taken"]


def test_write_atlas_fails_on_its_directory_before_the_search(tmp_path, monkeypatch):
    (tmp_path / "taken").write_text("")
    _no_search(monkeypatch)
    with pytest.raises(OSError):
        write_atlas(tmp_path / "taken", 6)
    assert (tmp_path / "taken").read_text() == ""


@pytest.mark.parametrize("bound", [6.5, True], ids=["float", "bool"])
def test_write_atlas_rejects_a_bound_that_is_not_an_int_before_creating_anything(tmp_path, monkeypatch, bound):
    _no_search(monkeypatch)
    with pytest.raises(TypeError, match="max_vertices must be an int"):
        write_atlas(tmp_path / "out", bound)
    assert list(tmp_path.iterdir()) == []


def test_enumerate_output_writes_what_stdout_prints(tmp_path, capsys):
    """Checking the output path first leaves the written bytes as they were,
    for a new file and for one that is overwritten."""
    argv = ["enumerate", "--dim", "1", "--max-vertices", "5"]
    assert main(argv) == 0
    printed = capsys.readouterr().out
    fresh, old = tmp_path / "fresh.json", tmp_path / "old.json"
    old.write_text("stale text that is longer than the catalog, " * 40)
    for out in (fresh, old):
        assert main([*argv, "--output", str(out)]) == 0
        assert out.read_text(encoding="utf-8") == printed
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fresh.json", "old.json"]


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
    shelling searches as the same check without it.  The deciders memoize
    on raw facets, so the caches are cleared before each check; ``plain``
    and ``certified`` are the counts of the plain variant."""
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
    out = capsys.readouterr().out.splitlines()
    assert out == ["is an obstruction to shellable", "is a strong obstruction to shellable",
                   "not hereditary: restriction to the complex itself fails"]


def test_check_strong_obstruction_ind_c7(tmp_path, capsys):
    ind7 = independence_complex(cycle_graph(7))
    p = write(tmp_path, "ind_c7.cplx", ind7)
    assert main(["check", p, "--property", "shellable", "--variant", "strong-obstruction"]) == 0
    assert "is a strong obstruction" in capsys.readouterr().out


def test_check_hereditary_variant_on_a_hereditarily_shellable_input(tmp_path, hollow_triangle, capsys):
    p = write(tmp_path, "triangle.cplx", hollow_triangle)
    assert main(["check", p, "--property", "shellable", "--variant", "hereditary"]) == 0
    assert capsys.readouterr().out.splitlines() == ["hereditarily shellable"]


def test_check_strong_obstruction_names_the_failing_link(tmp_path, complex_2, capsys):
    """An apex type is an obstruction but not a strong one: a vertex link fails."""
    p = write(tmp_path, "complex_2.cplx", complex_2)
    assert main(["check", p, "--property", "shellable", "--variant", "strong-obstruction",
                 "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] is False
    assert len(payload["failing_link"]) == 1


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


def test_check_shelling_certificate_prints_a_shelling(tmp_path, capsys):
    """The order printed, as text and as JSON, passes ``verify_shelling`` with
    the restriction sets printed next to it."""
    sphere = from_facets([{0, 1, 2}, {0, 1, 3}, {0, 2, 3}, {1, 2, 3}])
    p = write(tmp_path, "sphere.cplx", sphere)

    def mask(words: str) -> int:
        return face(int(v) for v in words.strip().strip("{}").split(",") if v)

    assert main(["check", p, "--property", "shellable", "--certificate"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["shellable", "shelling order (facet | restriction set):"]
    printed = [[mask(words) for words in line.split(" | ")] for line in lines[2:]]
    ordering, restrictions = zip(*printed)
    assert verify_shelling(sphere, ordering) == (True, restrictions)

    assert main(["check", p, "--property", "shellable", "--certificate", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    ordering = [face(f) for f in payload["shelling_order"]]
    restrictions = tuple(face(r) for r in payload["restriction_sets"])
    assert verify_shelling(sphere, ordering) == (True, restrictions)


def test_check_partition_certificate_of_a_non_partitionable_input(tmp_path, two_k2, capsys):
    p = write(tmp_path, "2k2.cplx", two_k2)
    assert main(["check", p, "--property", "partitionable", "--certificate"]) == 1
    assert capsys.readouterr().out.splitlines() == ["not partitionable", "no interval partition exists"]


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


def test_enumerate_strong_dim1(tmp_path, capsys):
    out = tmp_path / "cat.json"
    assert main(["enumerate", "--dim", "1", "--strong", "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["mode"] == "strong_obstructions"
    assert [e["label"] for e in doc["entries"]] == ["2K2"]


def test_enumerate_edge_minimal_and_strong_are_exclusive(tmp_path, capsys):
    out = tmp_path / "cat.json"
    assert main(["enumerate", "--dim", "2", "--edge-minimal", "--strong", "--output", str(out)]) == 2
    assert "--edge-minimal and --strong are exclusive" in capsys.readouterr().err
    assert not out.exists()


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


def test_enumerate_compare_exits_1_on_the_first_different_set(tmp_path, capsys, monkeypatch):
    """A compared property whose obstruction set differs prints DIFFERENT and
    exits 1 at once: the second ``--compare`` is not searched."""
    calls = []
    real = cli.enumerate_obstructions

    def one_class_short(dim, prop, mode, max_vertices):
        calls.append(prop.value)
        found = real(dim, prop, mode, max_vertices)
        return found if len(calls) == 1 else found[:-1]

    monkeypatch.setattr(cli, "enumerate_obstructions", one_class_short)
    out = tmp_path / "cat.json"
    code = main(["enumerate", "--dim", "1", "--max-vertices", "5", "--property", "shellable",
                 "--output", str(out), "--compare", "partitionable", "--compare", "scm"])
    assert code == 1
    assert calls == ["shellable", "partitionable"]
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "obstructions(shellable) vs obstructions(partitionable): DIFFERENT"


def test_enumerate_to_stdout_writes_only_the_catalog_there(capsys):
    """Without ``--output`` standard output is the catalog alone, so it
    parses as JSON; the summary and comparison lines go to standard error."""
    assert main(["enumerate", "--dim", "1", "--max-vertices", "4",
                 "--summary", "--compare", "partitionable"]) == 0
    captured = capsys.readouterr()
    assert [e["label"] for e in json.loads(captured.out)["entries"]] == ["2K2"]
    err = captured.err.splitlines()
    assert any("2K2" in line for line in err[:-1])
    assert err[-1] == "obstructions(shellable) vs obstructions(partitionable): IDENTICAL"


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


def test_write_atlas_removes_the_facet_files_of_a_larger_atlas(tmp_path):
    write_atlas(tmp_path, 6)
    (tmp_path / "notes.txt").write_text("kept\n")
    paths = write_atlas(tmp_path, 5)
    complexes = {p for p in paths if p.parent == tmp_path / "complexes"}
    assert set((tmp_path / "complexes").iterdir()) == complexes
    assert len(complexes) == json.loads((tmp_path / "catalog.json").read_text())["count"] == 15
    assert (tmp_path / "notes.txt").read_text() == "kept\n"


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
    """The length is outside input and is checked before anything is built or printed."""
    assert main(["indcycle", n]) == 2
    captured = capsys.readouterr()
    assert "indcycle n must be 3..30" in captured.err
    assert captured.out == ""


def test_indcycle(tmp_path, capsys):
    assert main(["indcycle", "6"]) == 0
    text = capsys.readouterr().out
    c = parse_complex(text)
    assert c == independence_complex(cycle_graph(6))


def test_indcycle_output_file(tmp_path, capsys):
    out = tmp_path / "ind_c5.cplx"
    assert main(["indcycle", "5", "--output", str(out)]) == 0
    assert capsys.readouterr().out == f"wrote independence complex of the 5-cycle to {out}\n"
    assert parse_complex(out.read_text()) == independence_complex(cycle_graph(5))
