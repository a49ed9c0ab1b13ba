import csv
import io
import json
import os
import subprocess
import sys
import time

import pytest

from coxdesc import cache, cli
from coxdesc.coxeter import CoxeterSpec, _chain, build_group
from coxdesc.errors import GroupTooLargeError
from coxdesc.modular import DEFAULT_PRIMES
from coxdesc.subsets import subset_name

from conftest import closure_counts_by_conjugacy, star_matrix, subgroup


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_group_info_f4(capsys):
    code, out, _ = run_cli(capsys, "group", "F4", "--no-cache", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["order"] == 1152 and data["p"] == 12
    by_rep = {c["rep"]: c for c in data["classes"]}
    assert by_rep[""]["elements"] == 1
    assert by_rep["s1"]["normalizer_complement"] == 48
    assert by_rep["s1,s2,s3,s4"]["elements"] == 385


@pytest.mark.parametrize("name", ["A3", "B3", "H3", "D4", "F4"])
def test_group_info_matches_the_group(capsys, atlas_factory, name):
    # orders by the degrees, element counts by the closure formula: both
    # against references that walk the group itself
    atlas = atlas_factory(name)
    g = atlas.group
    code, out, _ = run_cli(capsys, "group", name, "--no-cache", "--format", "json")
    data = json.loads(out)
    assert code == 0 and (data["order"], data["roots"]) == (g.order, g.num_roots)
    counts = closure_counts_by_conjugacy(atlas)
    for cls, (rep, members) in zip(data["classes"], atlas.classes):
        assert cls["rep"] == subset_name(rep)
        assert cls["parabolic_order"] == len(subgroup(g, rep))
        assert cls["normalizer_complement"] == len(atlas.normalizer_complement(rep))
        assert cls["elements"] == counts[atlas.class_of[rep]]


def test_group_info_h3(capsys):
    code, out, _ = run_cli(capsys, "group", "H3", "--no-cache", "--format", "json")
    data = json.loads(out)
    assert code == 0 and data["order"] == 120 and data["p"] == 6


def test_group_info_a1(capsys):
    code, out, _ = run_cli(capsys, "group", "A1", "--no-cache", "--format", "json")
    data = json.loads(out)
    assert code == 0 and data["order"] == 2 and data["p"] == 2
    assert [c["elements"] for c in data["classes"]] == [1, 1]


def test_unknown_type_exits_2(capsys):
    code, _, err = run_cli(capsys, "group", "E8", "--no-cache")
    assert code == 2
    assert "supported" in err


def test_matrix_file_spec(tmp_path, capsys):
    path = tmp_path / "i25.json"
    path.write_text(json.dumps({"rank": 2, "m": [[1, 5], [5, 1]]}))
    code, out, _ = run_cli(capsys, "group", f"@{path}", "--no-cache",
                           "--format", "json")
    assert code == 0
    assert json.loads(out)["order"] == 10


def test_bad_matrix_file_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"rank": 2, "m": [[1, 5], [6, 1]]}))
    code, _, err = run_cli(capsys, "group", f"@{path}", "--no-cache")
    assert code == 2 and "symmetric" in err


@pytest.mark.parametrize("command,option,payload", [
    ("group", None, {"m": 5}),
    ("group", None, {"m": [1, 2]}),
    ("group", None, {"type": 5}),
    ("group", None, [1, 2]),
    ("group", None, {"m": [[1, 2.5], [2.5, 1]]}),
    ("group", None, {"type": "F4", "rank": 3}),
    ("group", None, {"type": "F4", "m": [[1]]}),
    ("spectrum", "--weights", [1, 2]),
], ids=["m-not-a-list", "rows-not-lists", "type-not-a-string",
        "spec-not-an-object", "non-integer-bond", "type-with-wrong-rank",
        "type-with-matrix", "weights-not-an-object"])
def test_malformed_json_input_exits_2(tmp_path, capsys, command, option, payload):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    argv = [command, "A2", option, str(path)] if option else [command, f"@{path}"]
    code, out, err = run_cli(capsys, *argv, "--no-cache")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_table_ajkk_h3_matches_golden(capsys):
    code, out, _ = run_cli(capsys, "table", "H3", "--what", "ajkk",
                           "--no-cache", "--format", "json")
    assert code == 0
    cells = json.loads(out)["cells"]
    assert cells["s1,s2"]["s1"] == 4
    assert cells["s2,s3"]["s1"] == 4
    assert cells["{}"]["{}"] == 120
    assert cells["s1,s2,s3"]["s1,s3"] == 1


def test_table_ajkk_naive_h3(capsys):
    code, out, _ = run_cli(capsys, "table", "H3", "--what", "ajkk-naive",
                           "--no-cache", "--format", "json")
    cells = json.loads(out)["cells"]
    assert cells["s1,s2"]["s1"] == 8
    assert cells["s2,s3"]["s1"] == 8
    # the quoted uncorrected formula really yields 3 here; the printed table
    # hand-filled the trivial bottom row with 1
    assert cells["s1,s2,s3"]["s1"] == 3


def test_table_csv_equals_json(capsys):
    code, jtext, _ = run_cli(capsys, "table", "B3", "--what", "ajkk",
                             "--no-cache", "--format", "json")
    assert code == 0
    jdata = json.loads(jtext)
    code, ctext, _ = run_cli(capsys, "table", "B3", "--what", "ajkk",
                             "--no-cache", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(ctext)))
    labels = rows[0][1:]
    assert labels == jdata["labels"]
    for row in rows[1:]:
        lab = row[0]
        for col, val in zip(labels, row[1:]):
            assert int(val) == jdata["cells"][lab][col]


def test_table_structure(capsys):
    code, out, _ = run_cli(capsys, "table", "A2", "--what", "structure",
                           "--no-cache", "--format", "json")
    data = json.loads(out)["a"]
    assert data[""][""][""] == 6
    assert data["s1,s2"]["s1"]["s1"] == 1


def test_spectrum_uniform_a2(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "A2", "--preset", "uniform",
                           "--no-cache", "--format", "json")
    assert code == 0
    data = json.loads(out)
    by_rep = {c["rep"]: c for c in data["classes"]}
    assert by_rep[""]["delta"] == "13" and by_rep[""]["multiplicity"] == 1
    assert by_rep["s1"]["delta"] == "3" and by_rep["s1"]["multiplicity"] == 3
    assert by_rep["s1,s2"]["delta"] == "1" and by_rep["s1,s2"]["multiplicity"] == 2


def test_spectrum_weight_file(tmp_path, capsys):
    path = tmp_path / "w.json"
    path.write_text(json.dumps(
        {"basis": "x", "weights": {"": "1", "s1,s2": "3/2"}}))
    code, out, _ = run_cli(capsys, "spectrum", "A2", "--weights", str(path),
                           "--no-cache", "--format", "json")
    assert code == 0
    by_rep = {c["rep"]: c for c in json.loads(out)["classes"]}
    # Delta over the class of the empty set: 6*1 + 1*(3/2)
    assert by_rep[""]["delta"] == "15/2"


def test_spectrum_bad_weight_file(tmp_path, capsys):
    path = tmp_path / "w.json"
    path.write_text(json.dumps({"basis": "x", "weights": {"s9": "1"}}))
    code, _, err = run_cli(capsys, "spectrum", "A2", "--weights", str(path),
                           "--no-cache")
    assert code == 2 and "s9" in err
    path.write_text(json.dumps({"basis": "x", "weights": {"s1": "x/y"}}))
    code, _, err = run_cli(capsys, "spectrum", "A2", "--weights", str(path),
                           "--no-cache")
    assert code == 2 and "s1" in err


@pytest.mark.parametrize("command", ["spectrum", "verify"])
def test_weights_and_preset_refused_together(tmp_path, capsys, command):
    path = tmp_path / "w.json"
    path.write_text(json.dumps({"basis": "x", "weights": {"": "1"}}))
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "A2", "--weights", str(path), "--preset", "uniform",
                  "--no-cache"])
    out = capsys.readouterr()
    assert exc.value.code == 2 and out.out == ""
    assert "--preset: not allowed with argument --weights" in out.err


@pytest.mark.parametrize("command,preset", [
    ("verify", "qmaj:1/0"), ("spectrum", "desx:1/0,1,1"),
])
def test_zero_denominator_preset_exits_2(capsys, command, preset):
    code, out, err = run_cli(capsys, command, "A3", "--preset", preset,
                             "--no-cache")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "zero denominator" in err


def test_zero_denominator_weight_file_exits_2(tmp_path, capsys):
    path = tmp_path / "w.json"
    path.write_text(json.dumps({"basis": "x", "weights": {"s1": "1/0"}}))
    code, _, err = run_cli(capsys, "spectrum", "A2", "--weights", str(path),
                           "--no-cache")
    assert code == 2 and err.startswith("error:") and "s1" in err


def test_duplicate_weight_subsets_refused(tmp_path, capsys):
    from coxdesc.weights import weights_from_dict

    raw = {"weights": {"s1,s3": "1", "s3,s1": "2", " s1 , s3 ": "5"}}
    with pytest.raises(ValueError, match="subset 's1,s3' given twice"):
        weights_from_dict(raw, 3)
    with pytest.raises(ValueError, match="subset '' given twice"):
        weights_from_dict({"weights": {"": "1", " ": "2"}}, 3)
    path = tmp_path / "w.json"
    path.write_text(json.dumps({"basis": "y", **raw}))
    code, out, err = run_cli(capsys, "spectrum", "A3", "--weights", str(path),
                             "--no-cache")
    assert code == 2 and out == "" and "given twice" in err


def test_qmaj_preset_type_a_only(capsys):
    code, _, err = run_cli(capsys, "spectrum", "H3", "--preset", "qmaj:2",
                           "--no-cache")
    assert code == 2 and "type A" in err
    code, _, _ = run_cli(capsys, "spectrum", "A3", "--preset", "qmaj:2",
                         "--no-cache")
    assert code == 0


def test_qmaj_weights_match_maj_statistic():
    from fractions import Fraction

    from coxdesc.coxeter import CoxeterSpec
    from coxdesc.weights import preset_qmaj

    spec = CoxeterSpec.from_name("A3")
    d = preset_qmaj(spec, Fraction(2))
    # Maj({t1, t3}) = 1 + 3 = 4
    assert d.basis == "y"
    assert d.coeffs[0b101] == Fraction(2) ** 4


def test_desx_preset(capsys):
    code, _, _ = run_cli(capsys, "spectrum", "A2", "--preset", "desx:1/2,3",
                         "--no-cache")
    assert code == 0
    code, _, err = run_cli(capsys, "spectrum", "A2", "--preset", "desx:1",
                           "--no-cache")
    assert code == 2 and "2 values" in err
    code, _, err = run_cli(capsys, "spectrum", "B2", "--preset", "desx:1,2",
                           "--no-cache")
    assert code == 2 and "type A" in err


def test_verify_h3_uniform(capsys):
    code, out, _ = run_cli(capsys, "verify", "H3", "--preset", "uniform",
                           "--no-cache", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["matched"] == [True, True, True]
    assert data["certified"] is False
    assert {"delta", "multiplicity"} <= set(data["predicted_factors"][0])


def test_verify_a3_seed42(capsys):
    code, out, _ = run_cli(capsys, "verify", "A3", "--seed", "42", "--no-cache")
    assert code == 0
    assert "VERIFIED" in out


def test_verify_qmaj_preset_end_to_end(capsys):
    code, out, _ = run_cli(capsys, "verify", "A3", "--preset", "qmaj:2",
                           "--no-cache")
    assert code == 0 and "VERIFIED" in out


def test_verify_custom_primes(capsys):
    code, out, _ = run_cli(capsys, "verify", "A2", "--seed", "1",
                           "--primes", "1000003,2097169", "--no-cache",
                           "--format", "json")
    assert code == 0
    assert json.loads(out)["primes"] == [1000003, 2097169]


@pytest.mark.parametrize("args", [
    ("A3", "--primes", "23"),
    ("A3", "--primes", "25"),
    ("A3", "--primes", str(2 ** 62 + 135)),  # a prime, but not below 2^62
    ("A3", "--primes", "1000003,24"),
    ("A2", "--primes", "7", "--certify"),    # certified primes run below |W|
], ids=["at-most-order", "not-prime", "not-below-2^62", "one-of-two",
        "certify-runs-below-order"])
def test_verify_rejects_bad_primes(capsys, args):
    code, out, err = run_cli(capsys, "verify", *args, "--no-cache")
    order = 24 if args[0] == "A3" else 6
    assert (code, out) == (2, "")
    assert f"|W| = {order} < p < 2^62" in err


@pytest.mark.parametrize("copies,extra", [(2, ()), (40, ("--certify",))],
                         ids=["twice", "forty-times-certified"])
def test_verify_rejects_repeated_prime(capsys, copies, extra):
    p = str(DEFAULT_PRIMES[0])
    code, out, err = run_cli(capsys, "verify", "H3", "--primes",
                             ",".join([p] * copies), *extra, "--no-cache")
    assert (code, out) == (2, "")
    assert f"modulus {p} is repeated" in err


def test_cli_import_leaves_numpy_out():
    code = "import sys, coxdesc.cli; sys.exit('numpy' in sys.modules)"
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_verify_mismatch_exit_code(capsys, monkeypatch):
    from coxdesc import oracle as oracle_mod

    def fake_verify(*args, **kwargs):
        v = oracle_mod.VerificationVerdict(
            group_label="A2", order=6, weights={}, primes=[3], matched=[False],
            skipped=[], certified=False, predicted_factors=[], scale=1)
        return v

    monkeypatch.setattr(cli, "verify_spectrum", fake_verify)
    code, out, _ = run_cli(capsys, "verify", "A2", "--no-cache")
    assert code == 1
    assert "MISMATCH" in out


def test_resource_guard_exit_code(capsys, monkeypatch):
    def fake_build(*args, **kwargs):
        raise GroupTooLargeError("group too large or infinite")

    monkeypatch.setattr(cli, "build_group", fake_build)
    code, _, err = run_cli(capsys, "group", "A2")
    assert code == 3 and "too large" in err


REFUSED_MATRICES = {
    "A2-affine": [[1, 3, 3], [3, 1, 3], [3, 3, 1]],
    "C2-affine": [[1, 4, 2], [4, 1, 4], [2, 4, 1]],
    "triangle-2-3-7": [[1, 2, 3], [2, 1, 7], [3, 7, 1]],
    "E8-affine": star_matrix([1, 2, 5]),
    "E6-affine": star_matrix([2, 2, 2]),
    "D4-affine": star_matrix([1, 1, 1, 1]),
    "F4-affine": _chain(5, [3, 4, 3, 3]),
    "path-3-5-3": _chain(4, [3, 5, 3]),
    "path-5-3-3-3": _chain(5, [5, 3, 3, 3]),
    "E7": star_matrix([1, 2, 3]),
    "E8": star_matrix([1, 2, 4]),
    "I2(10^9)": [[1, 10 ** 9], [10 ** 9, 1]],
}


@pytest.mark.parametrize("name", sorted(REFUSED_MATRICES))
def test_infinite_or_oversized_group_refused_fast(tmp_path, capsys, name):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"m": REFUSED_MATRICES[name]}))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "group", f"@{path}",
                             "--cache-dir", str(tmp_path / "cache"))
    assert time.perf_counter() - start < 1.0
    assert code == 3 and out == ""
    assert err.startswith("error: group too large or infinite")
    assert not (tmp_path / "cache").exists()


def test_counterexample(capsys):
    code, out, _ = run_cli(capsys, "counterexample", "--no-cache")
    assert code == 0
    assert "-6" in out and "-10" in out
    assert "(1, 15, 24, 20, 15, 45)" in out.replace("  ", " ") or \
        "1, 20, 15, 15, 24, 45" in out
    assert "1, 15, -6, -10, 15, 105" in out
    assert "[sum 120]" in out


def test_counterexample_json(capsys):
    code, out, _ = run_cli(capsys, "counterexample", "--no-cache",
                           "--format", "json")
    data = json.loads(out)
    assert data["published_solution"] == ["1", "15", "-6", "-10", "15", "105"]
    corr = {lab: val for lab, val in zip(data["labels"],
                                         data["corrected_solution"])}
    assert corr == {"{}": "1", "s1": "15", "s1,s2": "24", "s2,s3": "20",
                    "s1,s3": "15", "s1,s2,s3": "45"}
    naive = set(data["naive_solution"])
    assert {"-6", "-10"} <= naive
    assert data["sums"][1] == "120" and data["sums"][2] == "120"


def test_output_deterministic(capsys):
    outs = set()
    for _ in range(2):
        code, out, _ = run_cli(capsys, "spectrum", "B2", "--preset", "uniform",
                               "--no-cache", "--format", "json")
        assert code == 0
        outs.add(out)
    assert len(outs) == 1
    outs = set()
    for _ in range(2):
        code, out, _ = run_cli(capsys, "verify", "A2", "--seed", "9",
                               "--no-cache", "--primes", "1000003")
        outs.add(out.split("\n")[0])  # timing line varies, compare the header
        assert code == 0
    assert len(outs) == 1


def test_cache_used_by_cli(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("COXDESC_CACHE", str(tmp_path))
    code, out1, _ = run_cli(capsys, "group", "B2", "--format", "json")
    assert code == 0
    assert list(tmp_path.glob("group-*.json"))
    code, out2, _ = run_cli(capsys, "group", "B2", "--format", "json")
    assert out1 == out2


def _a2_cache_payloads():
    spec = CoxeterSpec.from_name("A2")
    perms = [list(p) for p in build_group(spec).gen_perms]
    good = {"version": cache.CACHE_VERSION, "spec_key": spec.canonical_key(),
            "gen_perms": perms}
    n = len(perms[0])
    cycle = [(x + 1) % n for x in range(n)]
    return {
        "not-a-dict": [good],
        "no-gen-perms": {k: v for k, v in good.items() if k != "gen_perms"},
        "perms-not-a-list": {**good, "gen_perms": "gen_perms"},
        "wrong-count": {**good, "gen_perms": perms[:1]},
        "not-a-permutation": {**good, "gen_perms": [[0] * n, perms[1]]},
        "not-an-involution": {**good, "gen_perms": [cycle, perms[1]]},
        "mixed-lengths": {**good, "gen_perms": [perms[0], perms[1][:-1]]},
        "string-entries": {**good, "gen_perms": [[str(x) for x in p] for p in perms]},
        "identity-perms": {**good, "gen_perms": [list(range(n))] * 2},
        "b2-perms": {**good, "gen_perms": [list(p) for p in build_group(
            CoxeterSpec.from_name("B2")).gen_perms]},
        # involutions moving root i with s1 s2 of order 3, but both send the
        # simple roots (0, 1) to (1, 0): simple-root images fix no element
        "simple-roots-collide": {**good, "gen_perms": [[1, 0, 4, 3, 2],
                                                       [1, 0, 2, 4, 3]]},
        # passes the same older checks and every root is reached from a
        # simple root; only the reflection map t_(s_i x) = s_i t_x s_i is
        # not well defined
        "reflections-inconsistent": {**good, "gen_perms": [
            [2, 3, 0, 1, 4, 5], [4, 5, 2, 3, 0, 1]]},
    }


@pytest.mark.parametrize("case", sorted(_a2_cache_payloads()))
def test_malformed_cache_file_is_rebuilt(tmp_path, capsys, case):
    spec = CoxeterSpec.from_name("A2")
    _, want, _ = run_cli(capsys, "group", "A2", "--no-cache")
    path = cache._path(spec, str(tmp_path))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_a2_cache_payloads()[case], fh)
    code, out, err = run_cli(capsys, "group", "A2", "--cache-dir", str(tmp_path))
    assert (code, out, err) == (0, want, "")
    assert cache.load(spec, str(tmp_path)) == build_group(spec).gen_perms


def test_cache_save_does_not_use_a_fixed_temp_name(tmp_path, capsys):
    spec = CoxeterSpec.from_name("A2")
    os.makedirs(cache._path(spec, str(tmp_path)) + ".tmp")
    code, _, err = run_cli(capsys, "group", "A2", "--cache-dir", str(tmp_path))
    assert (code, err) == (0, "")
    assert cache.load(spec, str(tmp_path)) is not None


class _ClosedPipe(io.TextIOBase):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_closed_pipe_is_not_an_error(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    code = cli.main(["group", "A2", "--no-cache"])
    sys.stdout.close()  # the stream the CLI switched to
    assert code == 0
    assert capsys.readouterr().err == ""
