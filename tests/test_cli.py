import csv
import io
import json
import os
import sys

import pytest

from coxdesc import cache, cli
from coxdesc.coxeter import CoxeterSpec, build_group
from coxdesc.errors import GroupTooLargeError


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
