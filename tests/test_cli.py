"""Command-line behaviour: exit codes, output shapes, the reduction
pipeline, benchmark CSV, and JSON mode."""

import io
import json

import pytest

from fdlab.cli import main

EXAMPLE1 = """\
var x1 in [2,7]
var x2 in [0,2]
var x3 in [-1,2]

constraint c1: lineq 1*x1 - 3*x2 - 5*x3 = 0 @ domain
"""

D4_MODEL = """\
var x1 in {3,4,6}
var x2 in [1,2]
var x3 in {0}

constraint c1: lineq 1*x1 - 3*x2 - 5*x3 = 0 @ bounds-d
"""

MOD_MODEL = """\
var x1 in [0,3]
var x2 in [0,9]
var x3 in [1,4]

constraint c1: mod x1 = x2 mod x3 @ domain
"""


@pytest.fixture
def example1(tmp_path):
    p = tmp_path / "example1.model"
    p.write_text(EXAMPLE1)
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_reports_the_unsupported_bound(example1, capsys):
    code, out, _ = run(capsys, "check", example1, "--notion", "domain")
    assert code == 1
    assert "c1 @ domain: INCONSISTENT" in out
    assert "culprit x3 value -1: no support" in out


def test_check_consistent_model_exits_zero(tmp_path, capsys):
    p = tmp_path / "d4.model"
    p.write_text(D4_MODEL)
    code, out, _ = run(capsys, "check", str(p), "--notion", "bounds-d")
    assert code == 0
    assert "consistent" in out


def test_check_mod_at_real_bounds_is_an_error(tmp_path, capsys):
    p = tmp_path / "mod.model"
    p.write_text(MOD_MODEL)
    code, _, err = run(capsys, "check", str(p), "--notion", "bounds-r")
    assert code == 2
    assert "c1" in err


def test_check_unknown_constraint_label(example1, capsys):
    code, _, err = run(capsys, "check", example1, "--constraint", "zzz")
    assert code == 2 and "zzz" in err


def test_check_json_schema(example1, capsys):
    code, out, _ = run(capsys, "check", example1, "--json")
    assert code == 1
    doc = json.loads(out)
    assert doc["command"] == "check"
    (entry,) = doc["results"]
    assert entry["constraint"] == "c1" and entry["consistent"] is False
    assert {"var": "x3", "kind": "value", "value": -1} in entry["culprits"]


def test_propagate_prints_the_tightened_model(example1, capsys):
    code, out, _ = run(capsys, "propagate", example1)
    assert code == 0
    assert "var x1 in {3,5,6}" in out
    assert "var x3 in [0,1]" in out


def test_propagate_is_idempotent_on_its_own_output(example1, capsys, tmp_path):
    _, out, _ = run(capsys, "propagate", example1)
    second = tmp_path / "tightened.model"
    second.write_text(out)
    code, out2, _ = run(capsys, "propagate", str(second))
    assert code == 0 and out2 == out


def test_propagate_failure(tmp_path, capsys):
    p = tmp_path / "bad.model"
    p.write_text("var x in [1,2]\nconstraint c1: lineq 1*x = 9\n")
    code, out, _ = run(capsys, "propagate", str(p))
    assert code == 1 and "FAILURE" in out


def test_propagate_writes_a_trace(example1, capsys, tmp_path):
    tr = tmp_path / "events.log"
    code, _, _ = run(capsys, "propagate", example1, "--trace", str(tr))
    assert code == 0
    assert tr.read_text().splitlines()[0] == "c1 lower x1 [2,7] -> [3,6]"


def test_solve_streams_solutions(example1, capsys):
    code, out, _ = run(capsys, "solve", example1)
    assert code == 0
    lines = out.splitlines()
    assert "x1=3 x2=1 x3=0" in lines
    assert "x1=5 x2=0 x3=1" in lines
    assert "x1=6 x2=2 x3=0" in lines
    assert lines[-1].startswith("nodes=") and "complete=yes" in lines[-1]


def test_solve_limit_marks_incomplete(tmp_path, capsys):
    p = tmp_path / "perm.model"
    p.write_text(
        "var a in [1,3]\nvar b in [1,3]\nvar c in [1,3]\n"
        "constraint c1: alldifferent a b c @ bounds-z\n"
    )
    code, out, _ = run(capsys, "solve", str(p), "--limit", "2")
    assert code == 0
    assert "complete=no" in out
    assert len([l for l in out.splitlines() if l.startswith("a=")]) == 2


def test_solve_no_solutions_exits_one(tmp_path, capsys):
    p = tmp_path / "none.model"
    p.write_text("var x in [1,2]\nconstraint c1: lineq 1*x = 9\n")
    code, out, _ = run(capsys, "solve", str(p))
    assert code == 1 and "solutions=0" in out


def test_reduce_subsetsum_prints_the_gadget(capsys):
    code, out, _ = run(capsys, "reduce-subsetsum", "1", "2", "--target", "3")
    assert code == 0
    assert "constraint subset-sum: lineq 1*x1 + 2*x2 - 3*x3 - 3*x4 = 0 @ bounds-z" in out
    assert out.count("var ") == 4


def test_reduce_pipeline_via_stdin(capsys, monkeypatch):
    code, gadget, _ = run(capsys, "reduce-subsetsum", "5", "--target", "5")
    assert code == 0
    monkeypatch.setattr("sys.stdin", io.StringIO(gadget))
    code, out, _ = run(capsys, "check", "-", "--notion", "bounds-z")
    assert code == 0  # the singleton subset hits the target

    code, gadget, _ = run(capsys, "reduce-subsetsum", "2", "4", "--target", "3")
    monkeypatch.setattr("sys.stdin", io.StringIO(gadget))
    code, out, _ = run(capsys, "check", "-", "--notion", "bounds-z")
    assert code == 1


def test_reduce_random_requires_seed(capsys):
    code, _, err = run(capsys, "reduce-subsetsum", "--random", "4")
    assert code == 2 and "--seed" in err


def test_reduce_random_is_reproducible(capsys):
    code1, out1, _ = run(capsys, "reduce-subsetsum", "--random", "6", "--seed", "9")
    code2, out2, _ = run(capsys, "reduce-subsetsum", "--random", "6", "--seed", "9")
    assert code1 == code2 == 0 and out1 == out2


def test_analyze_monotone(tmp_path, capsys):
    p = tmp_path / "prod.model"
    p.write_text(
        "var x1 in [1,1000]\nvar x2 in [1,1000]\nvar x3 in [1,1000]\n"
        "constraint c1: productle x1 x2 x3 @ bounds-r\n"
    )
    code, out, _ = run(capsys, "analyze-monotone", str(p))
    assert code == 0
    assert "c1: x1: <, x2: <, x3: >" in out


def test_analyze_monotone_reports_counterexamples(example1, capsys):
    code, out, _ = run(capsys, "analyze-monotone", example1, "--json")
    assert code == 0
    doc = json.loads(out)
    (entry,) = doc["results"]
    assert entry["verdicts"] == {
        "x1": "not-monotone",
        "x2": "not-monotone",
        "x3": "not-monotone",
    }
    lt_pair, gt_pair = entry["counterexamples"]["x1"]
    assert lt_pair is not None and gt_pair is not None


def test_analyze_monotone_skips_integer_only_constraints(tmp_path, capsys):
    p = tmp_path / "mix.model"
    p.write_text(MOD_MODEL)
    code, out, _ = run(capsys, "analyze-monotone", str(p))
    assert code == 0
    assert "c1: no real semantics" in out


def corpus_model(i):
    return (
        f"var a in [1,{2 + i}]\nvar b in [1,{2 + i}]\nvar c in [1,{2 + i}]\n"
        "constraint c1: alldifferent a b c @ domain\n"
    )


def test_bench_csv_shape_and_determinism(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for i in range(2):
        (corpus / f"m{i}.model").write_text(corpus_model(i))
    code, out1, _ = run(capsys, "bench", str(corpus))
    assert code == 0
    lines = out1.splitlines()
    assert lines[0] == "instance,notion,nodes,failures,solutions,pruned,micros"
    assert len(lines) == 1 + 2 * 4  # two instances, four notions
    assert lines[1].startswith("m0,domain,")
    _, out2, _ = run(capsys, "bench", str(corpus))
    strip = lambda text: [l.rsplit(",", 1)[0] for l in text.splitlines()]
    assert strip(out1) == strip(out2)  # everything but wall time is stable


def test_bench_empty_corpus(tmp_path, capsys):
    corpus = tmp_path / "empty"
    corpus.mkdir()
    code, out, _ = run(capsys, "bench", str(corpus))
    assert code == 0
    assert out == "instance,notion,nodes,failures,solutions,pruned,micros\n"


def test_bench_notion_filter(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "m.model").write_text(corpus_model(0))
    code, out, _ = run(
        capsys, "bench", str(corpus), "--notion", "bounds-z", "--notion", "bounds-r"
    )
    assert code == 0
    lines = out.splitlines()[1:]
    assert [l.split(",")[1] for l in lines] == ["bounds-z", "bounds-r"]


def test_parse_errors_exit_two(tmp_path, capsys):
    p = tmp_path / "broken.model"
    p.write_text("var x in [5,1]\n")
    code, _, err = run(capsys, "check", str(p))
    assert code == 2 and "line 1" in err
    code, _, err = run(capsys, "check", str(tmp_path / "missing.model"))
    assert code == 2


def test_directory_path_exits_two(tmp_path, capsys):
    code, out, err = run(capsys, "check", str(tmp_path))
    assert code == 2 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1


def test_internal_error_exits_two_not_one(example1, capsys, monkeypatch):
    def broken(*args):
        raise RuntimeError("boom")

    monkeypatch.setattr("fdlab.cli.check", broken)
    code, _, err = run(capsys, "check", example1)
    assert code == 2
    assert err == "error: internal: RuntimeError: boom\n"


def test_bounds_z_check_over_a_set_wider_than_len_answers(tmp_path, capsys):
    # the bounds(Z) box of x and y holds 2**63 + 1 values
    p = tmp_path / "wide.model"
    p.write_text(
        "var x in {-4611686018427387904, 4611686018427387904}\n"
        "var y in {-4611686018427387904, 4611686018427387904}\n"
        "var z in {0, 1}\n"
        "constraint c1: lineq 1*x + 1*y + 1*z = 0 @ bounds-z\n"
    )
    code, out, err = run(capsys, "check", str(p))
    assert (code, out, err) == (0, "c1 @ bounds-z: consistent\n", "")


def test_check_with_products_past_64_bits_answers(tmp_path, capsys):
    # 2 * 2**62 is 2**63, one past the signed 64-bit range
    p = tmp_path / "big.model"
    p.write_text(
        "var x in {0,4611686018427387904}\n"
        "var y in {0,4611686018427387904}\n"
        "constraint c1: lineq 2*x - 2*y = 0\n"
    )
    for notion in ("domain", "bounds-d", "bounds-z", "bounds-r"):
        code, out, err = run(capsys, "check", str(p), "--notion", notion)
        assert (code, out, err) == (0, f"c1 @ {notion}: consistent\n", "")
    code, out, err = run(capsys, "propagate", str(p))
    assert (code, err) == (0, "")
    assert out == (
        "var x in {0,4611686018427387904}\n"
        "var y in {0,4611686018427387904}\n"
        "\n"
        "constraint c1: lineq 2*x - 2*y = 0 @ domain\n"
    )
    code, out, err = run(capsys, "solve", str(p))
    assert (code, err) == (0, "")
    assert out == (
        "x=0 y=0\n"
        "x=4611686018427387904 y=4611686018427387904\n"
        "nodes=3 failures=0 solutions=2 complete=yes\n"
    )


def test_power_past_64_bits_answers(tmp_path, capsys):
    # y = 2**32 would need x = 2**64: no support, not an error
    p = tmp_path / "pow.model"
    p.write_text(
        "var x in [0,10]\n"
        "var y in {0,4294967296}\n"
        "constraint c1: monobij x = pow(1,2) y\n"
    )
    for notion in ("domain", "bounds-d", "bounds-r"):
        code, out, err = run(capsys, "check", str(p), "--notion", notion)
        assert (code, err) == (1, "")
        assert out.startswith(f"c1 @ {notion}: INCONSISTENT\n")
        assert " 4294967296: no support\n" in out
    code, out, err = run(capsys, "propagate", str(p))
    assert (code, err) == (0, "")
    assert out.startswith("var x in {0}\nvar y in {0}\n")


def test_solve_deeper_than_the_recursion_limit(tmp_path, capsys):
    # one search level per variable: 1,500 levels, past Python's default
    # recursion limit of 1,000
    p = tmp_path / "deep.model"
    p.write_text("".join(f"var x{i} in [0,1]\n" for i in range(1500)))
    code, out, err = run(capsys, "solve", str(p), "--limit", "1")
    assert (code, err) == (0, "")
    solution, summary = out.splitlines()
    assert solution == " ".join(f"x{i}=0" for i in range(1500))
    assert "solutions=1" in summary
