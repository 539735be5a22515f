import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from unfold.cli import main

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).resolve().parent.parent / "src"

PASSING_SCENARIO = r"""
collection s = [1, 2, 3]

decl fold_seq {
  r = fold func acc col
  folds ~permitted:(fun v -> len v <= len collection /\
                    forall i. 0 <= i < len v -> v[i] = collection[i])
        ~complete:(fun v -> len v = len collection)
  with structure = ('b seq), elt = 'b, accumulator = acc
}

call sum_seq uses fold_seq {
  folds ~inv:(fun v a -> a = sum (fun i -> v[i]) 0 (len v))
        ~collection:s
        ~convergence:(fun c v -> len c - len v)
  consumer = add;
  init = 0;
  expect = 6;
}
"""


def unfold(*args):
    """Run the CLI in a subprocess that imports this checkout's ``src/``."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "unfold.cli", *args],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "sum.scn"
    path.write_text(PASSING_SCENARIO, encoding="utf-8")
    return path


class TestCheck:
    def test_passing_scenario_exits_zero(self, scenario_file):
        proc = unfold("check", str(scenario_file))
        assert proc.returncode == 0, proc.stderr
        assert "sum_seq" in proc.stdout
        assert "pass" in proc.stdout

    def test_violation_exits_one(self, tmp_path):
        path = tmp_path / "bad.scn"
        path.write_text(PASSING_SCENARIO.replace("init = 0", "init = 1"),
                        encoding="utf-8")
        proc = unfold("check", str(path))
        assert proc.returncode == 1
        assert "InvariantViolatedInitially" in proc.stdout

    def test_parse_error_exits_two(self, tmp_path):
        path = tmp_path / "broken.scn"
        path.write_text("collection s = ???", encoding="utf-8")
        proc = unfold("check", str(path))
        assert proc.returncode == 2
        assert proc.stderr.strip()

    def test_deep_nesting_exits_two_without_traceback(self, tmp_path):
        path = tmp_path / "deep.scn"
        deep = "(" * 2000 + "6" + ")" * 2000
        path.write_text(PASSING_SCENARIO.replace("expect = 6", f"expect = {deep}"),
                        encoding="utf-8")
        proc = unfold("check", str(path))
        assert proc.returncode == 2
        assert "nesting deeper than" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_duplicate_declaration_exits_two(self, tmp_path, capsys):
        second = r"""
decl fold_seq {
  r = fold func acc col
  folds ~permitted:(fun v -> false)
        ~complete:(fun v -> len v = len collection)
  with structure = ('b seq), elt = 'b, accumulator = acc
}
"""
        path = tmp_path / "dup_decl.scn"
        path.write_text(PASSING_SCENARIO.replace("\ncall ", second + "\ncall ", 1),
                        encoding="utf-8")
        assert main(["check", str(path)]) == 2
        assert "duplicate declaration 'fold_seq'" in capsys.readouterr().err

    def test_duplicate_collection_exits_two(self, tmp_path, capsys):
        path = tmp_path / "dup_collection.scn"
        path.write_text(PASSING_SCENARIO.replace(
            "collection s = [1, 2, 3]\n",
            "collection s = [1, 2, 3]\ncollection s = [4]\n"), encoding="utf-8")
        assert main(["check", str(path)]) == 2
        assert "duplicate collection 's'" in capsys.readouterr().err

    def test_value_outside_the_domain_is_an_error_row(self, tmp_path, capsys):
        path = tmp_path / "closure_in_set.scn"
        path.write_text(PASSING_SCENARIO.replace(
            "a = sum (fun i -> v[i]) 0 (len v)",
            "len (setof [(fun x -> x)]) = 1"), encoding="utf-8")
        assert main(["check", str(path)]) == 1
        out = capsys.readouterr().out
        assert "sum_seq" in out and " error " in out
        assert ("EvaluationError: invariant at step 0: value of type Closure "
                "has no structural order") in out

    def test_missing_file_exits_two(self):
        proc = unfold("check", "no-suchimagined-file.scn")
        assert proc.returncode == 2

    def test_file_that_is_not_utf8_exits_two(self, tmp_path, capsys):
        path = tmp_path / "binary.scn"
        path.write_bytes(b"\xff\xfe")
        assert main(["check", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"unfold: cannot read {path}: ")
        assert "Traceback" not in err

    def test_json_format(self, scenario_file):
        proc = unfold("check", str(scenario_file), "--format", "json")
        assert proc.returncode == 0
        (entry,) = json.loads(proc.stdout)
        assert entry["name"] == "sum_seq"
        assert entry["status"] == "pass"
        assert entry["result"] == 6
        assert entry["checks"] == {"inv": 4, "variant": 6}

    def test_json_counts_permitted_and_complete_checks(self, scenario_file):
        proc = unfold("check", str(scenario_file), "--format", "json")
        (entry,) = json.loads(proc.stdout)
        # three steps: permitted before the first and after each, complete
        # once, at exhaustion
        assert entry["cursor_checks"] == {"permitted": 4, "complete": 1}

    def test_long_operator_chain_exits_zero_without_traceback(self, tmp_path):
        path = tmp_path / "chain.scn"
        chain = " + ".join(["1"] * 600)
        path.write_text(PASSING_SCENARIO.replace("expect = 6",
                                                 f"expect = {chain} - 594"),
                        encoding="utf-8")
        proc = unfold("check", str(path))
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "pass" in proc.stdout

    def test_seed_flag(self, scenario_file):
        proc = unfold("check", str(scenario_file), "--seed", "7")
        assert proc.returncode == 0

    def test_trace_flag(self, scenario_file):
        proc = unfold("check", str(scenario_file), "--trace")
        assert proc.returncode == 0
        assert "trace of sum_seq" in proc.stdout
        assert "variant" in proc.stdout


class TestDesugar:
    def test_skeleton_to_stdout(self):
        proc = unfold("desugar", str(GOLDEN / "seq_fold_sum.spec"))
        assert proc.returncode == 0
        golden = (GOLDEN / "seq_fold_sum.golden").read_text(encoding="utf-8")
        assert proc.stdout == golden

    def test_output_file(self, tmp_path):
        out = tmp_path / "skeleton.txt"
        proc = unfold("desugar", str(GOLDEN / "graph_union.spec"),
                      "-o", str(out))
        assert proc.returncode == 0
        golden = (GOLDEN / "graph_union.golden").read_text(encoding="utf-8")
        assert out.read_text(encoding="utf-8") == golden

    def test_file_that_is_not_utf8_exits_two(self, tmp_path, capsys):
        path = tmp_path / "binary.spec"
        path.write_bytes(b"\xff\xfe")
        assert main(["desugar", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"unfold: cannot read {path}: ")
        assert "Traceback" not in err

    def test_unwritable_output_exits_two(self, tmp_path, capsys):
        out = tmp_path / "missing_dir" / "skeleton.txt"
        assert main(["desugar", str(GOLDEN / "graph_union.spec"),
                     "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"unfold: cannot write {out}: ")
        assert "Traceback" not in err
        assert not out.exists()

    def test_semantic_error_exits_two(self, tmp_path):
        path = tmp_path / "bad.spec"
        path.write_text("""decl d {
            r = fold func acc col
            folds ~permitted:(fun v -> true) ~complete:(fun v -> true)
            with structure = ('b seq), elt = 'b
        }""", encoding="utf-8")
        proc = unfold("desugar", str(path))
        assert proc.returncode == 2
        assert "accumulator" in proc.stderr


class TestDemo:
    def test_demo_all_pass(self):
        proc = unfold("demo")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "15/15 case studies passed" in proc.stdout

    def test_demo_json(self):
        proc = unfold("demo", "--format", "json")
        assert proc.returncode == 0
        rows = json.loads(proc.stdout)
        assert len(rows) == 15
        assert all(row["status"] == "pass" for row in rows)
        names = [row["row"] for row in rows]
        assert names == ["sum_seq", "stack_of_seq", "queue_of_seq", "gt_seq",
                         "counter_filter_seq", "counter_map_seq", "intersect",
                         "union", "complement", "mirror", "copy_vertices",
                         "check_path", "sum_tree", "height_tree", "gt_tree"]

    def test_demo_json_counts_one_permitted_check_per_invariant_check(self):
        proc = unfold("demo", "--format", "json")
        for row in json.loads(proc.stdout):
            checks, cursor = row["checks"], row["cursor_checks"]
            # every loop checks permitted and its invariant before its first
            # step and after each, complete once, and the measure twice a step
            assert cursor["permitted"] == checks["inv"], row["row"]
            assert checks["variant"] == 2 * (checks["inv"] - cursor["complete"])
            assert cursor["complete"] >= len(row["invocations"])
