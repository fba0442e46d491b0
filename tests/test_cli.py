"""CLI tests: exit codes, output formats, the repl protocol."""

import io
import json
import os
import subprocess
import sys

import pytest

import chainform
from chainform import cli
from chainform.cli import EXIT_RESOURCE, main
from chainform.fixtures import fixture_text
from chainform.syntax import parse_goal


@pytest.fixture
def split_file(tmp_path):
    path = tmp_path / "split.pl"
    path.write_text(fixture_text("split"), encoding="utf-8")
    return str(path)


@pytest.fixture
def append_file(tmp_path):
    path = tmp_path / "append.pl"
    path.write_text(fixture_text("append"), encoding="utf-8")
    return str(path)


@pytest.fixture
def two_arity_file(tmp_path):
    # The directive covers p/2 only; p/1 has none.
    path = tmp_path / "two.pl"
    path.write_text(":- mode(p,[in,out]).\np(a).\np(a,b).\n", encoding="utf-8")
    return str(path)


@pytest.fixture
def broken_file(tmp_path):
    path = tmp_path / "broken.pl"
    path.write_text("p(X", encoding="utf-8")
    return str(path)


@pytest.fixture
def looping_file(tmp_path):
    path = tmp_path / "loop.pl"
    path.write_text("p(a) :- p(a).\n", encoding="utf-8")
    return str(path)


class TestCheck:
    def test_moded_holds(self, split_file, capsys):
        assert main(["check", split_file, "--form", "moded"]) == 0
        assert "moded: holds" in capsys.readouterr().out

    def test_chain_fails(self, split_file, capsys):
        assert main(["check", split_file, "--form", "chain"]) == 1
        assert "violation" in capsys.readouterr().out

    def test_parse_error_exit_2(self, broken_file, capsys):
        assert main(["check", broken_file]) == 2
        assert "parse error" in capsys.readouterr().err

    def test_default_form_moded_when_directives(self, split_file):
        assert main(["check", split_file]) == 0

    def test_multiple_forms(self, split_file, capsys):
        code = main(["check", split_file, "--form", "moded", "--form", "chain"])
        assert code == 1
        out = capsys.readouterr().out
        assert "moded: holds" in out and "chain:" in out


    def test_directive_of_another_arity_not_borrowed(self, two_arity_file, capsys):
        assert main(["check", two_arity_file, "--form", "moded"]) == 1
        out = capsys.readouterr().out
        assert out.strip() == "moded: error: no mode directive for predicate p/1"


class TestTransform:
    def test_split_counts(self, split_file, tmp_path, capsys):
        out = tmp_path / "out.pl"
        assert main(
            ["transform", split_file, "--mode", "moded", "-o", str(out)]
        ) == 0
        assert capsys.readouterr().out.strip() == "2 -> 4"
        assert out.exists()

    def test_append_counts(self, append_file, tmp_path, capsys):
        out = tmp_path / "out.pl"
        assert main(
            ["transform", append_file, "--mode", "definite", "-o", str(out)]
        ) == 0
        assert capsys.readouterr().out.strip() == "2 -> 4"

    def test_output_checks_gchain(self, split_file, tmp_path, capsys):
        out = tmp_path / "out.pl"
        main(["transform", split_file, "--mode", "moded", "-o", str(out)])
        capsys.readouterr()
        assert main(["check", str(out), "--form", "gchain"]) == 0

    def test_provenance_comments(self, split_file, tmp_path):
        out = tmp_path / "out.pl"
        main(["transform", split_file, "--mode", "moded", "-o", str(out)])
        text = out.read_text(encoding="utf-8")
        assert "% source clause 2, h_0" in text

    def test_moded_transform_of_unmoded_fails(self, append_file, capsys):
        assert main(["transform", append_file, "--mode", "moded"]) == 1

    def test_auto_falls_back_when_moded_check_fails(self, tmp_path, capsys):
        # Every predicate has a directive, but nothing binds p's output.
        path = tmp_path / "unbound.pl"
        path.write_text(":- mode(p,[out]).\np(X).\n", encoding="utf-8")
        assert main(["transform", str(path)]) == 0
        assert "(definite conversion)" in capsys.readouterr().out


class TestSolve:
    def test_split_three_lines(self, split_file, capsys):
        assert main(["solve", split_file, "-g", "s([a,b],Y,Z)"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines == [
            "Y = [], Z = [a,b]",
            "Y = [a], Z = [b]",
            "Y = [a,b], Z = []",
        ]

    def test_bounded_engine(self, split_file, capsys):
        assert main(
            ["solve", split_file, "-g", "s([a,b],Y,Z)", "--engine", "bounded"]
        ) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines == ["Y = [], Z = [a,b]", "resource=1"]

    def test_bounded_engine_skips_rejected_answers(self, split_file, capsys):
        # The first raw answer, Y = [], is rejected by the goal's Y = [a]; the
        # resource counts every step up to the answer that is accepted.
        assert main(
            ["solve", split_file, "-g", "s([a,b],[a],Z)", "--engine", "bounded"]
        ) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines == ["Z = [b]", "resource=4"]

    def test_append_definite(self, append_file, capsys):
        assert main(
            ["solve", append_file, "-g", "ap(X,Y,[a,b])", "--mode", "definite"]
        ) == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 3

    @pytest.mark.parametrize(
        "goal, lines",
        [
            ("ap(X,Y,Z)", ["X = [], Y = L, Z = L", "resource=1"]),
            ("ap([a|X],Y,Z)", ["X = [], Y = M, Z = [a|M]", "resource=4"]),
        ],
    )
    def test_definite_bounded_names_open_answers(self, append_file, capsys, goal, lines):
        # Open answers carry the unit clause's variable names.
        assert main(
            ["solve", append_file, "-g", goal, "--mode", "definite",
             "--engine", "bounded"]
        ) == 0
        assert capsys.readouterr().out.strip().splitlines() == lines

    def test_every_engine_same_text(self, split_file, capsys):
        outputs = []
        for engine in ("abcde", "continuation", "stream"):
            main(["solve", split_file, "-g", "s([a,b,c],Y,Z)", "--engine", engine])
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] == outputs[2]

    def test_jsonl_round_trips(self, split_file, capsys):
        main(["solve", split_file, "-g", "s([a,b],Y,Z)", "--format", "jsonl"])
        out = capsys.readouterr().out.strip().splitlines()
        payloads = [json.loads(line) for line in out]
        assert [p["answer"]["Y"] for p in payloads] == ["[]", "[a]", "[a,b]"]
        # Every rendered term parses back.
        for p in payloads:
            for rendered in p["answer"].values():
                parse_goal("wrap(%s)" % rendered)

    def test_no_answers(self, split_file, capsys):
        assert main(["solve", split_file, "-g", "s([a],[b],Z)"]) == 0
        assert capsys.readouterr().out.strip() == "no answers"

    def test_ground_goal_prints_true(self, split_file, capsys):
        assert main(["solve", split_file, "-g", "s([a],[a],[])"]) == 0
        assert capsys.readouterr().out.strip() == "true"

    def test_budget_exit_3(self, looping_file, capsys):
        assert main(
            ["solve", looping_file, "-g", "p(a)", "--budget", "50"]
        ) == 3
        assert "budget" in capsys.readouterr().err

    def test_budget_env_override(self, looping_file, capsys, monkeypatch):
        monkeypatch.setenv("CHAINFORM_BUDGET", "50")
        assert main(["solve", looping_file, "-g", "p(a)"]) == 3

    def test_name_at_two_arities_auto(self, two_arity_file, capsys):
        assert main(["solve", two_arity_file, "-g", "p(a)"]) == 0
        assert capsys.readouterr().out.strip() == "true"
        assert main(["solve", two_arity_file, "-g", "p(a,Y)"]) == 0
        assert capsys.readouterr().out.strip() == "Y = b"

    def test_unknown_predicate_exit_1(self, split_file, capsys):
        assert main(["solve", split_file, "-g", "nosuch(X)"]) == 1

    def test_nonground_moded_goal_exit_1(self, split_file, capsys):
        assert main(["solve", split_file, "-g", "s(W,Y,Z)"]) == 1
        assert "ground" in capsys.readouterr().err


SRC = os.path.dirname(os.path.dirname(os.path.abspath(chainform.__file__)))


def run_python(args, cwd):
    """Run a fresh interpreter with chainform importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True,
        text=True, timeout=120,
    )


class TestResources:
    def test_import_leaves_recursion_limit(self, tmp_path):
        proc = run_python(
            ["-c", "import sys; before = sys.getrecursionlimit(); "
             "import chainform.engines, chainform.oracle, chainform.cli; "
             "print(before, sys.getrecursionlimit())"],
            tmp_path,
        )
        assert proc.returncode == 0, proc.stderr
        before, after = proc.stdout.split()
        assert after == before

    def test_main_leaves_recursion_limit(self, split_file, monkeypatch):
        seen = []

        def record(args):
            seen.append(sys.getrecursionlimit())
            return cli.EXIT_OK

        saved = sys.getrecursionlimit()
        sys.setrecursionlimit(1234)
        try:
            monkeypatch.setitem(cli.COMMANDS, "check", record)
            assert main(["check", split_file]) == 0
            assert sys.getrecursionlimit() == 1234
        finally:
            sys.setrecursionlimit(saved)
        assert seen == [1234]

    def test_deep_goal_text(self, tmp_path, capsys, default_recursion_limit):
        path = tmp_path / "length.pl"
        path.write_text(fixture_text("length"), encoding="utf-8")
        n = 2000
        goal = "len([%s],%s0%s)" % (",".join(["e"] * n), "s(" * n, ")" * n)
        assert main(["solve", str(path), "--mode", "definite", "-g", goal]) == 0
        assert capsys.readouterr().out.strip() == "true"

    def test_deep_clause_checked(self, tmp_path):
        n = 60000
        path = tmp_path / "deep.pl"
        path.write_text("p(%s0%s).\n" % ("s(" * n, ")" * n), encoding="utf-8")
        proc = run_python(["-m", "chainform.cli", "check", str(path)], tmp_path)
        assert proc.returncode == 1
        assert proc.stderr == ""
        assert proc.stdout.splitlines() == [
            "chain: 1 violation(s)",
            "  clause 1, condition 1: head p is not binary",
        ]

    @pytest.mark.parametrize("n", [20000, 100000])
    def test_deep_nonground_clause_answered(self, tmp_path, n):
        path = tmp_path / "d.pl"
        path.write_text("p(%sX%s).\n" % ("s(" * n, ")" * n), encoding="utf-8")
        proc = run_python(
            ["-m", "chainform.cli", "solve", str(path), "--mode", "definite",
             "-g", "p(Y)"],
            tmp_path,
        )
        assert proc.returncode == 0, proc.stderr[-300:]
        assert proc.stdout == "Y = %sX%s\n" % ("s(" * n, ")" * n)

    def test_recursion_error_exit_4(self, split_file, capsys, monkeypatch):
        def exhausted(args):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setitem(cli.COMMANDS, "check", exhausted)
        assert main(["check", split_file]) == EXIT_RESOURCE
        assert capsys.readouterr().err == (
            "error: out of resources (maximum recursion depth exceeded)\n"
        )

    def test_memory_error_exit_4(self, split_file, capsys, monkeypatch):
        def exhausted(args):
            raise MemoryError()

        monkeypatch.setitem(cli.COMMANDS, "check", exhausted)
        assert main(["check", split_file]) == EXIT_RESOURCE
        assert capsys.readouterr().err == "error: out of resources (MemoryError)\n"


class TestRepl:
    def run_repl(self, monkeypatch, capsys, path, script):
        monkeypatch.setattr("sys.stdin", io.StringIO(script))
        code = main(["repl", path])
        return code, capsys.readouterr().out

    def test_full_session(self, split_file, monkeypatch, capsys):
        code, out = self.run_repl(
            monkeypatch, capsys, split_file, "s([a,b],Y,Z)\ny\ny\ny\n"
        )
        assert code == 0
        assert out.count("Y = ") == 3
        assert "no more answers" in out

    def test_halt_after_first(self, split_file, monkeypatch, capsys):
        code, out = self.run_repl(
            monkeypatch, capsys, split_file, "s([a,b],Y,Z)\nn\n"
        )
        assert code == 0
        assert out.count("Y = ") == 1
        assert "no more answers" not in out

    def test_zero_answers(self, split_file, monkeypatch, capsys):
        code, out = self.run_repl(
            monkeypatch, capsys, split_file, "s([a],[b],Z)\n"
        )
        assert code == 0
        assert "no more answers" in out

    def test_eof_is_halt(self, split_file, monkeypatch, capsys):
        code, out = self.run_repl(
            monkeypatch, capsys, split_file, "s([a,b],Y,Z)\n"
        )
        assert code == 0
        assert out.count("Y = ") == 1


class TestStats:
    def test_reference_rows_flagged(self, capsys):
        assert main(["stats"]) == 0
        out = capsys.readouterr().out
        split_row = next(l for l in out.splitlines() if l.startswith("split"))
        append_row = next(l for l in out.splitlines() if l.startswith("append"))
        assert "2" in split_row and "4" in split_row
        assert "matches reference count" in split_row
        assert "matches reference count" in append_row

    def test_quicksort_informational(self, capsys):
        main(["stats"])
        out = capsys.readouterr().out
        row = next(l for l in out.splitlines() if l.startswith("quicksort"))
        assert "matches" not in row

    def test_extra_file(self, append_file, capsys):
        assert main(["stats", append_file]) == 0
        out = capsys.readouterr().out
        assert sum(1 for l in out.splitlines() if l.startswith("append")) == 2

    def test_timing_report(self, capsys):
        assert main(["stats", "--timing"]) == 0
        out = capsys.readouterr().out
        assert "ratio" in out
        assert "x" in out.splitlines()[-1]
