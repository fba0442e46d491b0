"""CLI tests: exit codes, output formats, the repl protocol."""

import io
import json
import os
import random
import subprocess
import sys
from collections import Counter

import pytest
from conftest import CORPUS_GOALS

import chainform
from chainform import cli
from chainform.chainir import compile_to_registry
from chainform.cli import EXIT_RESOURCE, main
from chainform.fixtures import fixture_text
from chainform.forms import check_gchain
from chainform.syntax import parse_goal

# The choices of solve --engine.
SOLVE_ENGINES = ("abcde", "continuation", "stream", "bounded")


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
def superscript_file(tmp_path):
    # '²' is a digit to str.isdigit but not to int().
    path = tmp_path / "superscript.pl"
    path.write_text("p(\u00b2).\n", encoding="utf-8")
    return str(path)


SUPERSCRIPT_ERROR = "parse error: unexpected character '\u00b2' (line 1, column 3)"


@pytest.fixture
def undefined_file(tmp_path):
    # q calls p, which has no clause.
    path = tmp_path / "undefined.pl"
    path.write_text("q(X) :- p(X).\n", encoding="utf-8")
    return str(path)


UNDEFINED_ERROR = "error: predicate p/1 is used in q/1 but never defined"


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

    def test_superscript_digit_is_a_parse_error(self, superscript_file, capsys):
        assert main(["check", superscript_file]) == 2
        assert capsys.readouterr().err.strip() == SUPERSCRIPT_ERROR

    def test_overlong_integer_is_a_parse_error(self, tmp_path, capsys):
        # One digit past the limit of int() on strings, where there is one.
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if not limit:
            pytest.skip("int() converts strings of any length here")
        path = tmp_path / "big.pl"
        path.write_text("p(%s).\n" % ("9" * (limit + 1)), encoding="utf-8")
        assert main(["check", str(path)]) == 2
        assert capsys.readouterr().err.strip() == (
            "parse error: integer of %d digits is too long (line 1, column 3)"
            % (limit + 1)
        )

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


    def test_registry_of_undefined_predicate(self, undefined_file, capsys):
        assert main(["transform", undefined_file, "--registry"]) == 1
        out, err = capsys.readouterr()
        assert (out, err) == ("", UNDEFINED_ERROR + "\n")


class TestSolve:
    def test_superscript_digit_in_goal(self, split_file, capsys):
        assert main(["solve", split_file, "-g", "p(\u00b2)"]) == 2
        assert capsys.readouterr().err.strip() == SUPERSCRIPT_ERROR

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

    @pytest.mark.parametrize("value", ["-1", "abc", "1.5"])
    def test_bad_budget_flag_is_a_usage_error(self, looping_file, capsys, value):
        with pytest.raises(SystemExit) as exc:
            main(["solve", looping_file, "-g", "p(a)", "--budget", value])
        assert exc.value.code == 2
        assert "non-negative integer" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["-5", "x"])
    def test_bad_budget_env_is_a_usage_error(
        self, looping_file, capsys, monkeypatch, value
    ):
        monkeypatch.setenv("CHAINFORM_BUDGET", value)
        with pytest.raises(SystemExit) as exc:
            main(["solve", looping_file, "-g", "p(a)"])
        assert exc.value.code == 2
        assert "CHAINFORM_BUDGET" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["solve", "repl"])
    def test_bad_budget_env_prints_the_command_usage(
        self, looping_file, capsys, monkeypatch, command
    ):
        # The same usage line as a bad --budget, not the top-level one.
        argv = [command, looping_file] + (["-g", "p(a)"] if command == "solve" else [])
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--budget", "x"])
        flag_usage = capsys.readouterr().err.splitlines()[0]
        monkeypatch.setenv("CHAINFORM_BUDGET", "x")
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        env_usage = capsys.readouterr().err.splitlines()[0]
        assert env_usage == flag_usage
        assert env_usage.startswith("usage: chainform %s " % command)

    def test_zero_budget_exit_3(self, looping_file, capsys):
        assert main(["solve", looping_file, "-g", "p(a)", "--budget", "0"]) == 3

    def test_undefined_predicate_one_line(self, undefined_file, capsys):
        assert main(["solve", undefined_file, "-g", "q(a)"]) == 1
        out, err = capsys.readouterr()
        assert (out, err) == ("", UNDEFINED_ERROR + "\n")

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

    @pytest.mark.parametrize(
        "engine,mode",
        [(e, m) for m in ((), ("--mode", "definite")) for e in SOLVE_ENGINES],
        ids=[*SOLVE_ENGINES, *(e + "-definite" for e in SOLVE_ENGINES)],
    )
    def test_unit_over_the_cap(
        self, tmp_path, capsys, engine, mode, default_recursion_limit
    ):
        # A unit of over 20 000 registers, far over the cap of
        # units._MAX_REGISTERS, so match mode (the moded conversion) runs
        # it through terms.match and Subst.apply, and unify mode (the
        # definite conversion) through unify_unit's register loop.
        n = 20000
        path = tmp_path / "p.pl"
        path.write_text(
            ":- mode(p,[in,out]).\np(%sX%s, X).\n" % ("s(" * n, ")" * n),
            encoding="utf-8",
        )
        goal = "p(%s0%s,Y)" % ("s(" * n, ")" * n)
        argv = ["solve", str(path), "-g", goal, "--engine", engine, *mode]
        assert main(argv) == 0
        assert capsys.readouterr().out.splitlines()[0] == "Y = 0"

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

    def test_superscript_digit_reported_and_session_goes_on(
        self, split_file, monkeypatch, capsys
    ):
        code, out = self.run_repl(
            monkeypatch, capsys, split_file, "p(\u00b2)\ns([a],Y,Z)\nn\n"
        )
        assert code == 0
        assert SUPERSCRIPT_ERROR in out
        assert "Y = [], Z = [a]" in out

    def test_undefined_predicate_reported_and_session_goes_on(
        self, undefined_file, monkeypatch, capsys
    ):
        code, out = self.run_repl(monkeypatch, capsys, undefined_file, "q(a)\nq(b)\n")
        assert code == 0
        assert out.count(UNDEFINED_ERROR + "\n") == 2

    def test_one_registry_per_session(self, split_file, monkeypatch, capsys):
        built, checked = [], []

        def counting(chain):
            built.append(chain)
            return compile_to_registry(chain)

        def checking(program):
            checked.append(program)
            return check_gchain(program)

        monkeypatch.setattr(cli, "compile_to_registry", counting)
        monkeypatch.setattr(cli, "check_gchain", checking)
        code, out = self.run_repl(
            monkeypatch, capsys, split_file, "s([a,b],Y,Z)\ny\ny\ny\ns([a],Y,Z)\nn\n"
        )
        assert code == 0
        assert len(built) == len(checked) == 1
        more = "more? (y/n) "
        assert out == (
            "?- Y = [], Z = [a,b]\n"
            + more + "Y = [a], Z = [b]\n"
            + more + "Y = [a,b], Z = []\n"
            + more + "no more answers\n"
            "?- Y = [], Z = [a]\n"
            + more + "?- \n"
        )

    def test_eof_is_halt(self, split_file, monkeypatch, capsys):
        code, out = self.run_repl(
            monkeypatch, capsys, split_file, "s([a,b],Y,Z)\n"
        )
        assert code == 0
        assert out.count("Y = ") == 1


def _unreadable(kind, tmp_path):
    """A program path that cannot be read: missing, a directory, or a file
    that is not UTF-8."""
    path = tmp_path / ("%s.pl" % kind)
    if kind == "directory":
        path.mkdir()
    elif kind == "undecodable":
        path.write_bytes(b"s([],[],[]).\n% caf\xe9\n")
    return str(path)


UNREADABLE = ("missing", "directory", "undecodable")
REASONS = {
    "missing": "No such file or directory",
    "directory": "Is a directory",
    "undecodable": "'utf-8' codec can't decode byte 0xe9",
}
FILE_COMMANDS = {
    "check": lambda path: ["check", path],
    "transform": lambda path: ["transform", path],
    "solve": lambda path: ["solve", path, "-g", "s([a],Y,Z)"],
    "stats": lambda path: ["stats", path],
}


class TestFileErrors:
    """A file that cannot be read or written is a usage error: one line on
    stderr, exit 2, no traceback."""

    @pytest.mark.parametrize("kind", UNREADABLE)
    @pytest.mark.parametrize("command", sorted(FILE_COMMANDS))
    def test_unreadable_program(self, command, kind, tmp_path, capsys):
        path = _unreadable(kind, tmp_path)
        assert main(FILE_COMMANDS[command](path)) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: cannot read %s: %s" % (path, REASONS[kind]))
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err + captured.out

    def test_transform_into_a_missing_directory(self, split_file, tmp_path, capsys):
        out = tmp_path / "absent" / "chain.pl"
        assert main(["transform", split_file, "-o", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "error: cannot write %s: No such file or directory\n" % out
        )
        assert captured.out == ""

    @pytest.mark.parametrize("kind", UNREADABLE)
    def test_process_prints_no_traceback(self, kind, tmp_path):
        path = _unreadable(kind, tmp_path)
        proc = run_python(["-m", "chainform.cli", "check", path], tmp_path)
        assert proc.returncode == 2
        assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: cannot read %s: " % path)

    @pytest.mark.parametrize("kind", UNREADABLE)
    def test_repl_reports_and_goes_on(self, kind, tmp_path, monkeypatch, capsys):
        # The program becomes readable after the first goal: the second
        # goal builds the session and is answered.
        path = _unreadable(kind, tmp_path)

        class Script(io.StringIO):
            goals = 0

            def readline(self, *args):
                line = super().readline(*args)
                self.goals += 1
                if self.goals == 2:
                    if kind == "directory":
                        os.rmdir(path)
                    with open(path, "w", encoding="utf-8") as handle:
                        handle.write(fixture_text("split"))
                return line

        monkeypatch.setattr("sys.stdin", Script("s([a],Y,Z)\ns([a],Y,Z)\nn\n"))
        assert main(["repl", path]) == 0
        out = capsys.readouterr().out
        assert out.count("error: cannot read %s: %s" % (path, REASONS[kind])) == 1
        assert "Y = [], Z = [a]" in out


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


# Characters the random edits insert or substitute: the language's own
# punctuation, names, digits and layout, a quote, and a digit int() rejects.
EDIT_CHARS = "()[]|,.:-_ \n%'aXYs09\u00b2"

# Every command the robustness test runs, each given the program file and
# the goal: check, transform --registry, and solve under every engine and
# conversion.
FUZZ_COMMANDS = [
    lambda path, goal: ["check", path],
    lambda path, goal: ["transform", path, "--registry"],
] + [
    (lambda engine, mode: lambda path, goal: [
        "solve", path, "-g", goal, "--engine", engine, "--mode", mode,
        "--budget", "2000",
    ])(engine, mode)
    for engine in SOLVE_ENGINES
    for mode in ("moded", "definite", "auto")
]


def edited(rng, text, edits):
    """text after that many random one-character insertions, deletions and
    substitutions."""
    chars = list(text)
    for _ in range(edits):
        op = rng.randrange(3)
        if op == 0 or not chars:
            chars.insert(rng.randrange(len(chars) + 1), rng.choice(EDIT_CHARS))
        elif op == 1:
            del chars[rng.randrange(len(chars))]
        else:
            chars[rng.randrange(len(chars))] = rng.choice(EDIT_CHARS)
    return "".join(chars)


class TestRobustness:
    def test_edited_inputs_exit_with_documented_codes(self, tmp_path, capsys):
        """cli.main on fixture texts and corpus goals with up to ten random
        character edits each: no exception escapes, every return code is a
        documented one (0-4), and an exit raised is a usage error (2)."""
        rng = random.Random(16)
        path = tmp_path / "edited.pl"
        codes = Counter()
        for _ in range(250):
            fixture = rng.choice(sorted(CORPUS_GOALS))
            # Few edits more often than many, so that more runs get past
            # the parser.
            edits = lambda: min(rng.randint(0, 10), rng.randint(0, 10))
            path.write_text(
                edited(rng, fixture_text(fixture), edits()), encoding="utf-8"
            )
            goal = edited(rng, rng.choice(CORPUS_GOALS[fixture]), edits())
            for command in FUZZ_COMMANDS:
                argv = command(str(path), goal)
                try:
                    code = main(argv)
                except SystemExit as err:
                    assert err.code == 2, argv
                    code = 2
                assert code in range(5), argv
                codes[code] += 1
                capsys.readouterr()
        # Edits that keep a program answerable, and ones that break it.
        assert codes[0] and codes[1] and codes[2], codes

