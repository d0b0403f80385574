import ast
import io
import os
import subprocess
import sys
import time

import pytest

from conftest import FIXTURES, GOLDEN
from doodlekit.cli import main, run
from doodlekit.errors import CertificateError, MatchingViolation, SlotMisuse, UnknownToken
from doodlekit.markov import verify_certificate
from doodlekit.words import parse_word


# Gauss files that break one rule each, with the error parse_gauss raises
GAUSS_REJECTS = {
    "crossings 1\nfreeloops 0\narc 1.3 1.4\narc 1.4 1.2\n": SlotMisuse,  # targets an exit
    "crossings 1\nfreeloops 0\narc 1.4 1.1\narc 1.4 1.2\n": MatchingViolation,  # exit twice
    "crossings 1\nfreeloops 0\narc 1.3 1.2\narc 1.4 1.2\n": MatchingViolation,  # entry twice
    "crossings 1\nfreeloops 0\narc 1.3 1.1\narc 1.3 1.1\n": MatchingViolation,  # same arc twice
    "crossings 0\nloops 1\n": UnknownToken,
    "crossings 1\nfreeloops 0\narc 1.3\narc 1.4 1.2\n": UnknownToken,
    "freeloops 0\n": UnknownToken,  # no crossings line
}


def invoke(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def golden(name):
    return (GOLDEN / name).read_text()


class TestWordCommands:
    def test_reduce(self):
        code, out, _ = invoke("reduce", "--n", "3", "s1 r2 r2 s1")
        assert (code, out) == (0, "\n")
        code, out, _ = invoke("reduce", "--n", "2", "s1 r1 r1")
        assert (code, out) == (0, "s1\n")

    def test_pi_golden(self):
        code, out, _ = invoke("pi", "--n", "3", "s1 r2")
        assert code == 0 and out == golden("pi_s1r2.txt")

    def test_components(self):
        assert invoke("components", "--n", "3", "s1 r2")[:2] == (0, "1\n")
        assert invoke("components", "--n", "3", "")[:2] == (0, "3\n")

    def test_mu_golden(self):
        code, out, _ = invoke("mu", "--n", "3", "s1 r2")
        assert code == 0 and out == golden("mu_s1r2.txt")

    def test_verify_relations_golden(self):
        code, out, _ = invoke("verify-relations", "--n", "4")
        assert code == 0 and out == golden("relations_4.txt")

    def test_separates_exit_codes(self):
        code, out, _ = invoke("separates", "--n", "3", "s1 s2 s1", "s2 s1 s2")
        assert code == 1
        assert "x1 x3" in out and "x1 x2 x3" in out
        code, out, _ = invoke("separates", "--n", "3", "r1 r2 r1", "r2 r1 r2")
        assert code == 2
        # the middles s1 r2 s1 and r1 s2 r2 separate at x1; the words at x2
        code, out, _ = invoke("separates", "--n", "3", "s1 r2 s1 r1", "r1 s2 r2 r1")
        assert (code, out) == (1, "separated at x2: x1 x2 x3 vs x2\n")


class TestGaussCommands:
    def test_validate_golden(self):
        code, out, _ = invoke("gauss-validate", str(FIXTURES / "kink.gauss"))
        assert code == 0 and out == golden("validate_kink.txt")

    def test_validate_rejects(self, tmp_path):
        kink = "crossings 1\nfreeloops 0\narc {} {}\narc 1.4 1.2\n"
        bad = tmp_path / "bad.gauss"
        for text in [
            "crossings 1\nfreeloops 0\narc 1.3 1.1\n",
            # counts and arc ends are ASCII digits only
            "crossings +0\nfreeloops 0\n",
            "crossings \u0660\nfreeloops 0\n",
            "crossings 0_0\nfreeloops 0\n",
            "crossings 0\nfreeloops +1\n",
            kink.format("+1.3", "1.1"),
            kink.format("1.3", "1.\u0661"),
            kink.format("0_1.3", "1.1"),
            # each count line at most once
            "crossings 1\n" + kink.format("1.3", "1.1"),
            kink.format("1.3", "1.1") + "freeloops 0\n",
            # the arc count is checked before any per-crossing work
            "crossings 1000000000\nfreeloops 0\n",
            *GAUSS_REJECTS,
        ]:
            bad.write_text(text, encoding="utf-8")
            start = time.perf_counter()
            code, _, err = invoke("gauss-validate", str(bad))
            assert code == 65 and "doodlekit:" in err, text
            assert time.perf_counter() - start < 1.0, text

    def test_closure_golden(self):
        code, out, _ = invoke("closure-gauss", "--n", "2", "s1")
        assert code == 0 and out == golden("kink_closure.txt")
        code, out, _ = invoke("closure-gauss", "--n", "2", "s1 s1")
        assert code == 0 and out == golden("two_crossings_closure.txt")

    def test_iso_goldens(self):
        kink = str(FIXTURES / "kink.gauss")
        code, out, _ = invoke("gauss-iso", kink, kink)
        assert (code, out) == (0, golden("iso_kink_self.txt"))
        code, out, _ = invoke("gauss-iso", kink, str(FIXTURES / "twisted.gauss"))
        assert (code, out) == (1, golden("iso_kink_twisted.txt"))
        code, out, _ = invoke(
            "gauss-iso",
            str(FIXTURES / "kishino.gauss"),
            str(GOLDEN / "kishino_relabeled.gauss"),
        )
        assert (code, out) == (0, golden("iso_kishino_relabeled.txt"))

    def test_braid_golden(self):
        code, out, _ = invoke("braid", str(FIXTURES / "kink.gauss"))
        assert (code, out) == (0, golden("braid_kink.txt"))

    def test_braid_free_loops_are_a_count(self, tmp_path):
        loops = tmp_path / "loops.gauss"
        loops.write_text(
            "crossings 1\nfreeloops 1000000000\narc 1.3 1.1\narc 1.4 1.2\n",
            encoding="utf-8",
        )
        start = time.perf_counter()
        code, out, _ = invoke("braid", str(loops))
        assert (code, out) == (0, "n=1000000002\ns1000000001\n")
        assert time.perf_counter() - start < 1.0


class TestEquivCommands:
    def test_equiv_destab(self):
        code, out, _ = invoke("equiv", "--n1", "2", "--n2", "1", "s1", "")
        assert code == 0
        assert "step M2 destab" in out

    def test_equiv_distinct(self):
        code, out, _ = invoke("equiv", "--n1", "2", "--n2", "1", "", "")
        assert code == 1
        assert "closure_components 2 vs 1" in out

    def test_equiv_unknown(self):
        code, out, _ = invoke(
            "equiv", "--n1", "3", "--n2", "1",
            "r2 r1 s1 r1 s1 r2 r1 s1 r1 s1 r2 r1", "",
            "--max-states", "200",
        )
        assert code == 2 and out.startswith("unknown")

    def test_emitted_certificates_verify(self, tmp_path):
        code, out, _ = invoke("equiv", "--n1", "3", "--n2", "2", "s2 r1", "s1")
        assert code == 0
        cert = tmp_path / "cert.txt"
        cert.write_text(out)
        code, out2, _ = invoke("verify-cert", str(cert))
        assert code == 0 and out2.startswith("certificate ok")

    def test_equal_unreduced_words_print_the_headers_only(self, tmp_path):
        code, out, _ = invoke("equiv", "--n1", "2", "--n2", "2", "s1 s1", "s1 s1")
        assert code == 0
        assert out == "doodlekit certificate\nleft n=2 : s1 s1\nright n=2 : s1 s1\n"
        cert = tmp_path / "cert.txt"
        cert.write_text(out)
        code, out2, _ = invoke("verify-cert", str(cert))
        assert code == 0 and out2.startswith("certificate ok")

    def test_verify_cert_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("not a certificate\n")
        code, _, err = invoke("verify-cert", str(path))
        assert code == 65 and "certificate" in err

    def test_verify_cert_rejects_negative_square_del(self, tmp_path):
        # deleting "at -2" would splice s1 s2 s2 into s1 s1 s2 s2, which
        # has three closure components instead of two
        path = tmp_path / "neg.txt"
        path.write_text(
            "doodlekit certificate\n"
            "left n=3 : s1 s2 s2\n"
            "right n=3 : s1 s1 s2 s2\n"
            "step M0 square-del -2 -> s1 s1 s2 s2 @ n=3\n"
        )
        code, _, err = invoke("verify-cert", str(path))
        assert code == 65 and "certificate" in err

    def test_verify_cert_rejects_out_of_range_letters(self, tmp_path):
        path = tmp_path / "range.txt"
        path.write_text(
            "doodlekit certificate\n"
            "left n=2 : s1\n"
            "right n=2 : s9 s9 s1\n"
            "step M0 square-ins 0 s9 -> s9 s9 s1 @ n=2\n"
        )
        code, _, err = invoke("verify-cert", str(path))
        assert code == 65 and "bad certificate" in err

    def test_verify_cert_rejects_shift_steps(self, tmp_path):
        # M1 has one spelling; the left shift of s1 r1 is "M1 conj s1"
        text = (
            "doodlekit certificate\n"
            "left n=2 : s1 r1\n"
            "right n=2 : r1 s1\n"
            "step M1 shift left -> r1 s1 @ n=2\n"
        )
        with pytest.raises(CertificateError):
            verify_certificate(text)
        assert verify_certificate(text.replace("shift left", "conj s1")).end == parse_word("r1 s1", 2)
        path = tmp_path / "shift.txt"
        path.write_text(text)
        code, _, err = invoke("verify-cert", str(path))
        assert code == 65 and "certificate" in err


# equiv runs whose certificates are pinned byte for byte; together they use
# every M0 rule id
EQUIV_GOLDENS = [
    ("equiv_mixs_braid.txt",
     ["--n1", "3", "--n2", "3", "r1 s2 r2 s1 s2 s2 r2", "s1 r2 s2 r2 r1 s1 s1 r2 r1"]),
    ("equiv_mixr_shrink_destab.txt",
     ["--n1", "4", "--n2", "3", "r1 s3 r2 s1 r2 s3", "r1", "--max-len", "8", "--max-n", "4"]),
    ("equiv_comm_grow_braid_grow.txt",
     ["--n1", "4", "--n2", "4", "s3 r2 s1", "s3 s1 r3 s1 r2 r3 r2 s1 r3"]),
    ("equiv_braid_shrink.txt",
     ["--n1", "3", "--n2", "3", "s2 r1 r2 r1 r1 r1 r2 s1 s2 s2", "s2 r2 r1 s1 s2 s2"]),
    ("equiv_mixr_grow_stab.txt",
     ["--n1", "2", "--n2", "4", "s1 r1 s1 r1 s1 r1", "s1 r1 s1 r1 s1 s2 r1 r2 s1 r3"]),
]


class TestEquivGoldens:
    @pytest.mark.parametrize("name,argv", EQUIV_GOLDENS, ids=[g[0] for g in EQUIV_GOLDENS])
    def test_certificate_bytes(self, name, argv):
        code, out, _ = invoke("equiv", *argv)
        assert (code, out) == (0, golden(name))
        code, out, _ = invoke("verify-cert", str(GOLDEN / name))
        assert code == 0 and out.startswith("certificate ok")

    def test_goldens_use_every_m0_rule(self):
        rules = {
            line.split()[2]
            for name, _ in EQUIV_GOLDENS
            for line in golden(name).splitlines()
            if line.startswith("step M0 ")
        }
        assert rules == {
            "comm", "comm-grow", "comm-shrink", "braid", "braid-grow", "braid-shrink",
            "mix3", "mixs-grow", "mixs-shrink", "mixr-grow", "mixr-shrink",
            "square-ins", "square-del",
        }


class TestUsage:
    def test_missing_subcommand(self):
        code, _, _ = invoke()
        assert code == 64

    def test_missing_n_flag(self):
        code, _, _ = invoke("pi", "s1")
        assert code == 64

    @pytest.mark.parametrize("argv", [["reduce", "--n", "3", "s1 s1"], ["pi", "--n", "3", "s9"]])
    def test_main_exits_with_the_code_of_run(self, monkeypatch, capsys, argv):
        monkeypatch.setattr(sys, "argv", ["doodlekit", *argv])
        with pytest.raises(SystemExit) as exit_:
            main()
        assert exit_.value.code == invoke(*argv)[0]

    def test_version_goes_to_out(self):
        # argparse prints --version itself; run must route it to out
        code, out, err = invoke("--version")
        assert (code, out.strip(), err) == (0, "doodlekit 0.1.0", "")

    def test_parse_error_exit(self):
        code, _, err = invoke("pi", "--n", "3", "s9")
        assert code == 65 and "doodlekit:" in err

    def test_overlong_token_is_a_parse_error(self, tmp_path):
        token = "s" + "1" * 5000  # more digits than int() converts
        assert invoke("reduce", "--n", "3", token) == (
            65, "", "doodlekit: bad token 's1111111111111111111... (5001 characters)': index too long\n"
        )
        header = f"doodlekit certificate\nleft n=2 : {token}\nright n=2 : s1\n"
        step = f"doodlekit certificate\nleft n=2 : s1\nright n=2 : s1\nstep M1 conj {token} -> s1 @ n=2\n"
        for text, message in ((header, "bad header line"), (step, "bad step line")):
            path = tmp_path / "long.txt"
            path.write_text(text)
            code, out, err = invoke("verify-cert", str(path))
            assert (code, out) == (65, "") and err.startswith(f"doodlekit: bad certificate: {message} ")

    @pytest.mark.parametrize(
        "command,text",
        [
            ("verify-cert", "doodlekit certificate\nleft n=2 : s1\nright n=2 : s1\n"
             "step M1 conj s" + "1" * 5000 + " -> s1 @ n=2\n"),
            ("gauss-validate", "crossings " + "1" * 5000 + "\n"),
        ],
    )
    def test_long_lines_are_cut_in_messages(self, tmp_path, command, text):
        path = tmp_path / "long.txt"
        path.write_text(text)
        code, out, err = invoke(command, str(path))
        assert (code, out) == (65, "") and "... (50" in err
        assert len(err.encode()) < 200

    def test_long_words_are_cut_in_messages(self, tmp_path):
        # a step whose 2,000-letter result differs from the replayed one
        word = " ".join(["s1", "s2"] * 1000)
        path = tmp_path / "long.cert"
        path.write_text(f"doodlekit certificate\nleft n=3 : {word}\nright n=3 : s1\n"
                        f"step M2 stab s -> {word} @ n=3\n")
        code, out, err = invoke("verify-cert", str(path))
        assert (code, out) == (65, "") and "... (5999 characters)" in err
        assert len(err.encode()) < 300

    @pytest.mark.parametrize(
        "argv,code,message",
        [
            (("reduce", "--n", "3", "s" + "1" * 4000), 65,
             "letter s11111111111111111111... (4000 digits) invalid on 3 strands"),
            (("reduce", "--n", "-" + "1" * 4000, "s1"), 65,
             "strand count must be >= 1, got -11111111111111111111... (4000 digits)"),
            (("verify-relations", "--n", "-" + "1" * 4000), 65,
             "relations need n >= 2, got -11111111111111111111... (4000 digits)"),
            (("reduce", "--n", "1" * 5000, "s1"), 64,
             "argument --n: invalid int value: '11111111111111111111... (5000 characters)'"),
            (("reduce", "--n", "x", "s1"), 64, "argument --n: invalid int value: 'x'"),
            (("equiv", "--n1", "2", "--n2", "2", "s1", "s1", "--max-states", "9" * 5000), 64,
             "argument --max-states: invalid int value: '99999999999999999999... (5000 characters)'"),
        ],
        ids=["index", "strands", "relations", "int-option", "short-int-option", "max-states"],
    )
    def test_long_values_are_cut_in_messages(self, argv, code, message):
        assert invoke(*argv) == (code, "", f"doodlekit: {message}\n")

    def test_missing_file(self):
        code, _, _ = invoke("gauss-validate", "no/such/file.gauss")
        assert code == 65

    @pytest.mark.parametrize("command", ["verify-cert", "gauss-validate", "gauss-iso", "braid"])
    def test_non_utf8_file(self, tmp_path, command):
        path = tmp_path / "utf16.txt"
        path.write_bytes(b"\xff\xfe" + "n=2\ns1\n".encode("utf-16-le"))
        args = [str(path)] * (2 if command == "gauss-iso" else 1)
        code, out, err = invoke(command, *args)
        assert (code, out) == (65, "") and "not UTF-8" in err

    def test_python_m_runs_cli(self):
        src = str(FIXTURES.parent / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-m", "doodlekit.cli", "pi", "--n", "3", "s1 r2"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0 and proc.stdout == golden("pi_s1r2.txt")


@pytest.mark.parametrize("script, args, line", [
    ("rebraid_roundtrip.py", ["--samples", "200"], "200/200 round trips closed"),
    ("kishino_probe.py", ["--max-states", "2000"], "verdict: Unknown(states_explored=2000"),
    ("layer_timings.py", ["--repeat", "1", "--number", "1"], '"layers": {"mu": {"us": '),
    ("branch_census.py",
     [str(FIXTURES.parent / "tests" / "test_alexander.py"), "-q", "-p", "no:cacheprovider"],
     '{"pytest_exit": 0, "modules": {"__init__": {"unexecuted": [], '),
])
def test_scripts_run(script, args, line):
    # the scripts call format_word and random_word; run them as a user would
    proc = run_script(script, *args)
    assert proc.returncode == 0, proc.stderr
    assert line in proc.stdout


def run_script(script, *args):
    src = str(FIXTURES.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, str(FIXTURES.parent / "scripts" / script), *args],
        capture_output=True, text=True, env=env, timeout=60,
    )


def test_kishino_probe_fails_unless_the_budget_is_spent():
    # a negative budget expands no state, so the search ends Unknown after 0
    proc = run_script("kishino_probe.py", "--max-states", "-1")
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout.endswith("expected Unknown after exactly -1 states\n")


SOURCES = sorted([*(FIXTURES.parent / "src" / "doodlekit").glob("*.py"),
                  *(FIXTURES.parent / "scripts").glob("*.py")])


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_sources_parse_as_python_3_10(path):
    # pyproject.toml sets requires-python >= 3.10: no syntax of a later release
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
