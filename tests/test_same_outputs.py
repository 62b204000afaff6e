"""The byte-equality tool: its command list and its diff report, run on two
small trees made here (no git involved)."""

import importlib.util
import io
import shlex
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def same_outputs():
    spec = importlib.util.spec_from_file_location("same_outputs",
                                                  ROOT / "tools" / "same_outputs.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    yield module
    del sys.modules[spec.name]


def test_parse_commands_reads_marks_comments_quotes_and_file_lines(same_outputs):
    text = """
    # a comment
    * qhcenter a.sys --sweep mu=0:1:1/2

    verify a.sys --integral "(x^2+y^2)/2 + y"
    *returnmap {file} --x0 0.1
    """
    assert same_outputs.parse_commands(text, files=("a.sys", "b/c.sys")) == [
        (True, ["qhcenter", "a.sys", "--sweep", "mu=0:1:1/2"]),
        (False, ["verify", "a.sys", "--integral", "(x^2+y^2)/2 + y"]),
        (True, ["returnmap", "a.sys", "--x0", "0.1"]),
        (True, ["returnmap", "b/c.sys", "--x0", "0.1"]),
    ]


def test_the_fixed_list_names_the_required_runs(same_outputs):
    commands = [shlex.join(argv) for _, argv in same_outputs.parse_commands(same_outputs.COMMANDS)]
    quick = [shlex.join(argv) for q, argv in same_outputs.parse_commands(same_outputs.COMMANDS)
             if q]
    cubic = "qhcenter sample_systems/homogeneous_cubic.sys "
    for line in (cubic + "--set lambda=0 --sweep mu=0:3:1/8",
                 cubic + "--set lambda=1 --sweep mu=0:3:1/8",
                 cubic + "--set lambda=1 --sweep mu=2:3:1/9",
                 cubic + "--set lambda=1 --sweep mu=1/2:7/4:1/4",
                 cubic + "--set lambda=1 --sweep mu=1/2:9/8:1/8"):
        assert line in commands and line in quick
    # the deep lines of list version 2
    ab = "liapunov sample_systems/nilpotent_cubic_ab.sys --perturb "
    for line in (*(ab + f"minimal --max-degree {d}" for d in (16, 18, 20)),
                 "liapunov bench/systems/cubic_k.sys --perturb general:5 --max-degree 8",
                 "liapunov bench/systems/cubic_k.sys --perturb general:3 --max-degree 8",
                 ab + "general:3 --max-degree 8",
                 "liapunov bench/systems/sextic.sys --perturb minimal --max-degree 16",
                 "liapunov sample_systems/degenerate_quintic.sys --perturb auto "
                 "--mode first-order --max-degree 16"):
        assert line in commands
    assert same_outputs.LIST_VERSION == 2
    files = sorted(str(p.relative_to(ROOT)) for d in ("sample_systems", "bench/systems")
                   for p in (ROOT / d).glob("*.sys"))
    assert sorted(same_outputs.FILES) == files and len(files) == 12
    assert all(f"qhcenter {f}" in quick for f in files)
    assert len(commands) == len(set(commands))


def _tree(root: Path, report_of_beta: str) -> Path:
    """A tree whose ``centerlab.cli`` writes the first argument as its
    report, or ``report_of_beta`` for the argument ``beta``; ``gamma``
    exits 3 with a message."""
    package = root / "src" / "centerlab"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "cli.py").write_text(
        "import sys\n"
        "args = sys.argv[1:]\n"
        "if args[0] == 'gamma':\n"
        "    print('error: gamma', file=sys.stderr)\n"
        "    sys.exit(3)\n"
        "with open(args[args.index('-o') + 1], 'w') as fh:\n"
        f"    fh.write({report_of_beta!r} if args[0] == 'beta' else args[0])\n")
    return root


def test_compare_reports_only_the_line_with_a_planted_difference(same_outputs, tmp_path):
    ref = _tree(tmp_path / "ref", "beta 1.0")
    new = _tree(tmp_path / "new", "beta 1.0000000000000002")
    out = io.StringIO()
    commands = [["alpha", "--x"], ["beta"], ["gamma"]]
    assert same_outputs.compare(ref, new, commands, out=out) == 1
    assert out.getvalue().splitlines() == [
        "DIFFERS (report): beta",
        f"2 of 3 command lines equal (list version {same_outputs.LIST_VERSION})",
    ]
    out = io.StringIO()
    assert same_outputs.compare(ref, ref, commands, out=out) == 0
    assert out.getvalue().startswith("3 of 3 command lines equal")


def test_differences_name_every_part(same_outputs):
    Outcome = same_outputs.Outcome
    a = Outcome(b"x", b"", 0, b"{}")
    assert same_outputs.differences(a, a) == []
    assert same_outputs.differences(a, Outcome(b"y", b"e", 3, None)) == [
        "stdout", "stderr", "code", "report"]
