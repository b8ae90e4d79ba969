"""Byte-exact output of the CLI and the two scripts, pinned against goldens.

The battery runs every subcommand on every catalog entry, in text and in
machine format, and records exit code, stdout and stderr.  The scripts run
in-process with their usual arguments, and the README's library example
must print what its comment lines say.  To regenerate the goldens after a
deliberate output change, run

    PYTHONPATH=src python tests/test_golden_output.py --write
"""

import contextlib
import io
import runpy
import sys
from pathlib import Path

import pytest

from liejacobi import cli
from liejacobi.catalog import catalog_names

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden"

# the two parameterized catalog names, instantiated at small sizes
NAMES = [n for n in catalog_names() if not n.endswith("n)")] + [
    "abelian(3)", "heisenberg(1,2)"]


def _captured(fn) -> tuple[str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        fn()
    return out.getvalue(), err.getvalue()


def cli_battery() -> str:
    chunks = []
    for sub in cli._SUBCOMMANDS:
        for name in NAMES:
            for fmt in ("text", "machine"):
                argv = [sub, "--name", name, "--format", fmt]
                code = []
                out, err = _captured(lambda: code.append(cli.main(argv)))
                chunks.append(f"$ {' '.join(argv)}\n[exit {code[0]}]\n"
                              f"{out}[stderr]\n{err}")
    return "".join(chunks)


def readme_example() -> tuple[str, str]:
    """The python block under "## Library example" in the README and the
    output that its `# ` comment lines give."""
    section = (ROOT / "README.md").read_text().split("## Library example\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    expected = "".join(line[2:] + "\n" for line in block.splitlines() if line.startswith("# "))
    return block, expected


def script_output(name: str, *argv: str) -> str:
    saved = sys.argv
    sys.argv = [name, *argv]
    try:
        out, _ = _captured(lambda: runpy.run_path(str(ROOT / "scripts" / name),
                                                  run_name="__main__"))
    finally:
        sys.argv = saved
    return out


PRODUCERS = {
    "cli_battery.txt": cli_battery,
    "classify_catalog.txt": lambda: script_output("classify_catalog.py"),
    "contact_sweep_bound2.txt": lambda: script_output("contact_sweep.py", "--bound", "2"),
}


@pytest.mark.parametrize("golden", sorted(PRODUCERS))
def test_output_matches_golden(golden):
    expected = (GOLDEN / golden).read_text(encoding="utf-8")
    assert PRODUCERS[golden]() == expected


def test_readme_library_example_prints_its_comments():
    block, expected = readme_example()
    assert expected
    out, err = _captured(lambda: exec(compile(block, "README.md", "exec"), {}))
    assert (out, err) == (expected, "")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden_output.py --write")
    GOLDEN.mkdir(exist_ok=True)
    for golden, produce in PRODUCERS.items():
        (GOLDEN / golden).write_text(produce(), encoding="utf-8")
