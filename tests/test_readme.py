"""The README's examples run.

Each ```python block is written in >>> form and runs as its own doctest, in
fresh globals: parsed block by block, since over the whole file a closing
fence would join the expected output of the block's last example. Each
`zhcorrect ...` line of a ```sh block must parse with the CLI's own parser.
"""

import contextlib
import doctest
import io
import re
import shlex
from pathlib import Path

from zhcorrect.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"
_FENCE = re.compile(r"^```(\w*)\n(.*?)^```$", re.MULTILINE | re.DOTALL)


def _blocks(text, language):
    return [body for kind, body in _FENCE.findall(text) if kind == language]


def doctest_failures(text):
    """The report of each python block that is not in >>> form or whose
    doctest fails."""
    parser, failures = doctest.DocTestParser(), []
    for number, body in enumerate(_blocks(text, "python")):
        name = f"python block {number}"
        if not body.startswith(">>> "):
            failures.append(f"{name} is not in >>> form")
            continue
        report = []
        test = parser.get_doctest(body, {}, name, str(README), 0)
        if doctest.DocTestRunner().run(test, out=report.append).failed:
            failures.append("".join(report))
    return failures


def command_lines(text):
    return [
        line for body in _blocks(text, "sh") for line in body.splitlines()
        if line.startswith("zhcorrect ")
    ]


def command_errors(text):
    """The line and the parser's message of each zhcorrect command line that
    build_parser() refuses."""
    errors = []
    for line in command_lines(text):
        stderr = io.StringIO()
        try:
            with contextlib.redirect_stderr(stderr):
                build_parser().parse_args(shlex.split(line)[1:])
        except SystemExit as exc:
            errors.append(f"{line}: exit {exc.code}: {stderr.getvalue().strip()}")
    return errors


def test_readme_python_blocks_run_as_doctests():
    text = README.read_text(encoding="utf-8")
    assert _blocks(text, "python")
    assert doctest_failures(text) == []


def test_readme_command_lines_parse():
    text = README.read_text(encoding="utf-8")
    commands = {shlex.split(line)[1] for line in command_lines(text)}
    assert {"score-csc", "score-cgc", "extract-edits", "train", "correct", "align"} <= commands
    assert command_errors(text) == []


_BROKEN = """\
Prose, then a wrong output and an unknown flag.

```python
>>> 1 + 1
3
```

```python
1 + 1
```

```sh
# a comment and a command that parses
zhcorrect align 甲 乙
zhcorrect align 甲 乙 --no-such-flag
```
"""


def test_the_checks_report_a_wrong_output_and_an_unknown_flag():
    first, second = doctest_failures(_BROKEN)
    assert "Expected:\n    3\nGot:\n    2" in first
    assert second == "python block 1 is not in >>> form"
    (error,) = command_errors(_BROKEN)
    assert error.startswith("zhcorrect align 甲 乙 --no-such-flag: exit 2: usage: zhcorrect")
    assert error.endswith("unrecognized arguments: --no-such-flag")
