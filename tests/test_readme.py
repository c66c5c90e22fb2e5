"""The README's examples, run as tests: the library block as doctests, the
`offdiag count` lines against the values in their comments, and every
module attribute it names against the package."""

import doctest
import importlib
import re
import shlex
from pathlib import Path

from offdiag.cli import main

README = (Path(__file__).parent.parent / "README.md").read_text()


def test_readme_examples(capsys):
    block = re.search(r"```python\n(.*?)```", README, re.S).group(1)
    test = doctest.DocTestParser().get_doctest(block, {}, "README",
                                               "README.md", 0)
    result = doctest.DocTestRunner().run(test)
    report = capsys.readouterr().out
    assert result.attempted == 5
    assert result.failed == 0, report

    lines = re.findall(r"^offdiag (count .*?)#(.*)$", README, re.M)
    assert len(lines) == 6
    for command, comment in lines:
        want = comment.split()[0].rstrip(",")
        assert main(shlex.split(command)) == 0, command
        assert capsys.readouterr().out == want + "\n", command


def test_readme_names_resolve():
    names = re.findall(r"\boffdiag\.(\w+)\.(\w+)", README)
    assert len(names) >= 5
    for module, name in names:
        assert hasattr(importlib.import_module(f"offdiag.{module}"), name), (
            f"README names offdiag.{module}.{name}, which does not exist")
