"""The README's examples, run as tests: the library block as doctests, the
`offdiag count` lines against the values in their comments, and every
module attribute it names, and every name in its layout table, against the
package."""

import builtins
import doctest
import importlib
import re
import shlex
from functools import reduce
from pathlib import Path

import offdiag
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


def _resolves(token, module):
    """Whether a dotted name is an attribute path of `module`, of `offdiag`
    or of the builtins, or an importable module."""
    for scope in (module, offdiag, builtins):
        try:
            reduce(getattr, token.split("."), scope)
            return True
        except AttributeError:
            pass
    try:
        importlib.import_module(token)
    except ImportError:
        return False
    return True


def test_readme_layout_names_resolve():
    # every backticked name in a layout row, call parentheses stripped, is
    # something of that row's module, so a retired name cannot linger
    rows = re.findall(r"^\| `(offdiag(?:\.\w+)?)`(.*)$", README, re.M)
    assert len(rows) == 9
    unresolved = []
    for name, row in rows:
        module = importlib.import_module(name)
        for token in re.findall(r"`([^`]+)`", row):
            if " " in token or "-" in token:
                continue
            token = re.sub(r"\(.*?\)", "", token)
            if not _resolves(token, module):
                unresolved.append((name, token))
    assert unresolved == []
