"""The README documents every public name of the package."""

import re
from pathlib import Path

import nmqsim

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_names_every_public_name():
    documented = set(re.findall(r"`([^`\n]+)`", README.read_text(encoding="utf-8")))
    assert sorted(set(nmqsim.__all__) - documented) == []
