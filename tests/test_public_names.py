"""The README documents every public name of the package and every scenario key."""

import re
from pathlib import Path

import nmqsim
from nmqsim import config

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_names_every_public_name():
    documented = set(re.findall(r"`([^`\n]+)`", README.read_text(encoding="utf-8")))
    assert sorted(set(nmqsim.__all__) - documented) == []


def test_readme_library_example_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library use"):]
    example = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(example, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    # five concurrence samples starting from the Bell state's 1, then the events
    assert lines[0].startswith("[1.")
    assert len(lines) > 1 and all(line.split()[0] in {"DEATH", "REVIVAL", "FINAL_DEATH"}
                                  for line in lines[1:])


def test_readme_scenario_table_lists_every_key():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("### Scenario files"):text.index("### Outputs")]
    first_cells = [ln.split("|")[1] for ln in section.splitlines() if ln.startswith("| `")]
    documented = [key for cell in first_cells for key in re.findall(r"`([^`]+)`", cell)]
    assert sorted(documented) == sorted(config._ALL_KEYS)
