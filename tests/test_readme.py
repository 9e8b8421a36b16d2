"""The README's library quickstart runs as printed."""
from pathlib import Path
import re

README = Path(__file__).parent.parent / "README.md"


def test_library_quickstart_runs(capsys):
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quickstart", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md quickstart", "exec"), {})
    lam, lam_bps, cap_bps = map(float, capsys.readouterr().out.split())
    assert 0 < lam_bps < cap_bps
