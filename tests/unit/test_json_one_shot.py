"""No file under ``src/`` may call ``json.dump(``.

``json.dump(obj, fh)`` drives ``JSONEncoder.iterencode`` without
``_one_shot``, so CPython always takes the pure-Python encoder and
hands the file a few bytes per ``write``; ``json.dumps`` reaches the C
encoder and produces the same text.  On the runner's cache path that
was 2.1 s of a 4.5 s recorded sweep (ROADMAP item 1, third table).
"""

import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"
STREAMING = re.compile(r"\bjson\.dump\(")


def test_src_never_streams_json_through_the_python_encoder():
    offenders = sorted(
        f"{path.relative_to(SRC)}:{number}"
        for path in SRC.rglob("*.py")
        for number, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), 1)
        if STREAMING.search(line))
    assert not offenders, (
        f"{offenders}: json.dump(obj, fh) always takes the pure-Python "
        "encoder (several times slower, same bytes) — write "
        "fh.write(json.dumps(obj, ...)) instead")
