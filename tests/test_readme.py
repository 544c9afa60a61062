"""The README's library tour and CLI examples run as printed, so a renamed API fails here."""

import json
import os
import re
import shlex

from semicayley.cli import main

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def _blocks(pattern):
    with open(README, encoding="utf-8") as handle:
        return re.findall(pattern, handle.read(), re.DOTALL | re.MULTILINE)


def test_readme_python_block_runs():
    blocks = _blocks(r"^```python\n(.*?)^```")
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})


def test_readme_cli_block_runs(tmp_path, monkeypatch, capsys):
    blocks = _blocks(r"^## CLI\n\n```sh\n(.*?)^```")
    assert len(blocks) == 1
    lines = blocks[0].replace("\\\n", " ").splitlines()
    assert len(lines) == 8
    monkeypatch.chdir(tmp_path)  # `--config job.json` reads the working directory
    for line in lines:
        command, _, comment = line.partition("#")
        if comment:  # the job file, as exact JSON
            (tmp_path / "job.json").write_text(comment)
        for argv in (shlex.split(command)[1:], shlex.split(command)[1:] + ["--format", "text"]):
            code = main(argv)
            out = capsys.readouterr().out
            assert code == 0, (argv, out)
            if "--format" not in argv:
                json.loads(out)
