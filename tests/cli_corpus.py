"""The CLI byte-identity corpus: argv lists and what each one gives.

``data/cli_corpus.json`` maps an id to an argv and to what running it
gives: the exit code, the stderr text and the sha256 of every output
file.  ``{data}`` in an argv stands for the ``data`` directory.  An id
starts with the family its argv runs on.

    PYTHONPATH=src python tests/cli_corpus.py

re-records every entry from the code under ``src``; the argv lists are
read from the manifest, so a new entry is an id and an argv there.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import tempfile
import warnings
from pathlib import Path
from unittest import mock

from levyburgers.cli import main

DATA = Path(__file__).parent / "data"
MANIFEST = DATA / "cli_corpus.json"


def load() -> dict[str, dict]:
    return json.loads(MANIFEST.read_text())


def run(argv: list[str], out_dir: Path) -> dict:
    """Run argv in process with its outputs in out_dir, a new directory.

    The result has the manifest's fields.  A warning or an exception that
    escapes main is written to stderr as its type and message, the latter
    with exit code 1, as the interpreter would end.  An argv that argparse
    rejects keeps the exit code and the usage text argparse gives, the
    usage wrapped at 80 columns whatever the terminal.
    """
    args = [a.replace("{data}", str(DATA)) for a in argv] + ["--out-dir", str(out_dir)]
    err = io.StringIO()
    with (
        contextlib.redirect_stderr(err),
        warnings.catch_warnings(record=True) as caught,
        mock.patch.dict(os.environ, {"COLUMNS": "80"}),
    ):
        warnings.simplefilter("always")
        try:
            code = main(args)
        except SystemExit as exc:  # argparse printed its usage and error
            code = exc.code
        except Exception as exc:  # recorded, so that the manifest shows it
            code = 1
            print(f"{type(exc).__name__}: {exc}", file=err)
    warned = "".join(f"{w.category.__name__}: {w.message}\n" for w in caught)
    files = sorted(out_dir.iterdir()) if out_dir.is_dir() else []
    return {
        "argv": argv,
        "exit": code,
        "stderr": warned + err.getvalue(),
        "files": {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in files},
    }


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        manifest = {
            key: run(entry["argv"], Path(tmp) / key) for key, entry in load().items()
        }
    MANIFEST.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
