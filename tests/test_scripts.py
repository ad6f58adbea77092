import hashlib
import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "name, argv, digest",
    [
        (
            "order_census",
            ["--alpha-max", "99", "--show-unknown"],
            "907851d681621fc62b2ecd94e07eb34818dc827b810d7c61d2421ecba29517e8",
        ),
        (
            "genus_growth",
            ["--k-max", "12"],
            "b111ea5c659ae1bd04930d2203bc90b36cfd0b5256a9ad079402a58c82c01fa9",
        ),
        (
            "genus_growth",
            ["--k-max", "8", "--csv"],
            "793d4e0405c766070abe12ed99cb51680c00626aaf27b1103f97c8b97cb1370f",
        ),
        (
            "plumbing_census",
            [],
            "3bc51227497a6eb87ae68deb2a7219a56fbeb1a166a3fe85255c9abce622f463",
        ),
    ],
)
def test_output_pinned(capsys, name, argv, digest):
    assert load(name).main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
