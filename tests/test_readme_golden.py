"""README command examples: output pinned byte for byte.

Every example in the README's command block runs through ``cli.main`` in
process, once per format, and the SHA-256 of its stdout is compared with a
pinned digest.  The json ``meta.runtime`` line names the interpreter version,
so it is dropped before hashing; every other byte counts.  A change that
alters an example's output on purpose updates its digests here.

Regenerate with ``PYTHONPATH=src python tests/test_readme_golden.py``.
"""

import contextlib
import hashlib
import io
import re
import shlex
from pathlib import Path

import pytest

from genquilt.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
_RUNTIME_LINE = re.compile(r'^ *"runtime": "[^"\n]*",\n', re.MULTILINE)

GOLDEN = {
    "seq quilt --count 21": (
        "714e04feb1ab047df7dad18764d0cfa1b953aa97252b7bab9c3eff545f8c9f4c",
        "e38630b7834edf94bc4bb19f41dfe4a8fea09f15a1709b58fc56c165213bd945",
    ),
    "seq generacci --s 1 --b 2 --count 10": (
        "eab4c6b06947a51b3d45017204042a45fa40941cd0baf43673dd6625970837e1",
        "2cc129e8194e2ba5cf7c8fe0a8a94ed438e417df77f3699cfb04186c6fb7bd0f",
    ),
    "decompose quilt-greedy --m 6": (
        "b494c2bdf1c6597b9d2435450f82d737519b89d3cda4cb1c921cb0129559e954",
        "abc3092c53f3a47aafeaf15f880c111ddb70e5d3b8d06a33fb3be48f1d230375",
    ),
    "decompose quilt-greedy6 --m 27": (
        "10b4cffcfe1df0528a47235d86bd6104db98f678f4f2110876fc312a24411bfe",
        "f7170e72aaa57c77f374802852c41b328b51a93f47874d803b5d62f6df3050c9",
    ),
    "decompose generacci --s 1 --b 2 --m 10": (
        "42292e5621b95d775d5df92a3bd024fc0c1a5cfc49f925b023cf856f54baa024",
        "c3b05fea8b1fd1bc3f04eaf3dcbc7c6e4a50e72e419538a96758321f3f84a155",
    ),
    "count quilt --m 106": (
        "2111321508941339efed892b22451105cf7fb71feb8a35b5cab95481ccaea1e7",
        "b6eee82928a7d509f7c35f4b73a6b6dee573e6ce8f01063ca4808e6b4eecff92",
    ),
    "tables quilt-count --n 13": (
        "85d571c68aff7d9a7fecdb8d9b46764da0ad39ca07f1380e0ef92c9ef5d9379e",
        "e2860329266e1664a799b5486065abda2acb3cef5087214fb860e1673c480fb3",
    ),
    "tables greedy-success --n 17": (
        "f71fbe4ddc1ede19c29dbfa47a87047c89f15c8146b4596e1472608548f68be5",
        "9e2831218c309e069de53b0cde93f0c0966612c27f4b21417bed783d2dc8ce7a",
    ),
    "average quilt --n 25": (
        "7f73569eb1e89619a7609add9b5a949263e6360594eecfa25640a384960d7902",
        "176b3780c254eb0aa8bb8cc3dad7e6e521357977ab9740d9db7099acc975f4cb",
    ),
    "roots quilt --tol 1e-12": (
        "6c9493b8169c7589e31000bb8d09934d5b0711eb0fcd1643de6a3fb9b7aac83c",
        "5bffacf004d5ab6209337f97239e86635e45678a3856e2bcaaafe39365fd0724",
    ),
    "roots generacci --s 2 --b 1": (
        "60910587d22d42b422d3314fadc341edd25b4a43f94f6a1dbe6b1dd869a07c08",
        "ec2a47d8e963e8c1550bdd8cd0fa5b8983a5503297f82081464963ff15b8f4bb",
    ),
    "roots quilt-count": (
        "8eb4344183ee60f64225e7d15edcc53fa1b85dc7bd4b1f0621e1359fd6d00dcf",
        "b7060e29ec4e7baa2d7116b688da150bfa026f4ab1858527feae3d2102cf9eb5",
    ),
    "roots greedy-aux": (
        "0aa87b3ab7906df4a0a6160f667e01b38185fa31d4b65d66215dd33555a5050c",
        "abb3c233f83a85aa221c9b8d4f5a97619cd0cc3c369e2654282f604f70b211d4",
    ),
    "greedy ratio --n 100": (
        "63df4a245d444384446df07b722f5ff5cd326027969f0bd8e3eb230331b1f3be",
        "2320df2cf669582c31133962aed99f689c91d0078dc8eb7544123c90ff37701c",
    ),
    "stats generacci --s 1 --b 2 --n-min 15 --n-max 25": (
        "24430ba3ca83dff604be30635695ca2cf9b26e4a3bb28e37ff2b826b5d2d5721",
        "937bfa29a0b8f101223a70fd117e7f04783839a79f08f78f2936a94cb7354e12",
    ),
    "normalize quilt --indices 7,7": (
        "34c87d1b6852de1c96820d26025114a8bc941827158ca9fa157c8de2ab0e563e",
        "e807a366b9070dd18570e080291d7303a3f077d2528af8eed4d6d6aeb50b00cd",
    ),
}


def readme_commands() -> list[str]:
    """The ``genquilt ...`` lines of the command block, comments stripped."""
    text = README.read_text()
    block = text.split("## Command line", 1)[1].split("```", 2)[1]
    return [
        " ".join(line.split("#", 1)[0].split()[1:])
        for line in block.splitlines()
        if line.startswith("genquilt ")
    ]


def output_digest(command: str, fmt: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(shlex.split(command) + ["--format", fmt])
    assert code == 0, command
    text = out.getvalue()
    if fmt == "json":
        text, dropped = _RUNTIME_LINE.subn("", text)
        assert dropped == 1, command
    return hashlib.sha256(text.encode()).hexdigest()


def test_readme_commands_are_pinned():
    assert set(readme_commands()) == set(GOLDEN)


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_readme_output_is_byte_identical(command):
    json_digest, csv_digest = GOLDEN[command]
    assert output_digest(command, "json") == json_digest
    assert output_digest(command, "csv") == csv_digest


if __name__ == "__main__":
    for cmd in readme_commands():
        print(f"    {cmd!r}: (")
        print(f"        {output_digest(cmd, 'json')!r},")
        print(f"        {output_digest(cmd, 'csv')!r},")
        print("    ),")
