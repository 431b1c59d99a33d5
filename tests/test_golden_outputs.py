"""Byte-for-byte CLI outputs.

Every README example (``section`` cut to 500 iterations) and one small
request of each benchmark workload is run in each of its formats, and the
sha256 of the output file must equal the recorded one.  A refactor that
means to leave the numbers alone must leave these bytes alone; a change that
means to move them records the new hashes and says why.
"""

import hashlib

import pytest

from annular_billiards.cli import main

#: name -> argv without ``--format`` and ``--out``
REQUESTS = {
    "stability_readme": ["stability", "--n", "5", "--k", "1", "--delta", "0.05", "--R", "0.1:0.19:50"],
    "region_readme": ["region", "--n", "5"],
    "birkhoff_readme": ["birkhoff", "--n", "3", "--eps", "0.001,0.0005,0.00025"],
    "orbit_star_readme": ["orbit", "--n", "5", "--k", "2"],
    "orbit_tangent_readme": ["orbit", "--n", "3", "--eps", "0.01"],
    "section_readme": ["section", "--n", "3", "--eps", "0.02", "--iterations", "500", "--seed", "1"],
    "lemma_readme": ["lemma"],
    "stability_scan": [
        "stability", "--n", "5", "--k", "1",
        "--delta", "0.0,0.005344822002722743,0.012509577524133807,0.0476477481348784",
        "--R", "0.012712418864934023:0.17765670238116996:5",
    ],
    "twist_scan": [
        "birkhoff", "--n", "3,4,5,6,7,8,9,11,13,14,15,16,17,18,19,20",
        "--eps", "7.745882905880555e-06,5.7551688812310075e-06,4.27607404526398e-06,"
        "3.177110805594501e-06,2.3605842565343596e-06,1.7539073621183236e-06,"
        "1.303148161891539e-06,9.682353632350694e-07",
    ],
    "island_section": [
        "section", "--n", "3", "--eps", "0.04640475874058755", "--radius", "4.7398422386857325e-05",
        "--seeds", "8", "--iterations", "41", "--seed", "1321642623",
    ],
}

#: the README renders these two as svg
SVG = ("region_readme", "orbit_star_readme")

#: sha256 of each output
GOLDEN = {
    "birkhoff_readme.csv": "2bca8fe479b8c2f40cd96a993015c54a2bcdabdbbb141410c078ece7880c7bf6",
    "birkhoff_readme.json": "7d09be99025420d00f6bb32f7301a09ae6a073638e2cd64e80d6316e425994df",
    "island_section.csv": "bf2500b0edb395a5454a4beb169e1d7e7cec224f74b7f544ba9bfb206018f5e0",
    "island_section.json": "8b954081cfc4ebb3af9141e5b07a815dced891bcb024c3d2b15e6d34bdb14c3b",
    "lemma_readme.csv": "99ca5fe43d7dd746cc7fa81fe0a982e6ec6bd947b3a1bfc9d122d25f026f7bc8",
    "lemma_readme.json": "2dbc900a5f58446be9d8dd7640c0d1aae4c50cafac0a84247904b2924382f110",
    "orbit_star_readme.csv": "e12853f80468ce41823d88b17da1c7371764bed196ba3a0b0a29f5eebe249347",
    "orbit_star_readme.json": "cbc6e2c7a9013ae52a71b3f879fba15465cc77eec821a5619f304dcc701893f0",
    "orbit_star_readme.svg": "a34c96a3b3bef7c02ef2e0e5b3deee7697273bd358d3501e1876d0bd45d17da6",
    "orbit_tangent_readme.csv": "b877c3706eca07f78c43e56204ada63c903b6386e530b80a334b830dc84d658d",
    "orbit_tangent_readme.json": "59f5769d1f4a89685406dc35f9e443d633e6a123521bf7b7833cc9b8fb4e2d2e",
    "region_readme.csv": "52604b95a66b24ba8462dc08a5e2ff752c56efe9e98f718c3454d4eb10426487",
    "region_readme.json": "38e7d661eac66d98f0bd45a203c62744391c968f75faef89a68cf731e1766a76",
    "region_readme.svg": "396c9bee7fc299a5b32cee8eedabd824027ef6cfcfbc35de5f81d79725123bc5",
    "section_readme.csv": "91373beb7716df37ea6b1bc4bf4b329bc199e7b72c565e003ce9878cdda72d3c",
    "section_readme.json": "78d97e1c6793e8d962364e62af38ea2bd7d9eb4c296d3fdcd05313d674188394",
    "stability_readme.csv": "960190627f66413a52c60a5b265389ed72654887e7cdb84ccffd125f686eb39d",
    "stability_readme.json": "a8ff7bc49bf5569ff2d9debd9e64e23201172c3b91e4d1da3c72acb5d06dcac8",
    "stability_scan.csv": "c09f65d41eda10740c4d73181d02b9830086cc3bda4f4ff45651fa34fc81fea2",
    "stability_scan.json": "1b3f79aeb710bdb1446efb595d3b4bed4696a16cc7da2b125f57d262f2858c9c",
    "twist_scan.csv": "401e1b437f96c3ef54a6ed1998013b60ac8b5ae4b3dd06ed3fc7072742b12cf2",
    "twist_scan.json": "d41d01ad53d3dda78da297fa1fd2a3e49f36b076387d49cb898d81897b2d0d77",
}


def _outputs():
    for name in REQUESTS:
        for fmt in ("csv", "json") + (("svg",) if name in SVG else ()):
            yield f"{name}.{fmt}"


def test_every_output_has_a_recorded_hash():
    assert sorted(_outputs()) == sorted(GOLDEN)


@pytest.mark.parametrize("output", sorted(_outputs()))
def test_output_bytes_unchanged(tmp_path, output):
    name, fmt = output.rsplit(".", 1)
    path = tmp_path / output
    assert main(REQUESTS[name] + ["--format", fmt, "--out", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN[output]
