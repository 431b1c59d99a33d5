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
    # writer paths that the requests above do not take: a refused row whose
    # skip_reason holds commas, refused points among pushed ones, and a
    # table with no rows (every seed escapes in its first iteration)
    "stability_refused": ["stability", "--n", "5", "--k", "2", "--R", "0.5,0.01"],
    "birkhoff_refused": ["birkhoff", "--n", "2,3", "--eps", "0.001,2.9"],
    "section_all_escaped": ["section", "--n", "3", "--eps", "0.02", "--radius", "2.0", "--seeds", "3", "--seed", "5"],
}

#: the README renders these two as svg
SVG = ("region_readme", "orbit_star_readme")

#: sha256 of each output
GOLDEN = {
    "birkhoff_readme.csv": "bcda506151efdef983feec61fd3467d43fba53e8a14979a1592919e20089b22b",
    "birkhoff_readme.json": "4fe6034775afa1e51411bdbad93f21ec56f111437e246fcc7c286af0ac458942",
    "island_section.csv": "f90047d099e7e925d47081019cc30930de847475d836afe027740e9815899143",
    "island_section.json": "bbef8ee98407963abfbec342fba178b729c7cda2c550b03e3dbe092bc4296aed",
    "lemma_readme.csv": "80c43d932210cee531adbc2c1d64dee514218dd211ea18ffd627fcbc5cea879c",
    "lemma_readme.json": "a43608ba7f2c877e7e3e016efb75e26bcbc1731ff500c857ea5b2d0ac8392b5a",
    "orbit_star_readme.csv": "a3fc3f0a74f4848445518490e38b619d582b8c208db483de6dbd3667c88f4e5b",
    "orbit_star_readme.json": "a33e60faa67542067b2f04d9ec3c0425ddd325ada9d74e8b9aee897e15ac9f25",
    "orbit_star_readme.svg": "a34c96a3b3bef7c02ef2e0e5b3deee7697273bd358d3501e1876d0bd45d17da6",
    "orbit_tangent_readme.csv": "2d9ad59fee8fcdc1c243107bbfbd18c8059deb9399137726ba015b5379468a65",
    "orbit_tangent_readme.json": "b7570a7b6f5bdf6fc33c78482426752a5551a98264b3ca1d9b15281ec0fe15b1",
    "region_readme.csv": "6deaccf688b32165b250b6aa16ae0ba3e5b458aa98cbdd9bd061a4b847558ea1",
    "region_readme.json": "c4628b3ee5a74ab0be3206ea3e860cb9dd77d320ec2c2608410dc33495a15cd6",
    "region_readme.svg": "22fa4924da8eec4072dcb835c576820f906356c4c26679bbe0342f789a9e4201",
    "section_readme.csv": "7122f63c4156ee94f6972f81480d15ac15fe38dfe460b35f9fc88e4e7de0bdfc",
    "section_readme.json": "be3f018b69f1f17971ba3264555e18f77f59b1c9262f0dbd4ff25e3dae4b7df2",
    "stability_readme.csv": "f18b5b9c4ae38a9b5aa643f35bbcc70677bd204fb832e808947b867fb6cdaac1",
    "stability_readme.json": "bf906756ba833fa7bfbb6ddd422f0d9ffb9ea2af8ae328f841321651ef0bb925",
    "stability_scan.csv": "84230ba2093201f36daa67aceb809f27fe408c109933f99bc7b219861874b0c8",
    "stability_scan.json": "59c0a2ff8d174d03d5c71a29c4f1bcc08bea3fde8342e9c88010bdb00eefaab5",
    "twist_scan.csv": "15b67ecf2bb476aa1cf8346a8c8dd764d72fa4f92caeb85f74fe3ca4a0b2913f",
    "twist_scan.json": "c1cbe3e7bb9070f2bca8ec2bf7aa12973ce604cad3ad6e7abe5cf56f32d4ea62",
    "stability_refused.csv": "fb1409df7e87380e5342ab597742ce51387b58a0d0327443e0ed1c8ff126bc74",
    "stability_refused.json": "c0ddd6bcc08298244dcbd4e144a087f53088b8ff32b0f0dcd9cfbb8dc94383ff",
    "birkhoff_refused.csv": "26070405a6ab95a436a9a8cf20a88f62b726d2e90c5ddfd4454b439eb0931c46",
    "birkhoff_refused.json": "e0a82bfb59beb519dd16b1a7170cbb600033e20f857309eea3682b1e601ec6c7",
    "section_all_escaped.csv": "826903c507b661d9fcae6cbd5990c0ee3761ee06bebfa1bc149d9fe264165d8c",
    "section_all_escaped.json": "1f9248fd82cc2805ddef398ec328c0bede9ba338e135de4398ea7ebc6766559d",
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
