"""Golden digests of the localization inputs and outputs.

The digests pin, across commits and byte for byte, every ``robot_world``
trace and the per-step poses of both ``localize`` modes, in canonical
JSON: sorted keys, no whitespace, and every float as the hex of its
exact float64 bytes.
"""

import pytest

from repro.core import InputSize
from repro.core.inputs import robot_world
from repro.localization import N_STEPS, localize

from .golden import array_doc, canonical, digest, hex64, hexes

#: sha256 of :func:`world_vector` per (size, variant).
GOLDEN_WORLD_SHA256 = {
    ("SQCIF", 0):
        "21d20bef2d9569fd6cbfb7892bc176d46099b515c73bef82f930e377c9b0e4cf",
    ("SQCIF", 1):
        "78714f1ea3ed313ff67ce39ab68f1132513221b67062d419cb0a3daca213387e",
    ("SQCIF", 2):
        "40b00f0373e190637188f26f7b510aad77f8a17cee60a44153822db68f07202f",
    ("SQCIF", 3):
        "23797437f2c4fc968d0047418a98bcc1a51747a94a44c16d97ae51c180de26a3",
    ("SQCIF", 4):
        "8f103102af7c2904cca5d2ad710b05da12e734ec90280f42df534483492eab82",
    ("QCIF", 0):
        "004843239c1779149b089d4182bc737a4d524d81c6bd48ab1b3bc0fa2d00d8fe",
    ("QCIF", 1):
        "33b3a3d133c64a69571e890c25376a968b6bd648b18175d72c5cb05251b0aa6c",
    ("QCIF", 2):
        "be8e6b9bfaf5bd487a45325d8903a0d9f630dae48b67a595920761bdea8a2aee",
    ("QCIF", 3):
        "4ca04d3adadadc87b75e27625a9ed39402a54ad6e22431ace937344d8845fcfe",
    ("QCIF", 4):
        "942e8642e57594116bc519dcc5ce631643d606aebf8a27bffbb4cc7347a2cff6",
    ("CIF", 0):
        "24e2d8d63f44408b1573bfc1880d4ceed542311f36600ed5e236cad77f2c535e",
    ("CIF", 1):
        "72f16db6dc6e82292b4ff0fd4221e99788196aa5ccd4c8ea21cd1ff190c0991d",
    ("CIF", 2):
        "9155242a63e55855096993a69b9d6214e1817fea87bc78fb9b278c86b6449adc",
    ("CIF", 3):
        "de90b6244f187567efd9481144974592b54b4660a9253abb47f823a5cdd69bf4",
    ("CIF", 4):
        "afdc1bd6da01e1d65e6119b11b044a0909128f0832d9e1d7d5befd7ebbfa7648",
    ("VGA", 0):
        "191c384885845823169f01fa622b13e468fb6a0db1d38d071dd3afcb1127f03c",
    ("VGA", 1):
        "3d1e7953abb7f2bc763645784ec13392d1d8242dd8ad84b59fb07b87a31f7e0c",
    ("VGA", 2):
        "4e0552ef97acce6f6aae4183bc6f1f7652b6b46df51878e8a98ba2b9bc8a4635",
    ("VGA", 3):
        "fc41279d4ddd6829c39e6721c0f93cc5b5470e22293e2bcff5018864a83b4da1",
    ("VGA", 4):
        "7251106e946c4606a28530798ef960c8fc6ef69d141b8a3f5294cb7db6028740",
}

#: sha256 of :func:`poses_vector` per (size, variant, mode).
GOLDEN_POSES_SHA256 = {
    ("SQCIF", 0, "global"):
        "d305f9f9a79309721dc162c8cf3e019c3b4a2be652db81b76c68b3946901463f",
    ("SQCIF", 0, "tracking"):
        "e82ae76f68dcd6cde3ac39391ebd704840af76f815141dcc8d57baf5a0eb76f4",
    ("SQCIF", 1, "global"):
        "02280353b2fc4d32c6df9be6cf1818c438aa11395dd3d872e878d93394a895e6",
    ("SQCIF", 1, "tracking"):
        "7bad61a2affcf2c7cbc93292cb06dbc607b91e3c88cb3a4b8ab35ac546ea9fae",
    ("SQCIF", 2, "global"):
        "351b4a7b48eee36c642d4b0ab224efd9a4da4e044e0d298b8ec7b7febb5174c4",
    ("SQCIF", 2, "tracking"):
        "208f1df245fa0b2c54ef2dbb46bd22fdc9c1ff79b189f1a59fd6cb57f961c506",
    ("SQCIF", 3, "global"):
        "118bf0666ab8337ea8dd773b3de29040db092c430926aff644581c88c11dee1b",
    ("SQCIF", 3, "tracking"):
        "b11aad45916b14dcc697ff7bedcea732c485d223267c45089f718f719ce073b9",
    ("SQCIF", 4, "global"):
        "51e9183c371457b53e41542fddc6f079f539fd867d02da513e37ebd4d88d1cb5",
    ("SQCIF", 4, "tracking"):
        "8159937acefb2a70df7e60b3371f67a5fb24c02cb3c53d77f55fba2e3f222e22",
    ("CIF", 0, "global"):
        "159139da68b9b5f100464019d3b5707ebe9cad94d46b38022b0c0f8013840446",
    ("CIF", 0, "tracking"):
        "c83a068682684eb594b8e92fab9bfb8fa5131d32555a1e344e35f2f513e53ff6",
    ("CIF", 1, "global"):
        "6ba5713c94607d4ea28039a7850b6f10d9f324109a87c5016a193bb1bb098c87",
    ("CIF", 1, "tracking"):
        "3b58d0dcef30699d31fff3a5f6a289f74594f0f86fdbb4212bf3562d02bb1925",
    ("CIF", 2, "global"):
        "578ae1fad3f9255293aa6032a4ca52058476b3c0f4d2a3b8a8947478d0870d91",
    ("CIF", 2, "tracking"):
        "67068bc61668aa5594d88cebbff0ab3c58abc5643fd2584a30dd437eb9b2f630",
    ("CIF", 3, "global"):
        "a0886123fff4b07c4e20e3804df4615dbf2575e4f7ebdf1f5f8a361b5c3e3e14",
    ("CIF", 3, "tracking"):
        "fd2da535fe8ead2a0c101ee8ea7d26bfd693389aa9d2114367d8052e38b560b6",
    ("CIF", 4, "global"):
        "3909557f62a7df7a06073b26245ccf09450caff7affa11178b5eb46c91656fbb",
    ("CIF", 4, "tracking"):
        "55266f3f6fd482147c4958c8b3da3460f0e1a26a94a72ba1280a8cca1bd81209",
}


def world_vector(world) -> str:
    """Canonical JSON of a world: grid, poses, controls and readings."""
    return canonical({
        "controls": [hexes(c) for c in world.controls],
        "grid": array_doc(world.grid),
        "max_range": hex64(world.max_range),
        "measurements": [hexes(m) for m in world.measurements],
        "n_beams": world.n_beams,
        "resolution": hex64(world.resolution),
        "start_pose": hexes(world.start_pose),
        "true_poses": [hexes(p) for p in world.true_poses],
    })


def poses_vector(poses) -> str:
    """Canonical JSON of the per-step posterior mean poses."""
    return canonical({"poses": [hexes(p) for p in poses]})


def _world(size_name: str, variant: int):
    return robot_world(InputSize[size_name], variant, n_steps=N_STEPS)


@pytest.mark.parametrize("size_name,variant", sorted(GOLDEN_WORLD_SHA256))
def test_world_digest(size_name, variant):
    world = _world(size_name, variant)
    assert digest(world_vector(world)) == \
        GOLDEN_WORLD_SHA256[(size_name, variant)]


@pytest.mark.parametrize("size_name,variant",
                         sorted({k[:2] for k in GOLDEN_POSES_SHA256}))
def test_localize_digests(size_name, variant):
    world = _world(size_name, variant)
    for mode in ("global", "tracking"):
        poses = localize(world, seed=variant, mode=mode)
        assert digest(poses_vector(poses)) == \
            GOLDEN_POSES_SHA256[(size_name, variant, mode)], mode
