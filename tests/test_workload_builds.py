"""Lazily derived workload data is invisible to every reader.

A workload build derives mesh normals and texture texels on first read
(see :class:`repro.geometry.mesh.Mesh` and
:class:`repro.gpu.texture.TextureResource`).  For every workload in both
profiles, two builds are forced in opposite orders — one after a pickle
round trip of its meshes and textures — and must hash byte for byte the
same.
"""

from __future__ import annotations

import hashlib
import pickle

import numpy as np
import pytest

from repro.workloads import GameWorkload, all_workloads

CASES = [
    pytest.param(spec, sim, id=f"{spec.name}-{'sim' if sim else 'full'}")
    for spec in all_workloads()
    for sim in (False, True)
]


def _update(digest, array) -> None:
    if array is None:
        digest.update(b"none")
        return
    array = np.ascontiguousarray(array)
    digest.update(f"{array.dtype.str}{array.shape}".encode())
    digest.update(array.tobytes())


def mesh_digests(meshes) -> dict[str, str]:
    digests = {}
    for key, mesh in meshes.items():
        digest = hashlib.sha256(
            f"{mesh.name}|{mesh.primitive}|{mesh.index_size_bytes}".encode()
        )
        for array in (
            mesh.positions, mesh.indices, mesh.normals, mesh.uvs, mesh.colors
        ):
            _update(digest, array)
        digests[key] = digest.hexdigest()
    return digests


def texture_digests(textures) -> dict[str, str]:
    digests = {}
    for texture in textures:
        digest = hashlib.sha256(
            f"{texture.format}|{texture.width}|{texture.height}|"
            f"{texture.levels}|{texture.compressed_bytes}|"
            f"{texture.mip_block_offsets()}".encode()
        )
        for mip in texture.mips:
            _update(digest, mip)
        digests[texture.name] = digest.hexdigest()
    return digests


@pytest.mark.parametrize("spec, sim", CASES)
def test_forced_builds_hash_the_same(spec, sim):
    first = GameWorkload(spec, sim=sim)
    for mesh in first.meshes.values():
        mesh.normals
    for texture in first.textures:
        texture.mips

    second = GameWorkload(spec, sim=sim)
    meshes, textures = pickle.loads(
        pickle.dumps((second.meshes, second.textures))
    )
    for texture in reversed(textures):
        texture.mips
    for mesh in reversed(list(meshes.values())):
        mesh.normals

    assert list(meshes) == list(first.meshes)
    assert mesh_digests(meshes) == mesh_digests(first.meshes)
    assert texture_digests(textures) == texture_digests(first.textures)
