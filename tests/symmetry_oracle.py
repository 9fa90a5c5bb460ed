"""The symmetry test as it was before it read the quotient's darts: an oracle.

``is_symmetry_by_class_keys`` maps every face class, moved by each coset
vector of Lambda modulo the part S of Lambda that the linear part L maps
into Lambda, and asks whether the image's canonical class key is a class
of the structure.  Each class is represented by its primitive face, so the
image is keyed with its own closure multiple modulo Lambda, which L can
change.  The library decides the same question on the quotient modulo
Lambda, by matching each moved class's image against the quotient's face
classes.
"""

from skelforge.errors import PatchTooSmallError
from skelforge.geometry import (
    ZERO3, Isometry, Lattice, lattice_intersection, order_or_translation,
)
from skelforge.quotient import _coset_vectors, _face_class


def is_symmetry_by_class_keys(patch, iso):
    lattice, _, _, classes, _ = patch.classes
    if not classes:
        raise PatchTooSmallError("the patch holds no face to decide on")
    shifts = [ZERO3]
    if not all(lattice.member(iso.apply_vec(b)) for b in lattice.basis):
        power = order_or_translation(Isometry(iso.m, check=False), 6)
        if power.kind != "order" or power.n == 5:
            return False
        back = iso.inverse()
        common = lattice_intersection(
            [lattice, Lattice([back.apply_vec(b) for b in lattice.basis])]
        )
        if common is None:
            return False
        shifts = _coset_vectors(lattice, common)
    # each class as its primitive face: a class walk's closure can be a
    # multiple of the image's closure modulo Lambda
    reps = [f.primitive() for f in classes.values()]
    return all(
        _face_class(lattice, rep.translate(t).transform(iso))[0] in classes
        for t in shifts
        for rep in reps
    )
