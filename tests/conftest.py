import pytest

from coxdesc.coxeter import CoxeterSpec, ParabolicAtlas, build_group
from coxdesc.descent import StructureConstants

_groups = {}
_atlases = {}
_constants = {}


@pytest.fixture(scope="session")
def group_factory():
    """Build each named group at most once per session."""

    def get(name):
        if name not in _groups:
            _groups[name] = build_group(CoxeterSpec.from_name(name))
        return _groups[name]

    return get


@pytest.fixture(scope="session")
def atlas_factory(group_factory):
    def get(name):
        if name not in _atlases:
            _atlases[name] = ParabolicAtlas(group_factory(name))
        return _atlases[name]

    return get


@pytest.fixture(scope="session")
def constants_factory(group_factory):
    def get(name):
        if name not in _constants:
            _constants[name] = StructureConstants(group_factory(name))
        return _constants[name]

    return get


def double_coset_reps(group, j_mask, k_mask):
    """Reference scan of the distinguished cross-section ^J W^K: every w
    with no left descent in J and no right descent in K, by element index."""
    return [w for w in range(group.order)
            if not group.des_l[w] & j_mask and not group.des_r[w] & k_mask]
