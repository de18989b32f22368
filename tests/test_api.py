import hashlib
import subprocess
import sys

import secantinv

# sha256 of "\n".join(secantinv.__all__), recorded when the package listed its
# public names by hand; the per-module lists must add up to the same API.
_ALL_DIGEST = "51e008516f534e5c08fe832cec9b5dc56b062f86660fd4fe03fe624c6c8eb969"
_LAYERS = {"errors", "exactmath", "secant_core", "cohomology", "tangent_geometry"}


def test_all_is_49_distinct_sorted_names():
    names = secantinv.__all__
    assert len(names) == len(set(names)) == 49
    assert names == sorted(names)


def test_every_name_resolves():
    for name in secantinv.__all__:
        assert hasattr(secantinv, name), name


def test_all_digest_is_unchanged():
    digest = hashlib.sha256("\n".join(secantinv.__all__).encode()).hexdigest()
    assert digest == _ALL_DIGEST


def test_star_imports_leak_no_other_public_name():
    # A fresh interpreter: other tests import more submodules into the package.
    script = (
        "import secantinv\n"
        "print(*sorted(n for n in vars(secantinv) if not n.startswith('_')"
        " or n == '__version__'))"
    )
    result = subprocess.run([sys.executable, "-c", script], capture_output=True,
                            text=True, check=True)
    extra = set(result.stdout.split()) - set(secantinv.__all__)
    assert extra == _LAYERS | {"__version__"}
