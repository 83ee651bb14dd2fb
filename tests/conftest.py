import pytest
from hypothesis import settings

from goodgradings.superalgebra import build_gl, build_osp

settings.register_profile("ci", derandomize=True, max_examples=50,
                          deadline=None)
settings.load_profile("ci")

# gl(1|1), gl(2|1), osp(1|2) and osp(3|2): builds that every module shares
WATCHED_BUILDS = [(build_gl, 1, 1), (build_gl, 2, 1),
                  (build_osp, 1, 1), (build_osp, 3, 1)]


@pytest.fixture(autouse=True, scope="module")
def cached_builds_are_unchanged():
    """After each test module, every table of the watched cached builds
    still equals a run of the builder body that skips the cache: a test
    that changes a build every later test shares fails here."""
    yield
    changed = []
    for build, m, n in WATCHED_BUILDS:
        cached, fresh = build(m, n), build.__wrapped__(m, n)
        changed += ["%s(%d, %d).%s" % (build.__name__, m, n, name)
                    for name, value in vars(fresh).items()
                    if getattr(cached, name, None) != value]
    if changed:
        pytest.fail("cached builds changed: %s" % ", ".join(changed))
