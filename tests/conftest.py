import pytest

try:
    from hypothesis import settings

    settings.register_profile("package", deadline=None, max_examples=50)
    settings.load_profile("package")
except ImportError:
    pass


def pytest_addoption(parser):
    parser.addoption(
        "--runslow", action="store_true", default=False,
        help="run the heavy breakdown-threshold tests",
    )


def pytest_collection_modifyitems(config, items):
    if config.getoption("--runslow"):
        return
    skip = pytest.mark.skip(reason="needs --runslow")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)
