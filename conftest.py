"""Repository-root pytest configuration.

Command-line options must be registered from an *initial* conftest —
pytest only honours :func:`pytest_addoption` in rootdir-level files —
so the golden-fixture refresh flag lives here rather than under
``tests/``.
"""


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help=(
            "Regenerate committed golden fixtures (tests/perfmodel/golden/) "
            "from the scalar test oracle instead of asserting against "
            "them."
        ),
    )
