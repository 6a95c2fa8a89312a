import pytest

from paths import reference, require_compiled


@pytest.fixture(params=["compiled", "reference"])
def path(request):
    """Run the test on the compiled loops, skipped when no library loads,
    and on their references (`paths.reference`)."""
    if request.param == "compiled":
        require_compiled()
        yield
    else:
        with reference():
            yield
