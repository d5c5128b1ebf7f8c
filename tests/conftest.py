from __future__ import annotations

import pytest
from hypothesis import HealthCheck, settings

from biaslens import FeatureScheme

settings.register_profile(
    "repo",
    derandomize=True,
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
# The renderer byte properties run under this profile too, in CI, by
# ``--hypothesis-profile repo-thorough``.
settings.register_profile("repo-thorough", settings.get_profile("repo"), max_examples=1000)
settings.load_profile("repo")


@pytest.fixture
def gender() -> FeatureScheme:
    return FeatureScheme("gender", ("female", "male"))
