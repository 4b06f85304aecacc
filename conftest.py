"""Settings shared by every test directory."""

from hypothesis import settings

# Property tests draw the same examples on every run, so a failure
# reproduces from the suite alone and a tier-1 result does not depend on
# the draw.
settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")
