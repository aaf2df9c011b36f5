"""Settings shared by every test module."""

from hypothesis import settings

# The suite runs on machines shared with other work, where one slow example
# is not a defect, so no hypothesis test has a deadline.  Each test keeps
# its own max_examples.
settings.register_profile("ssls", deadline=None)
settings.load_profile("ssls")
