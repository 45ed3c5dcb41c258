import contextlib
import os
import warnings

from hypothesis import settings

pytest_plugins = ["pytester"]

# A failing @given test makes hypothesis import libcst, to write the failing
# example as a patch. That import raises a DeprecationWarning (from
# mypy_extensions), which filterwarnings = ["error"] turns into an
# INTERNALERROR that ends the session; imported here once, with its warnings
# ignored, it leaves a failure reported as a failure. Without libcst,
# hypothesis writes no patch and the import is not needed.
with warnings.catch_warnings(), contextlib.suppress(ImportError):
    warnings.simplefilter("ignore")
    import hypothesis.extra._patching  # noqa: F401

# HYPOTHESIS_PROFILE=ci runs 5x the examples; property tests that scale with
# it take their counts from settings.default.max_examples.
settings.register_profile("ci", max_examples=5 * settings.default.max_examples)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = getattr(config, "_acceptance_lines", None)
    if lines:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
