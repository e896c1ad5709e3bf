"""Shared fixtures."""

import pytest

# the fields of [solve.verification], in the order `phibvp verify` prints them
VERIFICATION_FIELDS = (
    "boundary_defect", "operator_defect", "integral_defect", "slope_defect",
    "residual_defect", "ok",
)


def _printed_verification(out: str) -> dict:
    """The last six lines of `phibvp verify` output as [solve.verification]
    text: five defects, then the verdict as true or false."""
    values = [line.split(":", 1)[1].split()[0] for line in out.splitlines()[-6:]]
    values[-1] = "true" if values[-1] == "ok" else "false"
    return dict(zip(VERIFICATION_FIELDS, values))


@pytest.fixture(scope="session")
def printed_verification():
    return _printed_verification
