"""The one cap check: a count is compared from integers, and a power
base^exp is decided by its exponent first, without being computed."""

import pytest

from affineclasses.cap import CapExceeded, check


@pytest.mark.parametrize("cap,base,exp,over", [
    # 2^20 has bit length 21: an exponent below it is computed
    (2 ** 20, 2, 20, False),       # exactly the cap
    (2 ** 20, 3, 13, True),
    (2 ** 20, 2, 21, True),        # the bit length: over without the power
    (2 ** 20 - 1, 2, 20, True),    # bit length 20
    (10, 1, 10 ** 18, False),      # bases 0 and 1 never exceed a cap
    (10, 0, 10 ** 18, False),
    (10, 11, 1, True),
])
def test_boundary(cap, base, exp, over):
    if over:
        with pytest.raises(CapExceeded):
            check(cap, "%s exceeds", base, exp)
    else:
        check(cap, "%s exceeds", base, exp)


@pytest.mark.parametrize("base,exp,shown", [
    (3, 200_000, "3^200000"),
    (11, 3, "1331"),
    # str() would refuse the 5001 digits of 10^5000 + 1
    (10 ** 5000 + 1, 1, "(at least 2^16609)"),
    (3, 10 ** 5000, "3^(at least 2^16609)"),
], ids=["power", "computed", "huge", "huge-exponent"])
def test_message(base, exp, shown):
    with pytest.raises(CapExceeded) as raised:
        check(1000, "table of %s entries exceeds", base, exp)
    assert str(raised.value) == "table of %s entries exceeds cap 1000" % shown
