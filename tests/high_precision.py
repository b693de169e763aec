"""50-digit reference responses, shared by the response and pipeline tests."""

import mpmath


def high_precision_responses(gen, t):
    """s and u of one pair at time t from 50-digit exponentials of its blocks."""
    with mpmath.workdps(50):
        s, u = (
            mpmath.expm(mpmath.matrix(gen[sl, sl].tolist()) * mpmath.mpf(t))[0, 0]
            for sl in (slice(1, 5), slice(5, 7))
        )
        return float(mpmath.re(s)), complex(u)
