"""A package value as the mpf it is, for tests that compute with it in mpmath."""

from mpmath import mp


def exact(x):
    """x, a stieltjes.Binary or an mpf, as an mpf with no rounding: mpf(x)
    would round it to mpmath's working precision, 53 bits outside
    mp.workdps, and Binary arithmetic outside stieltjes.workdps raises."""
    return mp.make_mpf(x._mpf_)
