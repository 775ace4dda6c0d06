"""scipy.special, imported on first call: its ~0.2 s import is paid only by phase-space work."""


def eval_genlaguerre(n, alpha, x):
    from scipy.special import eval_genlaguerre
    return eval_genlaguerre(n, alpha, x)


def gammaln(x):
    from scipy.special import gammaln
    return gammaln(x)


def roots_laguerre(n):
    from scipy.special import roots_laguerre
    return roots_laguerre(n)
