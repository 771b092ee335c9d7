"""One comparison for query answers: the same rows, in any order, bit for bit.

Every engine, the shard merge and the reference evaluator aggregate to the
correctly rounded exact value, so two paths to one answer agree exactly;
only the order their rows arrive in may differ."""


def sorted_rows(rows):
    """``rows`` as a sorted list of tuples; compare two answers with ``==``."""
    return sorted(map(tuple, rows))
