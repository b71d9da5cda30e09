"""The work of a check call, counted from outside the library: the integer
multiply-adds of an algebra check, and the tuples a module check hands to
its column walker.

A check call scales the rows it reads into ``int`` (``_kernel.scaled_rows``).
``multiply_adds`` has it scale them into ``Counted`` instead: an ``int``
whose sums and products are ``Counted`` again and whose every addition is
counted.  Every term of a join is a product of scaled entries and is added
once into the vector it changes, so the additions are the join's
multiply-adds.  ``walker_visits`` wraps ``reps._witness_first_column``, the
one loop over module columns, and records the index tuple of every call.
The library holds no counter.
"""

from supermalcev import algebras, reps


def multiply_adds(monkeypatch, check, *args):
    """``check(*args)`` and the number of multiply-adds it made."""
    count = 0

    class Counted(int):
        def __add__(self, other):
            nonlocal count
            count += 1
            return Counted(int.__add__(self, other))

        def __mul__(self, other):
            return Counted(int.__mul__(self, other))

        __radd__, __rmul__ = __add__, __mul__

    scaled_rows = algebras.scaled_rows

    def counted_rows(rows, D):
        return {key: {k: Counted(c) for k, c in row.items()}
                for key, row in scaled_rows(rows, D).items()}
    with monkeypatch.context() as patch:
        patch.setattr(algebras, "scaled_rows", counted_rows)
        report = check(*args)
    return report, count


def walker_visits(monkeypatch, check, *args):
    """``check(*args)`` and the index tuples it handed to the module walker,
    one per call, in order."""
    visits = []
    walk = reps._witness_first_column

    def counted(col, indices, *rest):
        visits.append(indices)
        return walk(col, indices, *rest)
    with monkeypatch.context() as patch:
        patch.setattr(reps, "_witness_first_column", counted)
        report = check(*args)
    return report, visits
