"""The work of a check call, counted from outside the library: the integer
multiply-adds of an algebra or module check, and the tuples a module check
hands to its column walker.

An algebra check packs each row it joins into one ``int``
(``_kernel.packed``), and a module check each action column it sums
(``_kernel.pack``, as ``reps`` imports it).  ``multiply_adds`` has them
pack into ``Counted`` instead: an ``int`` whose sums and products are
``Counted`` again and whose every product is counted.  Each term of a join
multiplies a packed row once and adds it to a sum, each step of a fold
does the same, and each value handed on to a later block of the Malcev
walk is multiplied by its sign once, so the products are the join's
multiply-adds.  Each term of a module walker's residual column multiplies
a packed column once, as does each entry summed into a packed column of
the representation checker's pair tables, so the products are the module
check's multiply-adds.  ``walker_visits`` wraps
``reps._witness_first_column``, the one loop over module columns, and
records the index tuple of every call.  The library holds no counter.
"""

from supermalcev import algebras, reps


def multiply_adds(monkeypatch, check, *args):
    """``check(*args)`` and the number of multiply-adds it made."""
    count = 0

    class Counted(int):
        def __add__(self, other):
            return Counted(int.__add__(self, other))

        def __mul__(self, other):
            nonlocal count
            count += 1
            return Counted(int.__mul__(self, other))

        __radd__, __rmul__ = __add__, __mul__

    packed, pack = algebras.packed, reps.pack

    def counted_rows(rows, width):
        return {key: Counted(row) for key, row in packed(rows, width).items()}

    def counted_column(column, width):
        return Counted(pack(column, width))
    with monkeypatch.context() as patch:
        patch.setattr(algebras, "packed", counted_rows)
        patch.setattr(reps, "pack", counted_column)
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
