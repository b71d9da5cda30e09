"""The integer multiply-adds of a check call, counted from outside the library.

A check call scales the rows it reads into ``int`` (``_kernel.scaled_rows``).
``multiply_adds`` has it scale them into ``Counted`` instead: an ``int``
whose sums and products are ``Counted`` again and whose every addition is
counted.  Every term of a join is a product of scaled entries and is added
once into the vector it changes, so the additions are the join's
multiply-adds.  The library holds no counter.
"""

from supermalcev import algebras


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
