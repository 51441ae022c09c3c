"""Edge-subset masks for tests that name subsets as sorted edge tuples."""


def mask_of(ctx, subset) -> int:
    """The mask of the class ``ctx`` holding the edges of ``subset``: the
    sum of their bits (``GraphContext.bits``)."""
    return sum(map(ctx.bits.__getitem__, subset))
