"""Isolation check shared by the hashing, sketch and approx tests."""


def is_isolated(x: int, support: set[int], p: int) -> bool:
    """True iff no other index in `support` shares x's residue mod p."""
    if x not in support:
        raise ValueError(f"index {x} not in the given support")
    r = x % p
    return all(y % p != r for y in support if y != x)
