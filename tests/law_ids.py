"""Names of weight laws in test ids: the constructor that builds each law."""


def law_id(law) -> str:
    """The law's kind, or ``two_point`` and ``point`` for the discrete laws of
    two atoms and of one that :func:`threshnet.dist.two_point` and
    :func:`threshnet.dist.point_mass` build."""
    if law.is_discrete and len(law.atoms()) <= 2:
        return ("point", "two_point")[len(law.atoms()) - 1]
    return law.kind


def law_call_id(law) -> str:
    """:func:`law_id` followed by the constructor's arguments."""
    args = law.params
    if law_id(law) == "point":
        args = (law.atoms()[0][0],)
    elif law_id(law) == "two_point":
        (x1, p1), (x2, _) = law.atoms()
        args = (x1, p1, x2)
    return f"{law_id(law)}{args}"
