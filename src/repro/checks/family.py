"""Check families and the check universe.

A *family* is the set of range checks sharing a range-expression
(section 3.1).  Within a family, checks are ordered by range-constant:
a smaller constant is a stronger check.  The :class:`CheckUniverse`
assigns dense integer ids to every distinct canonical check seen in a
function -- ids are the dataflow facts of the availability and
anticipatability systems, which hold a set of facts as an int bit mask
(bit *i* stands for id *i*; :func:`ids_of` reads one).
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from ..ir.instructions import Check
from ..symbolic import LinearExpr
from .canonical import CanonicalCheck


class CheckUniverse:
    """Dense ids for canonical checks, grouped into families."""

    def __init__(self) -> None:
        self.checks: List[CanonicalCheck] = []
        self._ids: Dict[CanonicalCheck, int] = {}
        self.families: List[LinearExpr] = []
        self._family_ids: Dict[LinearExpr, int] = {}
        self.family_of: List[int] = []
        self._family_members: Dict[int, List[int]] = {}
        #: the id of each check instruction the universe was built from
        self.sites: Dict[Check, int] = {}

    # -- registration ------------------------------------------------------

    def add(self, check: CanonicalCheck) -> int:
        """Register a check (idempotent); returns its id."""
        existing = self._ids.get(check)
        if existing is not None:
            return existing
        check_id = len(self.checks)
        self.checks.append(check)
        self._ids[check] = check_id
        family_id = self._family_ids.get(check.linexpr)
        if family_id is None:
            family_id = len(self.families)
            self.families.append(check.linexpr)
            self._family_ids[check.linexpr] = family_id
        self.family_of.append(family_id)
        self._family_members.setdefault(family_id, []).append(check_id)
        return check_id

    def add_all(self, checks: Iterable[CanonicalCheck]) -> None:
        """Register several checks."""
        for check in checks:
            self.add(check)

    # -- lookup ---------------------------------------------------------------

    def id_of(self, check: CanonicalCheck) -> Optional[int]:
        """The id of a registered check, or None."""
        return self._ids.get(check)

    def check_of(self, check_id: int) -> CanonicalCheck:
        """The canonical check with the given id."""
        return self.checks[check_id]

    def family_id(self, linexpr: LinearExpr) -> Optional[int]:
        """The family id of a range-expression, or None."""
        return self._family_ids.get(linexpr)

    def family_members(self, family_id: int) -> List[int]:
        """Check ids in a family, sorted by increasing range-constant
        (strongest first, as the paper orders family lists)."""
        members = self._family_members.get(family_id, [])
        return sorted(members, key=lambda cid: self.checks[cid].bound)

    def family_symbols(self, family_id: int) -> Tuple[str, ...]:
        """The symbols of a family's range-expression."""
        return self.families[family_id].symbols()

    def __len__(self) -> int:
        return len(self.checks)

    def __iter__(self):
        return iter(self.checks)


def ids_of(mask: int) -> Iterator[int]:
    """The check ids in a fact mask, in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def universe_from_function(function) -> CheckUniverse:
    """Collect every check occurring in ``function`` into a universe,
    recording each instruction's id in ``sites``."""
    universe = CheckUniverse()
    sites = universe.sites
    for inst in function.instructions():
        if isinstance(inst, Check):
            sites[inst] = universe.add(CanonicalCheck.of(inst))
    return universe
