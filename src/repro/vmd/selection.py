"""VMD-style atom selection language.

Real VMD filters with expressions like ``protein and name CA`` or
``water within 5 of protein``.  This module implements the practical core
of that grammar over :class:`~repro.formats.topology.Topology`:

.. code-block:: text

    expr     := term (('or') term)*
    term     := factor (('and') factor)*
    factor   := 'not' factor | '(' expr ')' | primary
    primary  := class keyword   (protein|water|lipid|ion|ligand|misc|all|none)
              | 'name' WORD+          -- atom names, any of
              | 'resname' WORD+       -- residue names, any of
              | 'chain' WORD+         -- chain ids, any of
              | 'resid' RANGE+        -- ids / 'a to b' ranges, any of
              | 'index' RANGE+        -- atom indices / ranges
              | 'within' FLOAT 'of' factor     -- needs coords

Evaluation is fully vectorized: every primary produces one boolean mask,
combinators are numpy logical ops.  ``select(topology, "protein and name
CA")`` returns the matching atom indices.  Distance selections
(``"water within 5 of protein"``) additionally need a coordinate frame::

    select(topology, "water within 5 of protein", coords=frame)
"""

from __future__ import annotations

import re
from typing import List, Optional

import numpy as np

from repro.analysis.neighbors import any_within
from repro.errors import ReproError
from repro.formats.topology import AtomClass, Topology

__all__ = ["SelectionError", "compile_selection", "select", "select_mask"]


class SelectionError(ReproError):
    """Malformed selection expression."""


_CLASS_KEYWORDS = {
    "protein": (AtomClass.PROTEIN,),
    "water": (AtomClass.WATER,),
    "lipid": (AtomClass.LIPID,),
    "ion": (AtomClass.ION,),
    "ions": (AtomClass.ION,),
    "ligand": (AtomClass.LIGAND,),
    "misc": (
        AtomClass.WATER,
        AtomClass.LIPID,
        AtomClass.ION,
        AtomClass.LIGAND,
        AtomClass.OTHER,
    ),
}
_FIELD_KEYWORDS = ("name", "resname", "chain", "resid", "index")
_RESERVED = (
    set(_CLASS_KEYWORDS)
    | set(_FIELD_KEYWORDS)
    | {"and", "or", "not", "all", "none", "to", "within", "of", "(", ")"}
)

_TOKEN = re.compile(r"\(|\)|[^\s()]+")


def _tokenize(text: str) -> List[str]:
    tokens = _TOKEN.findall(text)
    if not tokens:
        raise SelectionError("empty selection")
    return tokens


class _Parser:
    """Recursive-descent parser producing mask-evaluator closures."""

    def __init__(
        self,
        tokens: List[str],
        topology: Topology,
        coords: Optional[np.ndarray] = None,
    ):
        self.tokens = tokens
        self.pos = 0
        self.topology = topology
        self.coords = coords

    def peek(self) -> Optional[str]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> str:
        token = self.peek()
        if token is None:
            raise SelectionError("unexpected end of selection")
        self.pos += 1
        return token

    # expr := term ('or' term)*
    def expr(self) -> np.ndarray:
        mask = self.term()
        while self.peek() == "or":
            self.take()
            mask = mask | self.term()
        return mask

    # term := factor (('and' factor) | within-factor)*
    def term(self) -> np.ndarray:
        mask = self.factor()
        while True:
            token = self.peek()
            if token == "and":
                self.take()
                mask = mask & self.factor()
            elif token == "within":
                # VMD's implicit conjunction: 'water within 5 of protein'
                # means 'water and (within 5 of protein)'.
                mask = mask & self.factor()
            else:
                break
        return mask

    def factor(self) -> np.ndarray:
        token = self.peek()
        if token == "not":
            self.take()
            return ~self.factor()
        if token == "within":
            self.take()
            return self._within()
        if token == "(":
            self.take()
            mask = self.expr()
            if self.take() != ")":
                raise SelectionError("missing closing parenthesis")
            return mask
        return self.primary()

    def _within(self) -> np.ndarray:
        """``within <dist> of <factor>``: distance selection over coords."""
        if self.coords is None:
            raise SelectionError(
                "'within' selections need a coordinate frame: pass coords="
            )
        try:
            cutoff = float(self.take())
        except ValueError:
            raise SelectionError("'within' expects a distance") from None
        if cutoff <= 0:
            raise SelectionError("'within' distance must be positive")
        if self.take() != "of":
            raise SelectionError("'within <dist> of <selection>' expected")
        reference = self.factor()
        if not reference.any():
            return np.zeros(self.topology.natoms, dtype=bool)
        out = any_within(self.coords, self.coords[reference], cutoff)
        # VMD semantics: the reference atoms are within 0 of themselves.
        out |= reference
        return out

    def primary(self) -> np.ndarray:
        topo = self.topology
        token = self.take().lower()
        if token == "all":
            return np.ones(topo.natoms, dtype=bool)
        if token == "none":
            return np.zeros(topo.natoms, dtype=bool)
        if token in _CLASS_KEYWORDS:
            mask = np.zeros(topo.natoms, dtype=bool)
            for cls in _CLASS_KEYWORDS[token]:
                mask |= topo.class_mask(cls)
            return mask
        if token == "name":
            return np.isin(topo.names, self._words("name"))
        if token == "resname":
            return np.isin(
                topo.resnames, [w.upper() for w in self._words("resname")]
            )
        if token == "chain":
            return np.isin(topo.chains, self._words("chain"))
        if token == "resid":
            return self._ranged(topo.resids, "resid")
        if token == "index":
            return self._ranged(
                np.arange(topo.natoms, dtype=np.int64), "index"
            )
        raise SelectionError(f"unknown selection keyword {token!r}")

    def _words(self, field: str) -> List[str]:
        words: List[str] = []
        while self.peek() is not None and self.peek().lower() not in _RESERVED:
            words.append(self.take())
        if not words:
            raise SelectionError(f"{field!r} needs at least one value")
        return words

    def _ranged(self, values: np.ndarray, field: str) -> np.ndarray:
        mask = np.zeros(values.shape[0], dtype=bool)
        got_any = False
        while True:
            token = self.peek()
            if token is None or token.lower() in _RESERVED:
                break
            start = self._int(self.take(), field)
            if self.peek() == "to":
                self.take()
                end = self._int(self.take(), field)
                if end < start:
                    raise SelectionError(
                        f"{field} range {start} to {end} is backwards"
                    )
                mask |= (values >= start) & (values <= end)
            else:
                mask |= values == start
            got_any = True
        if not got_any:
            raise SelectionError(f"{field!r} needs at least one value")
        return mask

    @staticmethod
    def _int(token: str, field: str) -> int:
        try:
            return int(token)
        except ValueError:
            raise SelectionError(
                f"{field} expects integers, got {token!r}"
            ) from None


def select_mask(
    topology: Topology,
    expression: str,
    coords: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Evaluate a selection to a boolean mask over the topology's atoms.

    ``coords`` (one ``(natoms, 3)`` frame) is required only by distance
    selections (``within``).
    """
    if coords is not None:
        coords = np.asarray(coords)
        if coords.shape != (topology.natoms, 3):
            raise SelectionError(
                f"coords shape {coords.shape} != ({topology.natoms}, 3)"
            )
    parser = _Parser(_tokenize(expression), topology, coords=coords)
    mask = parser.expr()
    if parser.peek() is not None:
        raise SelectionError(
            f"trailing tokens in selection: {' '.join(parser.tokens[parser.pos:])!r}"
        )
    return mask


def select(
    topology: Topology,
    expression: str,
    coords: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Evaluate a selection to sorted atom indices."""
    return np.flatnonzero(select_mask(topology, expression, coords=coords))


def compile_selection(expression: str):
    """A reusable ``topology -> indices`` callable for one expression."""
    def _compiled(topology: Topology, coords=None) -> np.ndarray:
        return select(topology, expression, coords=coords)

    _compiled.expression = expression
    return _compiled
