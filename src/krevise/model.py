"""Solver-agnostic MILP container with MPS/LP serialization.

ModelIR stores variables, linear constraints, and one linear objective.
Variables are referenced by dense index; semantic roles ("x:3", "r:5",
"Delta:0:2") are recorded in ``var_tags`` so formulation fragments can be
merged onto a shared strategic block.  Free-format MPS is the canonical
interchange; an LP-format writer is provided for debugging.
"""

from __future__ import annotations

from dataclasses import dataclass

INF = float("inf")

BINARY = "binary"
INTEGER = "integer"
CONTINUOUS = "continuous"

MIN = "min"
MAX = "max"

_SENSES = ("<=", "=", ">=")
_MAX_NAME = 255


class ModelError(ValueError):
    """Inconsistent model construction or serialization input."""


@dataclass
class Variable:
    name: str
    kind: str = CONTINUOUS
    lower: float = 0.0
    upper: float = INF


@dataclass
class Constraint:
    name: str
    terms: list  # (var index, coefficient) pairs
    sense: str
    rhs: float


class ModelIR:
    def __init__(self, name="model"):
        self.name = name
        self.variables: list[Variable] = []
        self.constraints: list[Constraint] = []
        self.objective_sense = MIN
        self.objective: list = []  # (var index, coefficient)
        self.objective_constant = 0.0
        self.var_tags: dict[str, int] = {}
        self._var_index: dict[str, int] = {}
        self._row_names: set[str] = set()

    # -- construction ------------------------------------------------------

    def add_var(self, name, kind=CONTINUOUS, lower=0.0, upper=None, tag=None) -> int:
        if name in self._var_index:
            raise ModelError(f"duplicate variable name {name!r}")
        if kind not in (BINARY, INTEGER, CONTINUOUS):
            raise ModelError(f"unknown variable kind {kind!r}")
        if upper is None:
            upper = 1.0 if kind == BINARY else INF
        if kind == BINARY and not (0.0 <= lower and upper <= 1.0):
            raise ModelError(f"binary variable {name} must have bounds within [0,1]")
        if lower > upper:
            raise ModelError(f"variable {name} has lower bound above upper bound")
        idx = len(self.variables)
        self.variables.append(Variable(name, kind, float(lower), float(upper)))
        self._var_index[name] = idx
        if tag is not None:
            if tag in self.var_tags:
                raise ModelError(f"duplicate variable tag {tag!r}")
            self.var_tags[tag] = idx
        return idx

    def add_constraint(self, name, terms, sense, rhs):
        if sense not in _SENSES:
            raise ModelError(f"unknown constraint sense {sense!r}")
        if name in self._row_names:
            raise ModelError(f"duplicate constraint name {name!r}")
        seen = set()
        clean = []
        for idx, coef in terms:
            if not 0 <= idx < len(self.variables):
                raise ModelError(f"constraint {name} references unknown variable index {idx}")
            if idx in seen:
                raise ModelError(f"constraint {name} repeats variable index {idx}")
            seen.add(idx)
            clean.append((idx, float(coef)))
        self.constraints.append(Constraint(name, clean, sense, float(rhs)))
        self._row_names.add(name)

    def set_objective(self, sense, terms, constant=0.0):
        if sense not in (MIN, MAX):
            raise ModelError(f"objective sense must be 'min' or 'max', got {sense!r}")
        self.objective_sense = sense
        self.objective = [(idx, float(c)) for idx, c in terms]
        self.objective_constant = float(constant)

    # -- queries -------------------------------------------------------------

    def index_of(self, name) -> int:
        try:
            return self._var_index[name]
        except KeyError:
            raise ModelError(f"unknown variable {name!r}") from None

    def tagged(self, prefix) -> dict:
        """Tags starting with 'prefix:' mapped to variable indices."""
        head = prefix + ":"
        return {tag: idx for tag, idx in self.var_tags.items() if tag.startswith(head)}

    def integer_indices(self):
        return [i for i, v in enumerate(self.variables) if v.kind in (BINARY, INTEGER)]

    def objective_value(self, values) -> float:
        return self.objective_constant + sum(c * values[i] for i, c in self.objective)

    def stats(self):
        return {
            "variables": len(self.variables),
            "integer_variables": len(self.integer_indices()),
            "constraints": len(self.constraints),
            "nonzeros": sum(len(c.terms) for c in self.constraints),
        }


def evaluate(model: ModelIR, assignment: dict, tol=1e-6):
    """Objective value plus all constraint/bound violations beyond tol.

    ``assignment`` maps variable names to values and must cover every
    variable.  Integrality is ignored.  Returns (objective, violations)
    with violations as (name, amount) pairs.
    """
    values = []
    for var in model.variables:
        if var.name not in assignment:
            raise ModelError(f"assignment missing variable {var.name!r}")
        values.append(float(assignment[var.name]))
    violated = []
    for var, val in zip(model.variables, values):
        over = max(var.lower - val, val - var.upper)
        if over > tol:
            violated.append((f"bound:{var.name}", over))
    for con in model.constraints:
        lhs = sum(c * values[i] for i, c in con.terms)
        if con.sense == "<=":
            amount = lhs - con.rhs
        elif con.sense == ">=":
            amount = con.rhs - lhs
        else:
            amount = abs(lhs - con.rhs)
        if amount > tol:
            violated.append((con.name, amount))
    return model.objective_value(values), violated


# -- MPS (free format) -------------------------------------------------------

_OBJ_ROW = "OBJ"


def _num(x):
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return format(x, ".17g")


def write_mps(model: ModelIR) -> str:
    """Free-format MPS; deterministic declaration order.

    Integer and binary columns are bracketed by INTORG/INTEND markers; the
    objective constant is carried as RHS on the objective row (with the
    conventional sign flip).  Column entries for otherwise-empty variables
    get an explicit zero objective coefficient so they survive a reparse.
    """
    for var in model.variables:
        if len(var.name) > _MAX_NAME:
            raise ModelError(f"variable name longer than {_MAX_NAME} chars: {var.name[:40]}...")
    for con in model.constraints:
        if len(con.name) > _MAX_NAME:
            raise ModelError(f"row name longer than {_MAX_NAME} chars: {con.name[:40]}...")

    lines = [f"NAME {model.name}"]
    lines.append("OBJSENSE")
    lines.append(f"    {'MAX' if model.objective_sense == MAX else 'MIN'}")
    lines.append("ROWS")
    lines.append(f" N {_OBJ_ROW}")
    sense_code = {"<=": "L", ">=": "G", "=": "E"}
    for con in model.constraints:
        lines.append(f" {sense_code[con.sense]} {con.name}")

    by_col = [[] for _ in model.variables]
    obj_by_col = [[] for _ in model.variables]
    for idx, coef in model.objective:
        obj_by_col[idx].append(coef)
    for con in model.constraints:
        for idx, coef in con.terms:
            by_col[idx].append((con.name, coef))

    lines.append("COLUMNS")
    in_int = False
    marker_no = 0
    for idx, var in enumerate(model.variables):
        want_int = var.kind in (BINARY, INTEGER)
        if want_int != in_int:
            word = "INTORG" if want_int else "INTEND"
            lines.append(f"    MARKER{marker_no}    'MARKER'    '{word}'")
            marker_no += 1
            in_int = want_int
        entries = [(_OBJ_ROW, c) for c in obj_by_col[idx]] + by_col[idx]
        if not entries:
            entries = [(_OBJ_ROW, 0.0)]
        for row, coef in entries:
            lines.append(f"    {var.name} {row} {_num(coef)}")
    if in_int:
        lines.append(f"    MARKER{marker_no}    'MARKER'    'INTEND'")

    lines.append("RHS")
    if model.objective_constant != 0.0:
        lines.append(f"    RHS {_OBJ_ROW} {_num(-model.objective_constant)}")
    for con in model.constraints:
        if con.rhs != 0.0:
            lines.append(f"    RHS {con.name} {_num(con.rhs)}")
    lines.append("RANGES")
    lines.append("BOUNDS")
    for var in model.variables:
        if var.kind == BINARY:
            lines.append(f" BV BND {var.name}")
            if (var.lower, var.upper) != (0.0, 1.0):
                if var.lower == var.upper:
                    lines.append(f" FX BND {var.name} {_num(var.lower)}")
                else:
                    lines.append(f" LO BND {var.name} {_num(var.lower)}")
                    lines.append(f" UP BND {var.name} {_num(var.upper)}")
        elif var.lower == var.upper:
            lines.append(f" FX BND {var.name} {_num(var.lower)}")
        elif var.kind == CONTINUOUS and var.lower == 0.0 and var.upper == INF:
            pass  # MPS default
        else:
            if var.lower == -INF and var.upper == INF:
                lines.append(f" FR BND {var.name}")
                continue
            if var.lower == -INF:
                lines.append(f" MI BND {var.name}")
            else:
                lines.append(f" LO BND {var.name} {_num(var.lower)}")
            if var.upper == INF:
                lines.append(f" PL BND {var.name}")
            else:
                lines.append(f" UP BND {var.name} {_num(var.upper)}")
    lines.append("ENDATA")
    return "\n".join(lines) + "\n"


def parse_mps(text: str) -> ModelIR:
    """Reader for the free-format subset emitted by write_mps."""
    model = ModelIR()
    section = None
    obj_row = None
    row_sense: dict[str, str] = {}
    row_order: list[str] = []
    row_terms: dict[str, list] = {}
    row_rhs: dict[str, float] = {}
    obj_terms: list = []
    obj_constant = 0.0
    in_int = False
    col_order: list[str] = []
    col_kind: dict[str, str] = {}
    col_bounds: dict[str, list] = {}

    def ensure_col(name):
        if name not in col_kind:
            col_order.append(name)
            col_kind[name] = INTEGER if in_int else CONTINUOUS
            col_bounds[name] = [0.0, INF]

    for raw in text.splitlines():
        if not raw.strip() or raw.lstrip().startswith("*"):
            continue
        head = raw[:1] not in (" ", "\t")
        tokens = raw.split()
        if head:
            word = tokens[0].upper()
            if word in ("NAME",):
                model.name = tokens[1] if len(tokens) > 1 else "model"
                section = None
            elif word in ("OBJSENSE", "ROWS", "COLUMNS", "RHS", "RANGES", "BOUNDS", "ENDATA"):
                section = word
                if word == "OBJSENSE" and len(tokens) > 1:
                    model.objective_sense = MAX if tokens[1].upper().startswith("MAX") else MIN
            else:
                raise ModelError(f"unknown MPS section {tokens[0]!r}")
            continue
        if section == "OBJSENSE":
            model.objective_sense = MAX if tokens[0].upper().startswith("MAX") else MIN
        elif section == "ROWS":
            code, name = tokens[0].upper(), tokens[1]
            if code == "N":
                if obj_row is None:
                    obj_row = name
            elif code in ("L", "G", "E"):
                row_sense[name] = {"L": "<=", "G": ">=", "E": "="}[code]
                row_order.append(name)
                row_terms[name] = []
            else:
                raise ModelError(f"unknown row type {code!r}")
        elif section == "COLUMNS":
            if len(tokens) >= 3 and tokens[1].startswith("'MARKER'"):
                in_int = tokens[2].strip("'").upper() == "INTORG"
                continue
            col = tokens[0]
            ensure_col(col)
            pairs = tokens[1:]
            if len(pairs) % 2 != 0:
                raise ModelError(f"bad COLUMNS line: {raw!r}")
            for row, val in zip(pairs[::2], pairs[1::2]):
                coef = float(val)
                if row == obj_row:
                    obj_terms.append((col, coef))
                elif row in row_terms:
                    row_terms[row].append((col, coef))
                else:
                    raise ModelError(f"column entry references unknown row {row!r}")
        elif section == "RHS":
            pairs = tokens[1:]
            for row, val in zip(pairs[::2], pairs[1::2]):
                if row == obj_row:
                    obj_constant = -float(val)
                else:
                    row_rhs[row] = float(val)
        elif section == "RANGES":
            if len(tokens) > 1:
                raise ModelError("RANGES entries are not supported")
        elif section == "BOUNDS":
            code = tokens[0].upper()
            name = tokens[2]
            ensure_col(name)
            val = float(tokens[3]) if len(tokens) > 3 else None
            b = col_bounds[name]
            if code == "BV":
                col_kind[name] = BINARY
                b[0], b[1] = 0.0, 1.0
            elif code == "FX":
                b[0] = b[1] = val
            elif code == "LO":
                b[0] = val
            elif code == "UP":
                b[1] = val
            elif code == "FR":
                b[0], b[1] = -INF, INF
            elif code == "MI":
                b[0] = -INF
            elif code == "PL":
                b[1] = INF
            elif code == "LI":
                col_kind[name] = INTEGER
                b[0] = val
            elif code == "UI":
                col_kind[name] = INTEGER
                b[1] = val
            else:
                raise ModelError(f"unknown bound type {code!r}")
        elif section == "ENDATA":
            break

    for name in col_order:
        kind = col_kind[name]
        lo, hi = col_bounds[name]
        if kind == BINARY and not (0.0 <= lo and hi <= 1.0):
            kind = INTEGER
        model.add_var(name, kind=kind, lower=lo, upper=hi)
    # exact-zero objective entries are presence padding from write_mps
    model.objective = [(model.index_of(col), c) for col, c in obj_terms if c != 0.0]
    model.objective_constant = obj_constant
    for row in row_order:
        terms = [(model.index_of(col), c) for col, c in row_terms[row]]
        model.add_constraint(row, terms, row_sense[row], row_rhs.get(row, 0.0))
    return model


# -- LP format (debugging aid) ------------------------------------------------


def _lp_terms(model, terms):
    if not terms:
        return " 0"
    parts = []
    for idx, coef in terms:
        name = model.variables[idx].name
        sign = "-" if coef < 0 else "+"
        parts.append(f" {sign} {_num(abs(coef))} {name}")
    out = "".join(parts)
    return out[2:] if out.startswith(" +") else out.lstrip()


def write_lp(model: ModelIR) -> str:
    lines = [f"\\ {model.name}"]
    lines.append("Maximize" if model.objective_sense == MAX else "Minimize")
    obj = _lp_terms(model, model.objective)
    if model.objective_constant:
        obj += f" + {_num(model.objective_constant)} OBJCONST"
    lines.append(f" obj: {obj}")
    lines.append("Subject To")
    op = {"<=": "<=", ">=": ">=", "=": "="}
    for con in model.constraints:
        lines.append(f" {con.name}: {_lp_terms(model, con.terms)} {op[con.sense]} {_num(con.rhs)}")
    lines.append("Bounds")
    if model.objective_constant:
        lines.append(" OBJCONST = 1")
    for var in model.variables:
        lo = "-inf" if var.lower == -INF else _num(var.lower)
        hi = "+inf" if var.upper == INF else _num(var.upper)
        lines.append(f" {lo} <= {var.name} <= {hi}")
    binaries = [v.name for v in model.variables if v.kind == BINARY]
    generals = [v.name for v in model.variables if v.kind == INTEGER]
    if binaries:
        lines.append("Binaries")
        lines.extend(f" {n}" for n in binaries)
    if generals:
        lines.append("Generals")
        lines.extend(f" {n}" for n in generals)
    lines.append("End")
    return "\n".join(lines) + "\n"
