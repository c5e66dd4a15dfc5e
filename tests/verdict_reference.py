"""The tests' independent route for the verify stream: a canonical sort
key on verdict objects, and each verdict's JSON line and CSV row as the
standard library writes them, to check the form route against."""

import csv
import io
import json
from dataclasses import fields

from qimm import claims
from qimm.immanants import Form, InequalityVerdict


def sort_key(v: InequalityVerdict) -> tuple:
    """The canonical order: the claim, then each parameter name and the
    str of its value, in name order."""
    return v.claim, sorted((name, str(value))
                           for name, value in v.params.items())


# one encoder and one writer for every line: json.dumps builds an encoder
# per call when given sort_keys, and each csv.writer allocates its buffer
# on its first row
_JSON = json.JSONEncoder(sort_keys=True)
_OUT = io.StringIO()
_CSV = csv.writer(_OUT)


def json_line(v: InequalityVerdict) -> str:
    """json.dumps(v.to_json(), sort_keys=True) and its line end."""
    return _JSON.encode(v.to_json()) + "\n"


def _csv(values) -> str:
    _OUT.seek(0)
    _OUT.truncate()
    _CSV.writerow(values)
    return _OUT.getvalue()


def csv_line(v: InequalityVerdict) -> str:
    return _csv({**v.to_json(), "params": _JSON.encode(v.params)}.values())


def stream(verdicts, fmt="json") -> str | None:
    """The verify stream of `verdicts`: a CSV header and rows, or JSON
    lines closing on the summary line.  None where csv.writer refuses a
    value: before Python 3.11 it needs an escapechar for a NUL."""
    verdicts = list(verdicts)
    if fmt == "csv":
        try:
            return "".join([_csv(f.name for f in fields(InequalityVerdict)),
                            *map(csv_line, verdicts)])
        except csv.Error:
            return None
    return "".join([*map(json_line, verdicts), _JSON.encode(
        {"summary": claims.summarize(verdicts)}) + "\n"])


def plan(form: Form, rows: list) -> claims.Plan:
    """A plan of the rows in `rows`, in their order."""
    return claims.Plan(form, len(rows), rows.__iter__)


def as_plans(verdicts) -> claims.Verdicts:
    """Each verdict as a one-row plan of a form that writes it: its params
    as slots, %s for a str value and %d for an int, and its witness and
    detail as one %s slot each."""
    plans = []
    for v in verdicts:
        names = tuple(sorted(v.params))
        form = Form(v.claim, names, "%s", ("%s",),
                    tuple(name for name in names
                          if isinstance(v.params[name], str)))
        row = (v.holds << 2 | v.asserted << 1 | v.degenerate, 0,
               (*(v.params[name] for name in names), v.witness, v.detail))
        plans.append(plan(form, [row]))
    return claims.Verdicts(plans)
