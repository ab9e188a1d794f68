"""The contract of bellsim's record types: read-only fields, equality, hashing,
``repr``, keyword construction, and copies that bypass ``__init__``."""

import copy
import inspect
import pickle

import numpy as np
import pytest

from bellsim import (
    ChshResult,
    CorrelatorTable,
    DensityMatrix,
    EstimatedTable,
    LhvModel,
    MeasurementSettings,
    StateDiagnostics,
    TrialLog,
    UnitVector3,
    make_werner,
)
from bellsim.chsh import OptimizationTrace
from bellsim.states import WernerState

U = (1.0, 0.0, 0.0)
LOG = ([1, 2, 2], [2, 1, 2], [1, -1, -1], [-1, -1, 1])


def _settings(z=1.0):
    return MeasurementSettings(a1=UnitVector3(*U), a2=UnitVector3(0.0, 0.0, z), b1=UnitVector3(*U), b2=UnitVector3(*U))


#: type -> (its fields, in constructor order; a build; a build that differs in one field, or for
#: the two states, which compare by identity, one with equal entries)
RECORDS = {
    UnitVector3: (("x", "y", "z"), lambda: UnitVector3(x=0.6, y=0.8, z=0.0), lambda: UnitVector3(0.6, -0.8, 0.0)),
    MeasurementSettings: (("a1", "a2", "b1", "b2"), _settings, lambda: _settings(-1.0)),
    CorrelatorTable: (("e11", "e12", "e21", "e22"), lambda: CorrelatorTable(e11=0.5, e12=-0.5, e21=0.25, e22=1.0),
                      lambda: CorrelatorTable(0.5, -0.5, 0.25, -1.0)),
    ChshResult: (("s_value", "settings"), lambda: ChshResult(s_value=2.5, settings=_settings()),
                 lambda: ChshResult(2.5, _settings(-1.0))),
    OptimizationTrace: (("singular_values", "optimality_gap"),
                        lambda: OptimizationTrace(singular_values=(1.0, 1.0, 0.5), optimality_gap=0.0),
                        lambda: OptimizationTrace((1.0, 1.0, 0.5), 1e-16)),
    StateDiagnostics: (("hermiticity_error", "trace_error", "min_eigenvalue"),
                       lambda: StateDiagnostics(hermiticity_error=0.0, trace_error=1e-3, min_eigenvalue=-0.5),
                       lambda: StateDiagnostics(0.0, 1e-3, 0.5)),
    LhvModel: (("weights",), lambda: LhvModel(weights=(1.0 / 16.0,) * 16),
               lambda: LhvModel((0.125,) * 8 + (0.0,) * 8)),
    EstimatedTable: (("table", "counts", "std_errors"),
                     lambda: EstimatedTable(table=CorrelatorTable(0.0, 0.0, 0.0, 0.0), counts=(1, 1, 1, 1),
                                            std_errors=(1.0, 1.0, 1.0, 1.0)),
                     lambda: EstimatedTable(CorrelatorTable(0.0, 0.0, 0.0, 0.0), (1, 1, 1, 2), (1.0, 1.0, 1.0, 1.0))),
    TrialLog: (("codes",), lambda: TrialLog(*map(np.array, LOG)), lambda: TrialLog(*LOG[:3], [-1, -1, -1])),
    DensityMatrix: (("matrix",), lambda: DensityMatrix(matrix=np.eye(4) / 4), lambda: DensityMatrix(np.eye(4) / 4)),
    WernerState: (("p",), lambda: WernerState(p=0.5), lambda: make_werner(0.5)),
}
IDS = [t.__name__ for t in RECORDS]
#: The constructor parameters of the one type whose are not its fields: a log is built from its four columns
#: and stores their row codes.
PARAMETERS = {TrialLog: ("a_setting", "b_setting", "a_outcome", "b_outcome")}


@pytest.mark.parametrize("record_type", RECORDS, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(record_type):
    fields, build, _ = RECORDS[record_type]
    record = build()
    extra = ("matrix",) if record_type is WernerState else ()
    for name in fields + extra + ("unknown",):
        before = getattr(record, name, None)
        with pytest.raises(AttributeError):
            setattr(record, name, 0.0)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name, None) is before


@pytest.mark.parametrize("record_type", RECORDS, ids=IDS)
def test_equality_hash_repr_and_keywords(record_type):
    fields, build, build_other = RECORDS[record_type]
    a, b, other = build(), build(), build_other()
    assert type(a) is type(b) is type(other) is record_type
    assert list(inspect.signature(record_type).parameters) == list(PARAMETERS.get(record_type, fields))
    assert a == a and a != tuple(getattr(a, name) for name in fields)
    if record_type in (DensityMatrix, WernerState):
        # States compare and hash by identity, equal entries notwithstanding.
        assert a != b and hash(a) == object.__hash__(a)
    elif record_type is TrialLog:
        assert a == b and a != other
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert a == b and hash(a) == hash(b) and a != other
    text = repr(a)
    assert text.startswith(record_type.__name__ + "(")
    assert all(f"{name}=" in text for name in fields)


@pytest.mark.parametrize("record_type", RECORDS, ids=IDS)
def test_copies_keep_every_field(record_type):
    fields, build, _ = RECORDS[record_type]
    record = build()
    for restored in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(restored) is record_type
        for name in fields + (("matrix",) if record_type is WernerState else ()):
            assert np.array_equal(getattr(restored, name), getattr(record, name))
