"""The frame's record types keep the frozen-dataclass contract with their
generated ``__new__``, and each Enum alias is its member."""

import copy
import copyreg
import dataclasses
import inspect
import math
import pickle
import re
import sys
from dataclasses import FrozenInstanceError, MISSING

import pytest

from abdtrack import abduction, domain, tracker
from abdtrack._records import record
from abdtrack.abduction import (
    Action,
    ActionKind,
    ProblemSpec,
    SolveResult,
    Thresholds,
    TrackPrediction,
)
from abdtrack.domain import (
    Detection,
    EventKind,
    EventOccurrence,
    FluentStore,
    HistoryEntry,
    Provenance,
    TrackState,
    Visibility,
)
from abdtrack.geometry import BBox2D
from abdtrack.motion import MotionFilter

BOX = BBox2D(1.0, 2.0, 3.0, 4.0)
EVENT = EventOccurrence(EventKind.NOISE, 4, 2)

# One instance's field values per class, every field set.
VALUES = {
    BBox2D: (1.0, 2.0, 3.0, 4.0),
    Detection: (0, "car", 90, BOX),
    HistoryEntry: (5, BOX, Provenance.OBSERVED, 80),
    EventOccurrence: (EventKind.HIDES_BEHIND, 5, 1, 2, False),
    Action: (ActionKind.IGNORE_TRK, 1, None, EVENT),
    TrackPrediction: (BOX, TrackState.HALTED, "car", 3),
    SolveResult: ((Action(ActionKind.IGNORE_TRK, 1, None, EVENT),), (EVENT,), (0, 10, 0)),
    tracker._StepStats: (7, 0.25, 0.5),
}
CLASSES = list(VALUES)


def names(cls):
    return [f.name for f in dataclasses.fields(cls)]


def plain(cls):
    """A dataclass of the same name and fields, with dataclasses' own
    ``__init__``: the contract's reference."""
    fields = [(f.name, f.type, dataclasses.field(default=f.default)) for f in dataclasses.fields(cls)]
    return dataclasses.make_dataclass(cls.__name__, fields, frozen=True, slots=True)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
class TestContract:
    def test_assignment_raises(self, cls):
        rec = cls(*VALUES[cls])
        for name, value in zip(names(cls), VALUES[cls]):
            with pytest.raises(FrozenInstanceError):
                setattr(rec, name, value)
            with pytest.raises(FrozenInstanceError):
                delattr(rec, name)
        assert tuple(getattr(rec, n) for n in names(cls)) == VALUES[cls]

    def test_eq_hash_repr_as_plain_dataclass(self, cls):
        rec, ref = cls(*VALUES[cls]), plain(cls)(*VALUES[cls])
        assert repr(rec) == repr(ref)
        assert hash(rec) == hash(ref) == hash(VALUES[cls])
        assert rec == cls(*VALUES[cls]) and not rec != cls(*VALUES[cls])
        assert rec != ref and ref != rec
        assert rec != VALUES[cls]
        assert all(rec != other(*VALUES[other]) for other in CLASSES if other is not cls)

    def test_keywords_defaults_and_replace(self, cls):
        rec = cls(*VALUES[cls])
        fields = dataclasses.fields(cls)
        assert cls(**dict(zip(names(cls), VALUES[cls]))) == rec
        required = [v for f, v in zip(fields, VALUES[cls]) if f.default is MISSING]
        bare = cls(*required)
        assert [getattr(bare, f.name) for f in fields] == [
            v if f.default is MISSING else f.default for f, v in zip(fields, VALUES[cls])
        ]
        assert dataclasses.replace(rec) == rec
        last = fields[-1].name
        changed = dataclasses.replace(bare, **{last: getattr(rec, last)})
        assert getattr(changed, last) == getattr(rec, last)

    def test_wrong_arity_raises_type_error(self, cls):
        values = VALUES[cls]
        n_required = sum(f.default is MISSING for f in dataclasses.fields(cls))
        with pytest.raises(TypeError):
            cls(*values, values[0])
        with pytest.raises(TypeError):
            cls(*values[: n_required - 1])
        with pytest.raises(TypeError):
            cls(*values, **{names(cls)[0]: values[0]})
        with pytest.raises(TypeError):
            cls(*values, bogus=1)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
class TestConstructor:
    """What the generated ``__new__`` keeps of a dataclass besides the
    contract: copies, pickles and the class's signature."""

    def test_copy_and_pickle_round_trip(self, cls):
        rec = cls(*VALUES[cls])
        copies = [copy.copy(rec), copy.deepcopy(rec)]
        copies += [pickle.loads(pickle.dumps(rec, p)) for p in range(2, pickle.HIGHEST_PROTOCOL + 1)]
        for other in copies:
            assert type(other) is cls and other == rec
            assert tuple(getattr(other, n) for n in names(cls)) == VALUES[cls]

    def test_signature_lists_the_init_fields(self, cls):
        params = inspect.signature(cls).parameters
        assert list(params) == [f.name for f in dataclasses.fields(cls) if f.init]


class TestProblemSpec:
    """The spec keeps the contract too: its fields but the derived
    ``detections_by_id`` are a plain frozen dataclass's, and that one is
    made from ``detections`` by every way of building a spec."""

    DETS = (Detection(4, "car", 90, BOX), Detection(1, "van", 40, BOX))
    VALUES = (9, DETS, {}, {}, FluentStore(), (100.0, 50.0), Thresholds(iou_thresh=0.5))

    def spec(self):
        return ProblemSpec(*self.VALUES)

    def test_detections_by_id_in_detection_order(self):
        by_id = self.spec().detections_by_id
        assert by_id == {d.id: d for d in self.DETS} and list(by_id) == [4, 1]
        assert ProblemSpec(*self.VALUES[:1], (), *self.VALUES[2:]).detections_by_id == {}

    def test_assignment_raises(self):
        spec = self.spec()
        for name in names(ProblemSpec):
            with pytest.raises(FrozenInstanceError):
                setattr(spec, name, getattr(spec, name))
            with pytest.raises(FrozenInstanceError):
                delattr(spec, name)

    def test_eq_repr_as_plain_dataclass(self):
        init = [f for f in dataclasses.fields(ProblemSpec) if f.init]
        ref = dataclasses.make_dataclass(
            "ProblemSpec", [(f.name, f.type, dataclasses.field(default=f.default)) for f in init],
            frozen=True, slots=True,
        )(*self.VALUES)
        spec = self.spec()
        assert repr(spec) == repr(ref)
        assert spec == self.spec() and not spec != self.spec()
        assert spec != dataclasses.replace(spec, frame=10) and spec != ref
        with pytest.raises(TypeError, match="unhashable"):
            hash(spec)

    def test_signature_lists_the_init_fields(self):
        assert list(inspect.signature(ProblemSpec).parameters) == names(ProblemSpec)[:-1]

    def test_keywords_defaults_and_replace(self):
        spec = self.spec()
        kw = dict(zip(names(ProblemSpec), self.VALUES))
        assert ProblemSpec(**kw) == spec
        assert ProblemSpec(*self.VALUES[:-1]).config == Thresholds()
        assert dataclasses.replace(spec) == spec
        other = (Detection(2, "car", 90, BOX),)
        changed = dataclasses.replace(spec, detections=other)
        assert changed.detections_by_id == {2: other[0]}
        assert spec.detections_by_id == {d.id: d for d in self.DETS}
        # dataclasses raises TypeError for an init=False field from 3.13 on
        error = ValueError if sys.version_info < (3, 13) else TypeError
        with pytest.raises(error, match="detections_by_id"):
            dataclasses.replace(spec, detections_by_id={})

    def test_wrong_arity_raises_type_error(self):
        with pytest.raises(TypeError):
            ProblemSpec(*self.VALUES, Thresholds())
        with pytest.raises(TypeError):
            ProblemSpec(*self.VALUES[:5])
        with pytest.raises(TypeError):
            ProblemSpec(*self.VALUES, detections_by_id={})


NAN, INF = math.nan, math.inf
# Each invalid box, with the message every way of building it gives.
BAD_BOXES = [
    ((NAN, 0, 1, 1), "non-finite box: BBox2D(x=nan, y=0, w=1, h=1)"),
    ((0, -INF, 1, 1), "non-finite box: BBox2D(x=0, y=-inf, w=1, h=1)"),
    ((0, 0, INF, 1), "non-finite box: BBox2D(x=0, y=0, w=inf, h=1)"),
    ((0, 0, 1, NAN), "non-finite box: BBox2D(x=0, y=0, w=1, h=nan)"),
    ((0, 0, 0, 10), "degenerate box: w=0, h=10"),
    ((0, 0, 10, -1), "degenerate box: w=10, h=-1"),
    ((0, 0, 1e200, 1e200), "non-finite or zero area or aspect: w=1e+200, h=1e+200"),
    ((0, 0, 1e-200, 1e203), "non-finite or zero area or aspect: w=1e-200, h=1e+203"),
    ((0, 0, 1e-200, 1e-200), "non-finite or zero area or aspect: w=1e-200, h=1e-200"),
    # ints past the float range, which math.isfinite cannot convert
    ((10**400, 0, 1, 1), f"non-finite box: BBox2D(x={10**400}, y=0, w=1, h=1)"),
    ((0, 0, 10**400, 10**400), f"non-finite box: BBox2D(x=0, y=0, w={10**400}, h={10**400})"),
    # ints whose exact product is past the float range, as the motion filter's area is
    ((0, 0, 10**200, 10**200), f"non-finite or zero area or aspect: w={10**200}, h={10**200}"),
]


def exactly(message):
    return "^" + re.escape(message) + "$"


class TestChecks:
    @pytest.mark.parametrize("xywh, message", BAD_BOXES)
    def test_box_rejected_the_same_every_way(self, xywh, message):
        kw = dict(zip("xywh", xywh))
        for build in (
            lambda: BBox2D(*xywh),
            lambda: BBox2D(**kw),
            lambda: dataclasses.replace(BOX, **kw),
            # copy's and pickle's way, through __new__
            lambda: copyreg.__newobj__(BBox2D, *xywh),
        ):
            with pytest.raises(ValueError, match=exactly(message)):
                build()

    @pytest.mark.parametrize("box, dx, message", [
        (BBox2D(1e308, 0, 1, 1), 1e308, "non-finite box: BBox2D(x=inf, y=0, w=1, h=1)"),
        (BBox2D(0, 0, 1, 1), NAN, "non-finite box: BBox2D(x=nan, y=0, w=1, h=1)"),
    ])
    def test_translated_box_checked(self, box, dx, message):
        with pytest.raises(ValueError, match=exactly(message)):
            box.translated(dx, 0)

    def test_predicted_box_checked(self):
        bank = MotionFilter()
        bank.add(0, BOX)
        bank.rows[0][0] = NAN  # cx
        with pytest.raises(ValueError, match="^non-finite box: BBox2D"):
            bank.predict()

    @pytest.mark.parametrize("conf", [-1, 101, 1000])
    def test_detection_confidence_rejected_the_same_every_way(self, conf):
        message = exactly(f"confidence out of range: {conf}")
        for build in (
            lambda: Detection(0, "car", conf, BOX),
            lambda: Detection(id=0, cls="car", conf=conf, box=BOX),
            lambda: dataclasses.replace(Detection(0, "car", 50, BOX), conf=conf),
        ):
            with pytest.raises(ValueError, match=message):
                build()

    def test_helper_refuses_a_class_it_cannot_build(self):
        # init=False: a derived field, but the class has no _a to make it
        for field in (
            dataclasses.field(kw_only=True),
            dataclasses.field(default_factory=list),
            dataclasses.field(init=False),
        ):
            with pytest.raises(TypeError, match="^Loose has a field that is not plain and positional$"):
                record(type("Loose", (), {"__annotations__": {"a": int}, "a": field}))


ENUMS = [TrackState, Provenance, Visibility, EventKind, ActionKind]


@pytest.mark.parametrize("module, enums", [
    (domain, [TrackState, Provenance, Visibility, ActionKind, EventKind]),
    (abduction, [ActionKind]),
])
def test_each_enum_alias_is_its_member(module, enums):
    for enum in enums:
        for member in enum:
            assert getattr(module, member.name) is member


@pytest.mark.parametrize("module", [abduction, tracker])
def test_imported_aliases_are_their_members(module):
    members = {m.name: m for enum in ENUMS for m in enum}
    aliases = [n for n in vars(module) if n in members]
    assert aliases
    for name in aliases:
        assert getattr(module, name) is members[name]
