"""Suite descriptors: studies x seeds x repetitions x annotations, as data.

A *suite* is the layer above a study: one plain-dict descriptor declaring
several study specs plus the statistical axes the paper's evaluation needs
-- a ``seeds`` axis (each seed re-generates the scenarios' synthetic
traffic) and a ``repetitions`` count (exact repeats of every cell) -- with
free-form annotations riding along as provenance.  The descriptor is plain
data all the way down, so a whole evaluation campaign lives in one JSON
file::

    {
        "name": "robustness-campaign",
        "annotations": {"machine": "bench-box-2"},
        "seeds": [0, 1, 2],
        "repetitions": 2,
        "studies": [
            {"name": "replay", "spec": {
                "scenario": "geant_small",
                "scheme": {"sweep": [{"kind": "figret"}, {"kind": "dote"}]},
            }},
            {"name": "fluctuation", "spec": {...}}
        ]
    }

:func:`expand_suite` turns that into concrete
:class:`~repro.study.spec.ExperimentSpec` cells through the existing
:func:`~repro.study.spec.expand_spec` machinery -- each study spec's own
sweep axes expand first, then the suite clones every cell per seed and
repetition, rewriting the scenario reference's seed and stamping
``suite`` / ``study`` / ``seed`` / ``repetition`` (plus the annotations)
into the cell's tags, which ride into every result record's spec
provenance.  A suite is not a separate runner: a mapping with any of the
keys above (``name`` / ``annotations`` / ``seeds`` / ``repetitions`` /
``studies``; a study spec's cell keys share none of them) is a suite
descriptor, so ``Study(descriptor)``, ``python -m repro.study suite.json``
and a daemon ``submit`` all expand it here.

Seed semantics (deliberately explicit):

* A seed rewrites **declarative scenario references**: a bare name becomes
  ``{"name": ..., "seed": <seed>}``, a registry reference gets its seed
  set, and an inline config gets ``traffic.seed`` set.  A study spec that
  *pins* one of those seeds conflicts with a suite-level ``seeds`` axis and
  is rejected -- two declarations of one knob should be loud, not silently
  resolved.
* A perturbation carrying a ``seed`` knob (fluctuation / failure) gets the
  suite seed *unless the study spec pinned one explicitly* -- a pinned
  perturbation seed means common random numbers across the seed axis, which
  is a legitimate design.
* Repetitions are **exact repeats** distinguished only by their
  ``repetition`` tag.  The pipeline is deterministic, so their spread
  measures run-to-run nondeterminism (and gives the warehouse its
  repetition axis); use more seeds, not more repetitions, for statistical
  power.
"""

from __future__ import annotations

import copy
from collections.abc import Mapping, Sequence

from repro.study.spec import ExperimentSpec, expand_spec

__all__ = ["expand_suite", "RESERVED_TAG_KEYS"]

#: Tag keys the suite expansion owns; study specs and annotations may not
#: set them (the provenance would be ambiguous).
RESERVED_TAG_KEYS = frozenset({"suite", "study", "seed", "repetition"})

_SUITE_KEYS = frozenset({"name", "annotations", "seeds", "repetitions", "studies"})
_STUDY_ENTRY_KEYS = frozenset({"name", "spec", "annotations"})

#: Perturbation kinds whose ``seed`` knob the suite seed fills when unset.
_SEEDED_PERTURBATIONS = frozenset({"fluctuation", "failure"})


def _validated_annotations(annotations, owner: str) -> dict:
    if annotations is None:
        return {}
    if not isinstance(annotations, Mapping):
        raise ValueError(
            f"{owner} annotations must be a mapping, got {type(annotations).__name__}"
        )
    reserved = RESERVED_TAG_KEYS & set(annotations)
    if reserved:
        raise ValueError(
            f"{owner} annotations use reserved tag key(s) {sorted(reserved)}; "
            f"{sorted(RESERVED_TAG_KEYS)} are stamped by the suite expansion"
        )
    return dict(annotations)


def _validated_seeds(seeds) -> tuple:
    if seeds is None:
        return (None,)
    if isinstance(seeds, (str, bytes)) or not isinstance(seeds, Sequence):
        raise ValueError(f"suite seeds must be a sequence of ints, got {seeds!r}")
    validated = []
    for seed in seeds:
        if isinstance(seed, bool) or not isinstance(seed, int):
            raise ValueError(f"suite seeds must be ints, got {seed!r}")
        validated.append(seed)
    if not validated:
        raise ValueError("suite seeds must not be empty (omit the key for no seed axis)")
    if len(set(validated)) != len(validated):
        raise ValueError(f"suite seeds contain duplicates: {validated}")
    return tuple(validated)


def _validated_repetitions(repetitions) -> int:
    if repetitions is None:
        return 1
    if isinstance(repetitions, bool) or not isinstance(repetitions, int) or repetitions < 1:
        raise ValueError(f"suite repetitions must be a positive int, got {repetitions!r}")
    return repetitions


def _study_entries(studies) -> list[tuple[str, Mapping, dict]]:
    """Normalise the ``studies`` list to ``(name, spec, annotations)`` triples."""
    if isinstance(studies, (str, bytes)) or not isinstance(studies, Sequence) or not studies:
        raise ValueError("suite 'studies' must be a non-empty list of study entries")
    entries = []
    names = set()
    for index, entry in enumerate(studies):
        if not isinstance(entry, Mapping):
            raise ValueError(
                f"study entry {index} must be a mapping (a spec, or "
                f"{{'name', 'spec'}}), got {type(entry).__name__}"
            )
        if "spec" in entry:
            unknown = set(entry) - _STUDY_ENTRY_KEYS
            if unknown:
                raise ValueError(
                    f"unknown study entry key(s) {sorted(unknown)} in study entry "
                    f"{index}; allowed: {sorted(_STUDY_ENTRY_KEYS)}"
                )
            name = entry.get("name", f"study-{index}")
            spec = entry["spec"]
            annotations = _validated_annotations(
                entry.get("annotations"), f"study {name!r}"
            )
            if not isinstance(spec, Mapping):
                raise ValueError(
                    f"study {name!r} 'spec' must be a mapping, got {type(spec).__name__}"
                )
        else:
            # A bare study spec; its cells carry a positional study name.
            name, spec, annotations = f"study-{index}", entry, {}
        if not isinstance(name, str) or not name:
            raise ValueError(f"study entry {index} has an invalid name {name!r}")
        if name in names:
            raise ValueError(f"duplicate study name {name!r} in suite")
        names.add(name)
        entries.append((name, spec, annotations))
    return entries


def _seeded_scenario(scenario, seed: int, study: str):
    """Rewrite a declarative scenario reference to the suite seed."""
    if isinstance(scenario, str):
        return {"name": scenario, "seed": seed}
    if "name" in scenario and "topology" not in scenario:
        if "seed" in scenario:
            raise ValueError(
                f"study {study!r} pins scenario seed {scenario['seed']!r} but the "
                "suite declares a seeds axis; drop the pinned seed (the suite owns "
                "the seed axis) or drop the suite's 'seeds' key"
            )
        return {**scenario, "seed": seed}
    traffic = scenario.get("traffic")
    if "topology" in scenario and isinstance(traffic, Mapping):
        if "seed" in traffic:
            raise ValueError(
                f"study {study!r} pins traffic seed {traffic['seed']!r} in an "
                "inline scenario config but the suite declares a seeds axis; "
                "drop the pinned seed or the suite's 'seeds' key"
            )
        return {**scenario, "traffic": {**traffic, "seed": seed}}
    return scenario


def _seeded_perturbation(perturbation, seed: int):
    """Fill an unset perturbation seed with the suite seed (pinned ones win)."""
    if (
        isinstance(perturbation, Mapping)
        and perturbation.get("kind") in _SEEDED_PERTURBATIONS
        and "seed" not in perturbation
    ):
        return {**perturbation, "seed": seed}
    return perturbation


def expand_suite(descriptor: Mapping) -> list[ExperimentSpec]:
    """Expand a suite descriptor into its concrete experiment cells.

    Cells come out ordered study-major: for each study (in declaration
    order), for each seed, for each repetition, the study spec's own
    expanded cells.  Every cell's tags carry ``suite`` / ``study`` (always),
    ``seed`` (when the suite declares a seeds axis), ``repetition``
    (always), the suite and study annotations, and the cell's own tags --
    whose keys may not collide with the reserved ones.

    Raises:
        ValueError: On unknown descriptor keys, invalid axes, live-object
            scenarios, pinned-seed conflicts, or reserved-tag collisions
            (see the module docstring for the seed rules).
        TypeError: On a scheme that is not a spec dict (see
            :class:`~repro.study.spec.ExperimentSpec`).
    """
    if not isinstance(descriptor, Mapping):
        raise ValueError(
            f"a suite descriptor must be a mapping, got {type(descriptor).__name__}"
        )
    unknown = set(descriptor) - _SUITE_KEYS
    if unknown:
        raise ValueError(
            f"unknown suite descriptor key(s) {sorted(unknown)}; allowed: "
            f"{sorted(_SUITE_KEYS)} (a document with any of these keys is a "
            "suite descriptor; a study spec goes under a study entry's 'spec')"
        )
    name = descriptor.get("name", "suite")
    if not isinstance(name, str) or not name:
        raise ValueError(f"suite name must be a non-empty string, got {name!r}")
    annotations = _validated_annotations(descriptor.get("annotations"), "suite")
    seeds = _validated_seeds(descriptor.get("seeds"))
    repetitions = _validated_repetitions(descriptor.get("repetitions"))
    entries = _study_entries(descriptor.get("studies"))

    cells: list[ExperimentSpec] = []
    for study_name, study_spec, study_annotations in entries:
        base_cells = expand_spec(study_spec)
        for seed in seeds:
            for repetition in range(repetitions):
                for base in base_cells:
                    cell = copy.deepcopy(base)
                    if not isinstance(cell.get("scenario"), (str, Mapping)):
                        raise ValueError(
                            f"study {study_name!r} uses a live scenario object; suites "
                            "are declarative (registered names, registry references, "
                            "or inline configs) so their cells can be resumed and "
                            "identified in the warehouse"
                        )
                    if seed is not None:
                        cell["scenario"] = _seeded_scenario(
                            cell.get("scenario"), seed, study_name
                        )
                        cell["perturbation"] = _seeded_perturbation(
                            cell.get("perturbation"), seed
                        )
                        if cell["perturbation"] is None:
                            del cell["perturbation"]
                    own_tags = cell.get("tags") or {}
                    if not isinstance(own_tags, Mapping):
                        raise ValueError(
                            f"cell tags in study {study_name!r} must be a mapping, "
                            f"got {type(own_tags).__name__}"
                        )
                    reserved = RESERVED_TAG_KEYS & set(own_tags)
                    if reserved:
                        raise ValueError(
                            f"cell tags in study {study_name!r} use reserved key(s) "
                            f"{sorted(reserved)}; {sorted(RESERVED_TAG_KEYS)} are "
                            "stamped by the suite expansion"
                        )
                    tags = {**annotations, **study_annotations, **own_tags}
                    tags["suite"] = name
                    tags["study"] = study_name
                    if seed is not None:
                        tags["seed"] = seed
                    tags["repetition"] = repetition
                    cell["tags"] = tags
                    cells.append(ExperimentSpec.from_dict(cell))
    return cells
