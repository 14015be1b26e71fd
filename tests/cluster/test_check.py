"""Negative controls for the shared consistency-check oracle.

Every checker converges only if ``compare`` finds nothing, so each kind
of divergence the oracle claims to catch is planted here one at a time
and must be reported -- otherwise a checker could pass vacuously.
"""

import copy

import pytest

from repro.cluster.check import DATASET, build_cluster, compare, doc, images, settle


@pytest.fixture(scope="module")
def baseline():
    cluster = build_cluster()
    for pk in range(200):
        cluster.insert(DATASET, doc(pk))
    for pk in range(0, 200, 17):
        cluster.delete(DATASET, pk)
    cluster.flush_all(DATASET)
    settle(cluster)
    return images(cluster)


def _key(image, part, tag=None):
    return next(
        key for key, value in image[part].items() if value and tag in (None, key[-1])
    )


def _drop_contents_row(image):
    key = _key(image, "contents", "primary")
    image["contents"][key] = image["contents"][key][1:]
    return key


def _split_component(image):
    key = _key(image, "contents", "structure")
    primary, secondary = image["contents"][key]
    image["contents"][key] = (primary + (0,), secondary)
    return key


def _drop_catalog_entry(image):
    key = _key(image, "catalog")
    del image["catalog"][key]
    return key


def _add_catalog_entry(image):
    key = max(image["catalog"])
    extra = key[:-1] + (key[-1] + 1,)
    image["catalog"][extra] = image["catalog"][key]
    return extra


def _bump_synopsis_payload(image):
    key = _key(image, "catalog")
    synopsis, anti = image["catalog"][key]
    counts = list(synopsis["counts"])
    counts[0] += 1
    image["catalog"][key] = ({**synopsis, "counts": counts}, anti)
    return key


def _nudge_estimate(image):
    key = _key(image, "estimates")
    image["estimates"][key] += 1.0
    return key


@pytest.mark.parametrize(
    "perturb, expected",
    [
        (_drop_contents_row, "contents changed"),
        (_split_component, "contents changed"),
        (_drop_catalog_entry, "catalog missing"),
        (_add_catalog_entry, "catalog extra"),
        (_bump_synopsis_payload, "catalog changed"),
        (_nudge_estimate, "estimates changed"),
    ],
)
def test_compare_reports_each_planted_divergence(baseline, perturb, expected):
    other = copy.deepcopy(baseline)
    key = perturb(other)
    problems = compare("planted", baseline, other)
    assert len(problems) == 1, problems
    assert problems[0].startswith(f"planted: {expected} ")
    assert repr(key) in problems[0]


def test_identical_images_compare_clean(baseline):
    assert compare("same", baseline, copy.deepcopy(baseline)) == []
    # The images are not trivially empty: there is structure to diff.
    assert baseline["catalog"]
    assert any(key[-1] == "structure" for key in baseline["contents"])
