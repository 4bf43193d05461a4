"""Tests for the per-(domain, attribute) generation profiles."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.entities.domains import (
    ATTRIBUTE_HOMEPAGE,
    ATTRIBUTE_ISBN,
    ATTRIBUTE_PHONE,
    ATTRIBUTE_REVIEWS,
    LOCAL_BUSINESS_DOMAINS,
)
from repro.webgen import assignment
from repro.webgen.profiles import PROFILES, SCALES, get_profile, profile_keys

# sha256 of ``SpreadProfile.generate("tiny", 0)`` per profile (see
# ``_incidence_digest``), computed before the per-size calibration cache
# went into ``AssignmentModel.generate``.  Any change to webgen that
# moves one byte of a corpus — a consumed random draw, a host name, a
# calibrated inclusion probability — shows up here.
TINY_SEED0_DIGESTS = {
    ("automotive", "homepage"): (
        "fed120bec0a49e1dbdfe1beaadc3d539"
        "961aa0bb2259b514c972949581a989bd"
    ),
    ("automotive", "phone"): (
        "d8178c7ca9cbd086a527fdf6b24a4c1e"
        "66b9a20197568c92bcc847b528ef3e11"
    ),
    ("banks", "homepage"): (
        "38927607896ca918a526e903cea1264d"
        "883ee3d45ead09849fdf828020fe37dd"
    ),
    ("banks", "phone"): (
        "45a623d17d9529a4532121aa76339157"
        "6f579858035e7eaf1331c59a666f913e"
    ),
    ("books", "isbn"): (
        "0340fd63e0d304fc07f22e75571f3b04"
        "05077237dc0f0ce042dd346af5a0fe8e"
    ),
    ("home", "homepage"): (
        "ec4e96ea1580b396a0fed9b1b5abe7a3"
        "451349f427301f8b6f937dedb1a66e13"
    ),
    ("home", "phone"): (
        "3949f58ea3e73d3cc49b77d0dc8cdcd3"
        "938f536415fc3d4d484143adc1878199"
    ),
    ("hotels", "homepage"): (
        "6c106dbfb702bd0bf505994f28f6e893"
        "82958bf71206112847e71aded8e7be73"
    ),
    ("hotels", "phone"): (
        "cad5ceb1da2be424ac7aea7918772c72"
        "ab4519a1e6f49f8d3f41cfea31e466ff"
    ),
    ("libraries", "homepage"): (
        "188088ba2ed3b479acfdc5ed3e515f59"
        "5e95cdb01776a250738b29ca91c04923"
    ),
    ("libraries", "phone"): (
        "b1035673965b381f975113c0e4826279"
        "8461f721635c7076a72f744bb2b2bb18"
    ),
    ("restaurants", "homepage"): (
        "f576a18045db571a5c641e9524a801e8"
        "cd10d7da788210536be60b030d1530be"
    ),
    ("restaurants", "phone"): (
        "a38000087cc09c04363f6d136bcfb9a3"
        "d96c67bddca5b331e0fa319c2f4861be"
    ),
    ("restaurants", "reviews"): (
        "7efafa76266926c656fc20d09b7e86d6"
        "7e6137f12062a74ee26b24017c78d8f4"
    ),
    ("retail", "homepage"): (
        "304c9b6bf9240b2b1eeee9a8b2794d16"
        "ae2c04190b52e3191b768179658b1d91"
    ),
    ("retail", "phone"): (
        "aa493ad351fd203e62dcf312940d1a9d"
        "340dee69e13e2589bde9aee562df2581"
    ),
    ("schools", "homepage"): (
        "3748aaa1c4fdacd2e1b68f153119d636"
        "453b844ebcf0b81019666c0dbb25016d"
    ),
    ("schools", "phone"): (
        "2d67e3413cf6650c9f0999bfaff3013e"
        "c16253d63f2ab5a26f379b10e9f9b6ed"
    ),
}


def test_registry_covers_all_table2_rows():
    # 8 domains x {phone, homepage} + books/isbn + restaurants/reviews
    assert len(PROFILES) == 18
    for domain in LOCAL_BUSINESS_DOMAINS:
        assert (domain, ATTRIBUTE_PHONE) in PROFILES
        assert (domain, ATTRIBUTE_HOMEPAGE) in PROFILES
    assert ("books", ATTRIBUTE_ISBN) in PROFILES
    assert ("restaurants", ATTRIBUTE_REVIEWS) in PROFILES


def test_profile_keys_filter():
    phones = profile_keys(ATTRIBUTE_PHONE)
    assert len(phones) == 8
    assert all(attr == ATTRIBUTE_PHONE for _, attr in phones)
    assert len(profile_keys()) == 18


def test_get_profile_unknown():
    with pytest.raises(KeyError, match="no profile"):
        get_profile("florists", ATTRIBUTE_PHONE)


def test_homepage_more_skewed_than_phone():
    """Homepage profiles encode the larger spread of Figure 2."""
    for domain in LOCAL_BUSINESS_DOMAINS:
        phone = get_profile(domain, ATTRIBUTE_PHONE)
        homepage = get_profile(domain, ATTRIBUTE_HOMEPAGE)
        assert homepage.popularity_exponent > phone.popularity_exponent


def test_generate_tiny_deterministic():
    profile = get_profile("banks", ATTRIBUTE_PHONE)
    a = profile.generate("tiny", seed=5)
    b = profile.generate("tiny", seed=5)
    assert a.site_hosts == b.site_hosts
    assert (a.entity_idx == b.entity_idx).all()


def test_generate_respects_scale():
    profile = get_profile("banks", ATTRIBUTE_PHONE)
    tiny = profile.generate("tiny", seed=1)
    assert tiny.n_entities == SCALES["tiny"].n_entities


def test_distinct_domains_get_distinct_corpora():
    a = get_profile("banks", ATTRIBUTE_PHONE).generate("tiny", seed=1)
    b = get_profile("schools", ATTRIBUTE_PHONE).generate("tiny", seed=1)
    assert (a.entity_idx.shape != b.entity_idx.shape) or (
        not (a.entity_idx == b.entity_idx).all()
    )


def test_review_profile_attaches_multiplicity():
    inc = get_profile("restaurants", ATTRIBUTE_REVIEWS).generate("tiny", seed=2)
    assert inc.multiplicity is not None
    assert inc.total_pages() >= inc.n_edges


def test_non_review_profiles_have_no_multiplicity():
    inc = get_profile("restaurants", ATTRIBUTE_PHONE).generate("tiny", seed=2)
    assert inc.multiplicity is None


def test_books_site_factor_override():
    books = get_profile("books", ATTRIBUTE_ISBN)
    inc = books.generate("tiny", seed=3)
    # site_factor=1.0 -> about as many model sites as entities (plus islands)
    assert inc.n_sites < 2 * SCALES["tiny"].n_entities


def test_avg_mentions_tracks_table2_targets():
    """Generated corpora hit the Table 2 sites-per-entity targets."""
    scale = SCALES["small"]
    for domain, attribute in [
        ("restaurants", ATTRIBUTE_PHONE),
        ("hotels", ATTRIBUTE_PHONE),
        ("home", ATTRIBUTE_HOMEPAGE),
    ]:
        profile = get_profile(domain, attribute)
        inc = profile.generate(scale, seed=4)
        target = profile.target_sites_per_entity
        measured = inc.average_sites_per_entity()
        assert 0.8 * target <= measured <= 1.2 * target, (domain, attribute)


def _incidence_digest(incidence) -> str:
    """sha256 over site_ptr, entity_idx, multiplicity (dtype + bytes) and hosts."""
    digest = hashlib.sha256()
    for array in (incidence.site_ptr, incidence.entity_idx, incidence.multiplicity):
        if array is None:
            digest.update(b"none")
        else:
            digest.update(array.dtype.str.encode())
            digest.update(np.ascontiguousarray(array).tobytes())
    digest.update("\n".join(incidence.site_hosts).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("key", sorted(PROFILES))
def test_generated_bytes_are_pinned(key):
    incidence = get_profile(*key).generate("tiny", 0)
    assert _incidence_digest(incidence) == TINY_SEED0_DIGESTS[key]


def test_bernoulli_scale_calibrated_once_per_distinct_head_site_size(monkeypatch):
    """Head sites of equal size share one calibration per ``generate`` call."""
    calibrated: list[float] = []
    head_counts: list[int] = []
    calibrate = assignment._calibrate_bernoulli_scale
    sample_global = assignment.AssignmentModel._sample_global

    def counting_calibrate(weights, target, *args, **kwargs):
        calibrated.append(target)
        return calibrate(weights, target, *args, **kwargs)

    def recording_sample_global(self, rng, weights, cdf, members, count, *rest):
        if count >= 0.02 * len(members):
            head_counts.append(count)
        return sample_global(self, rng, weights, cdf, members, count, *rest)

    monkeypatch.setattr(assignment, "_calibrate_bernoulli_scale", counting_calibrate)
    monkeypatch.setattr(
        assignment.AssignmentModel, "_sample_global", recording_sample_global
    )
    total_heads = total_calibrations = 0
    for key in sorted(PROFILES):
        calibrated.clear()
        head_counts.clear()
        get_profile(*key).generate("tiny", 0)
        assert len(calibrated) == len(set(calibrated)), key
        assert set(calibrated) == {float(count) for count in head_counts}, key
        total_heads += len(head_counts)
        total_calibrations += len(calibrated)
    # The cache is exercised: many head sites share a size.
    assert total_calibrations < total_heads
