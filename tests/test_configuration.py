"""Sampling, coupling, and serialization of mirror fields."""

import hashlib
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from manhattan_pinball.configuration import (
    _HASH_BLOCK,
    GENERATOR_ID,
    Configuration,
    _hash_blocks,
    closed_bits,
    constant,
    dumps,
    edge_inside_q_mask,
    from_closed_sites,
    hash_key,
    hybrid,
    load,
    loads,
    region_sampler,
    sample,
    save,
    site_sampler,
    stream_base,
    threshold,
    uniforms,
    unit,
)
from manhattan_pinball.enhancement import default_pattern, dumps_pattern, enhance, loads_pattern
from manhattan_pinball.errors import ConfigParseError, ResourceLimitError
from manhattan_pinball.events import (
    dump_witness,
    loads_witness,
    radial_closed_path,
    surrounding_circuit_exact,
)
from manhattan_pinball.geometry import Direction, edge_for_site
from manhattan_pinball.tracer import RayState, dump_trajectory, loads_trajectory, trace


def same_field(x, y):
    return x.extent == y.extent and np.array_equal(x.closed, y.closed)


def vertex_in_q(vertex, k):
    """Q_k membership of a real point, from the paper's inequalities."""
    x, y = vertex
    return abs(x + y - 1) <= k and abs(x - y) <= k


def test_extreme_p():
    c0 = sample(0.0, 6, seed=1)
    c1 = sample(1.0, 6, seed=1)
    assert not c0.closed.any()
    assert c1.closed.all()


def test_density_matches_p():
    p = 0.37
    c = sample(p, 40, seed=5)
    n = c.closed.size
    # four standard errors around the mean
    se = np.sqrt(p * (1 - p) / n)
    assert abs(c.closed.mean() - p) < 4 * se


def test_monotone_coupling_in_p():
    f = uniforms(20, seed=9, stream_index=0)
    lo = threshold(f, 0.3)
    hi = threshold(f, 0.7)
    assert not (lo.closed & ~hi.closed).any()
    assert hi.closed.sum() > lo.closed.sum()


def test_reproducibility_and_stream_independence():
    a = sample(0.5, 15, seed=42, stream_index=3)
    b = sample(0.5, 15, seed=42, stream_index=3)
    c = sample(0.5, 15, seed=42, stream_index=4)
    d = sample(0.5, 15, seed=43, stream_index=3)
    assert same_field(a, b)
    assert not same_field(a, c)
    assert not same_field(a, d)


# sha256 of the uniforms below, computed before the hash was split into the
# shared helpers; every byte must stay
UNIFORMS_DIGEST = "9e4fbc64aa5f33f36cc2c9f40a73168f2f3cf42bb07c29b1ab23839852015f7a"


def test_uniforms_bytes_match_pinned_digest():
    h = hashlib.sha256()
    for M in (1, 2, 7, 66, 267):
        for seed in (0, -1, 2**62, -2**63, 2**63 - 1):
            for i in (0, 7, -3, 2**40, 2**63 - 1):
                f = uniforms(M, seed, i)
                assert f.u.dtype == np.float64 and not f.u.flags.writeable
                h.update(f.u.tobytes())
    assert h.hexdigest() == UNIFORMS_DIGEST


def test_site_by_site_hash_matches_uniforms():
    # the helpers hash single sites of many streams, as the lockstep tracer does
    M, seed = 5, -17
    streams = np.array([0, 3, -2, 2**40])
    a, b = np.meshgrid(np.arange(-M, M + 1), np.arange(-M, M + 1), indexing="ij")
    for k, i in enumerate(streams):
        base = stream_base(seed, streams)[k]
        h = hash_key(hash_key(base, a.astype(np.uint64)), b.astype(np.uint64))
        assert np.array_equal(unit(h), uniforms(M, seed, int(i)).u)


ORACLE_PROBABILITIES = (0.0, 1.0, 0.1 + 0.2, 0.5, np.nextafter(0.5, 0), np.nextafter(0.5, 1),
                        2.0 ** -60, 1 - 2.0 ** -53)


def test_sample_peaks_within_its_field_and_two_hash_blocks():
    # a block hashes in its two uint64 buffers alone: a ufunc that broadcast
    # the row keys against the columns would buffer another 130 KB at M = 267
    M = 267
    W = 2 * M + 1
    sample(0.5, M, 1, 0)  # first-use caches are not the sampler's
    tracemalloc.start()
    try:
        closed = sample(0.5, M, 1, 3).closed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    block = 8 * (_HASH_BLOCK // W) * W
    assert closed.nbytes == W * W
    # the field (or the all-sites mask before it), two hash blocks, the uint64
    # coordinates and row keys, and a few KB
    assert W * W + 2 * block <= peak <= W * W + 2 * block + 16 * W + 16384, peak


def test_raw_hash_rule_matches_thresholded_uniforms():
    # closed iff (h >> 11) < ceil(p 2^53) is the bit u < p of the exact uniform
    rng = np.random.default_rng(3)
    for M in (1, 2, 66, 101):
        W = 2 * M + 1
        part = np.flatnonzero(rng.random(W * W) < 0.3)  # a site subset, drawn alone
        draw_all, draw_part = site_sampler(M, np.arange(W * W)), site_sampler(M, part)
        blocks = _hash_blocks(M, np.ones((W, W), dtype=bool))
        for seed in (0, -1, 2**62, -2**63):
            for i in (0, 7, 2**40):
                f = uniforms(M, seed, i)
                base = stream_base(seed, i)
                for p in ORACLE_PROBABILITIES:
                    want = threshold(f, p).closed
                    for r, c, h in blocks(base):
                        assert np.array_equal(closed_bits(h, p), want[r, c]), (M, seed, i, p)
                    assert np.array_equal(sample(p, M, seed, i).closed, want)
                    assert np.array_equal(draw_all(base, p), want.ravel())
                    assert np.array_equal(draw_part(base, p), want.ravel()[part])
    # raw hashes on both sides of each probability's boundary
    for p in ORACLE_PROBABILITIES:
        edge = int(np.ceil(p * 2.0 ** 53)) << 11
        h = np.array([x for x in (0, edge - 2048, edge - 1, edge, edge + 2047, 2**64 - 1)
                      if 0 <= x < 2**64], dtype=np.uint64)
        assert np.array_equal(closed_bits(h.copy(), p), unit(h.copy()) < p), p


def test_region_sampler_draws_the_masked_sites_as_sample_does():
    rng = np.random.default_rng(8)
    for M in (1, 20, 70, 100):  # 100: two blocks of rows
        W = 2 * M + 1
        K = max(1, min(W, _HASH_BLOCK // W))  # rows per block
        masks = [np.zeros((W, W), dtype=bool), np.ones((W, W), dtype=bool),
                 rng.random((W, W)) < 0.02]
        a = np.abs(np.arange(-M, M + 1))
        masks.append(a[:, None] + a[None, :] <= M // 2)  # a diamond, as verify draws
        for mask in masks:
            draw = region_sampler(M, mask)
            for seed, i, p in ((3, 0, 0.5), (-2**63, 2**40, 0.55), (7, 9, 1.0)):
                want = sample(p, M, seed, i).closed
                out = ~want  # every site the sampler leaves keeps the wrong bit
                assert draw(stream_base(seed, i), p, out) is out
                assert np.array_equal(out[mask], want[mask]), (M, seed, i, p)
                # a block of rows is drawn over the columns its masked sites span
                written = out == want
                for lo in range(0, W, K):
                    cols = np.flatnonzero(mask[lo : lo + K].any(axis=0))
                    span = np.zeros(W, dtype=bool)
                    if len(cols):
                        span[cols[0] : cols[-1] + 1] = True
                    assert np.array_equal(written[lo : lo + K].any(axis=0), span)


@pytest.mark.parametrize("bad", [-2**63 - 1, 2**63, 99999999999999999999999])
def test_seed_and_stream_outside_int64_are_value_errors(bad):
    with pytest.raises(ValueError, match="seed"):
        sample(0.5, 3, seed=bad)
    with pytest.raises(ValueError, match="stream"):
        sample(0.5, 3, seed=1, stream_index=bad)
    with pytest.raises(ValueError, match="seed"):
        uniforms(3, seed=bad, stream_index=0)
    with pytest.raises(ValueError, match="stream"):
        stream_base(1, [0, bad])


def test_seed_and_stream_at_the_int64_bounds_sample():
    for bound in (-2**63, 2**63 - 1):
        assert sample(0.5, 3, seed=bound).closed.shape == (7, 7)
        assert sample(0.5, 3, seed=1, stream_index=bound).closed.shape == (7, 7)
        assert uniforms(3, seed=bound, stream_index=bound).u.shape == (7, 7)


def test_coupling_across_extents():
    # counter-based generation: the same site gets the same uniform whatever
    # the extent, so nested extents agree on the overlap
    small = uniforms(8, seed=7, stream_index=1)
    big = uniforms(20, seed=7, stream_index=1)
    assert np.array_equal(small.u, big.u[12:29, 12:29])


def test_uniform_range_and_spread():
    f = uniforms(30, seed=11, stream_index=0)
    assert f.u.min() >= 0.0 and f.u.max() < 1.0
    assert abs(f.u.mean() - 0.5) < 0.01
    assert f.generator == GENERATOR_ID


def test_roundtrip_with_metadata():
    c = sample(0.41, 9, seed=13, stream_index=2)
    c2 = loads(dumps(c))
    assert same_field(c2, c)
    assert (c2.p, c2.seed, c2.stream_index) == (0.41, 13, 2)
    assert c2.provenance == "sampled"
    assert c2.generator == GENERATOR_ID


def test_save_load_atomic(tmp_path):
    c = sample(0.5, 7, seed=3)
    path = tmp_path / "c.txt"
    save(c, path)
    assert same_field(load(path), c)
    assert not list(tmp_path.glob(".tmp-*"))


def test_parse_errors_carry_line_numbers():
    c = sample(0.5, 3, seed=1)
    text = dumps(c)
    with pytest.raises(ConfigParseError, match="line 1"):
        loads("nonsense\n" + text)
    with pytest.raises(ConfigParseError, match="version"):
        loads(text.replace("configuration v1", "configuration v9"))
    # truncated data rows
    lines = text.splitlines()
    with pytest.raises(ConfigParseError, match="data rows"):
        loads("\n".join(lines[:-2]) + "\n")
    # a row claiming a site outside the extent
    bad = lines[:]
    bad[7] = "9"
    with pytest.raises(ConfigParseError, match=r"outside extent|short"):
        loads("\n".join(bad) + "\n")
    bad[7] = "3 x"
    with pytest.raises(ConfigParseError, match="line 8"):
        loads("\n".join(bad) + "\n")


def test_from_closed_sites_rejects_out_of_extent():
    with pytest.raises(ValueError, match=r"\(5, 0\)"):
        from_closed_sites(4, [(5, 0)])


def test_resource_limit():
    with pytest.raises(ResourceLimitError):
        sample(0.5, 20000, seed=0)
    # 40,001 rows of '40001' would make a valid file of about 240 kB that
    # asks for a 1.6 GB field; loads refuses its header on the extent line
    header = dumps(sample(0.5, 1, seed=1)).splitlines()[:7]
    header[2] = "extent 20000"
    with pytest.raises(ConfigParseError, match="budget") as ei:
        loads("\n".join(header) + "\n")
    assert ei.value.line == 3


def test_hybrid_against_enumeration_oracle():
    M, k = 8, 3
    inner = sample(0.5, M, seed=1)
    outer = sample(0.5, M, seed=2)
    h = hybrid(inner, outer, k)
    for a in range(-M, M + 1):
        for b in range(-M, M + 1):
            v1, v2 = edge_for_site((a, b))
            inside = vertex_in_q(v1, k) and vertex_in_q(v2, k)
            src = inner if inside else outer
            assert h.closed_at((a, b)) == src.closed_at((a, b)), (a, b)
    assert h.provenance == "hybrid"


def test_edge_inside_q_mask_matches_oracle():
    for M, k in ((6, 4), (5, 1), (4, 9)):
        mask = edge_inside_q_mask(M, k)
        for a in range(-M, M + 1):
            for b in range(-M, M + 1):
                v1, v2 = edge_for_site((a, b))
                assert mask[a + M, b + M] == (vertex_in_q(v1, k) and vertex_in_q(v2, k))
        assert not mask.flags.writeable
        assert edge_inside_q_mask(M, k) is mask  # built once per (M, k)


def test_hybrid_requires_matching_extents():
    with pytest.raises(ValueError):
        hybrid(constant(4, True), constant(5, False), 2)


def test_configuration_is_immutable():
    c = sample(0.5, 4, seed=1)
    with pytest.raises(ValueError):
        c.closed[0, 0] = True


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6), st.data())
def test_rle_roundtrip_random_fields(M, data):
    sites = data.draw(
        st.sets(
            st.tuples(st.integers(-M, M), st.integers(-M, M)), max_size=30
        )
    )
    c = from_closed_sites(M, sites)
    assert same_field(loads(dumps(c)), c)


def test_probability_line_must_lie_in_the_unit_interval():
    text = dumps(sample(0.5, 3, seed=1))
    assert "\np 0.5\n" in text
    for bad in ("nan", "inf", "-inf", "5", "-1", "1.0000001"):
        with pytest.raises(ConfigParseError) as ei:
            loads(text.replace("\np 0.5\n", f"\np {bad}\n"))
        assert ei.value.line == 4, bad
    for good, p in (("none", None), ("0", 0.0), ("1", 1.0), ("0.25", 0.25)):
        assert loads(text.replace("\np 0.5\n", f"\np {good}\n")).p == p


_FIELD_LINES = dumps(sample(0.5, 6, seed=1)).splitlines()  # extent 6 covers Acirc at n=2
_CONFIG_TOKENS = st.sampled_from(["0", "1", "2", "3", "7", "-1", "none", "nan", "inf", "0.5",
                                  "x", "extent", "p", "seed", "stream", "", "\t"])


@settings(max_examples=150, deadline=None)
@given(st.one_of(
    st.text(max_size=60),
    st.lists(st.lists(_CONFIG_TOKENS, max_size=4).map(" ".join), max_size=12).map(
        lambda rows: "\n".join(("manhattan-pinball configuration v1", *rows))),
    st.tuples(st.integers(1, 19), st.lists(_CONFIG_TOKENS, max_size=4).map(" ".join)).map(
        lambda edit: "\n".join(_FIELD_LINES[:edit[0]] + [edit[1]] + _FIELD_LINES[edit[0] + 1:])),
))
def test_configuration_loader_and_commands_fuzz(text):
    # every input loads or is a parse error, and commands that read it exit
    # 0, 1 or 2
    from manhattan_pinball.cli import main

    try:
        c = loads(text)
    except ConfigParseError:
        c = None
    if c is not None:
        assert c.p is None or 0 <= c.p <= 1
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "field.txt"
        path.write_text(text)
        for args in (["trace", "--out", str(Path(d) / "t.txt")],
                     ["event", "--event", "Acirc", "--n", "2"]):
            assert main([*args, "--config", str(path)]) in (0, 1, 2)


def _dumps_of_the_four_formats():
    """Dumps of configurations (several extents, all-open and all-closed rows,
    rows that start closed, an enhanced and a hybrid field), trajectories,
    A and Acirc witnesses that hold and that do not, and the default pattern."""
    fields = [sample(0.5, M, seed=1) for M in (1, 2, 5, 12)]
    fields += [sample(0.0, 3, seed=1), sample(1.0, 3, seed=1),
               from_closed_sites(4, [(a, -4) for a in range(-4, 5)] + [(-4, 0), (4, 1), (0, 4)]),
               enhance(sample(0.55, 12, seed=5), default_pattern()),
               hybrid(sample(0.5, 8, seed=1), sample(0.5, 8, seed=2), 3)]
    ring = from_closed_sites(12, [(a, b) for a in range(-12, 13) for b in range(-12, 13)
                                  if max(abs(a + b - 1), abs(a - b)) in (4, 5)])
    walks = [trace(sample(0.5, 8, seed=4)), trace(constant(4, True)), trace(constant(3, False)),
             trace(sample(0.5, 12, seed=7)),
             trace(sample(0.55, 10, seed=2), RayState((1, 2), Direction.S))]
    witnesses = [radial_closed_path(sample(p, 8, seed=4), 6, witness=True) for p in (0.3, 0.7)]
    witnesses += [surrounding_circuit_exact(c, 2, witness=True)
                  for c in (ring, sample(0.5, 12, seed=6))]
    return ([dumps(c) for c in fields] + [dump_trajectory(t) for t in walks]
            + [dump_witness(r) for r in witnesses] + [dumps_pattern(default_pattern())])


# sha256 of the dumps above, computed before the four formats shared one
# header codec and the configuration rows were run-length coded by numpy
FORMATS_DIGEST = "a2071d3e2b0f7e3229b77dfae4a86953adeffc64d135a039d38f4a981752b521"


def test_four_formats_dump_to_pinned_bytes():
    texts = _dumps_of_the_four_formats()
    assert [r.holds for r in (radial_closed_path(sample(p, 8, seed=4), 6) for p in (0.3, 0.7))] \
        == [False, True]
    assert "\n0 9\n" in texts[6] and "\n7\n" in texts[4]  # an all-closed and an all-open row
    assert hashlib.sha256("".join(texts).encode()).hexdigest() == FORMATS_DIGEST


_WITNESS_TEXT = "manhattan-pinball witness v1\nevent A_2\nholds 1\n0.5 0.5\n"


@pytest.mark.parametrize("loader, text, keyed, ordered", [
    (loads, dumps(sample(0.5, 3, seed=1)), range(2, 8), True),
    (loads_trajectory, dump_trajectory(trace(constant(4, True))), range(2, 6), True),
    (loads_witness, _WITNESS_TEXT, (2, 3), True),
    # a pattern's name and red lines may come in any order
    (loads_pattern, dumps_pattern(default_pattern()), (2, 3), False),
], ids=["configuration", "trajectory", "witness", "pattern"])
def test_every_format_names_its_bad_header_line(loader, text, keyed, ordered):
    lines = text.splitlines()
    with pytest.raises(ConfigParseError, match="version") as ei:
        loader("\n".join([lines[0].replace(" v1", " v9"), *lines[1:]]))
    assert ei.value.line == 1
    for lineno in keyed:
        misnamed = lines.copy()
        misnamed[lineno - 1] = "bogus " + lines[lineno - 1].split(None, 1)[1]
        with pytest.raises(ConfigParseError) as ei:
            loader("\n".join(misnamed))
        assert ei.value.line == lineno
        with pytest.raises(ConfigParseError) as ei:
            loader("\n".join(lines[: lineno - 1] + lines[lineno:]))
        assert ei.value.line == (lineno if ordered else None)

