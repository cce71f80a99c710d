"""Sampling, storage, coupling, and serialization of mirror configurations.

A configuration is a dense boolean field over sites (a, b) with |a|, |b| <= M
(True = closed edge = mirror present).  Sampling is counter-based: the
uniform for a site is a pure hash of (seed, stream_index, a, b), so fields
are bit-reproducible for any worker count and remain coupled across p and
across extents, and any subset of a field's sites can be drawn alone, in any
order, with the same bits.  A site is closed iff its uniform is below p,
which ``closed_bits`` decides on the raw hash.  The generator id is recorded
in every serialized output; changing it is a format-breaking change.

Every text file of the package (configuration, trajectory, witness, pattern)
opens with the preamble that ``header_lines`` writes and ``read_header``
checks: the line 'manhattan-pinball <kind> v<N>', then ordered 'key value'
lines.  A configuration file then holds one run-length-encoded row per b;
``loads`` checks the extent against the field budget before it reads a row.
"""

from __future__ import annotations

import math
import os
import tempfile
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigParseError, ResourceLimitError
from .geometry import edge_in_region, site_edges

GENERATOR_ID = "splitmix64-v1"
FORMAT_VERSION = 1

# Dense fields above this byte count are rejected (one byte per site).
MAX_FIELD_BYTES = 1 << 29

# 0-d arrays: ufuncs take them faster than numpy scalars or Python numbers
_GOLDEN, _M1, _M2, _S11, _S27, _S30, _S31, _ZERO = (
    np.array(k, dtype=np.uint64)
    for k in (0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB, 11, 27, 30, 31, 0))
_ULP = np.array(2.0 ** -53)


def _fmix(z, tmp=None):
    """splitmix64 finalizer of the uint64 array ``z``, in place; returns ``z``.

    ``tmp`` is a scratch array of z's shape (allocated when not given).
    Array arithmetic wraps around without a warning, as the hash needs.
    """
    if tmp is None:
        tmp = np.empty_like(z)
    np.bitwise_xor(z, np.right_shift(z, _S30, out=tmp), out=z)
    np.multiply(z, _M1, out=z)
    np.bitwise_xor(z, np.right_shift(z, _S27, out=tmp), out=z)
    np.multiply(z, _M2, out=z)
    np.bitwise_xor(z, np.right_shift(z, _S31, out=tmp), out=z)
    return z


def _as_uint64(x, name="value"):
    """Integers as a new uint64 array with int64 wraparound: -1 becomes 2**64 - 1.
    An integer outside [-2**63, 2**63) raises ValueError naming the ``name``."""
    try:
        return np.array(x, dtype=np.int64).view(np.uint64)
    except OverflowError:
        raise ValueError(f"{name} {x!r} lies outside [-2**63, 2**63)") from None


# The uniform of site (a, b) in sample stream i is
# unit(hash_key(hash_key(stream_base(seed, i), a), b)): the stream's key
# hashes row a into the row's key, and that hashes column b into the site's.


def hash_key(key, x, out=None, tmp=None):
    """fmix(x ^ key) for uint64 arrays, elementwise with broadcasting."""
    return _fmix(np.bitwise_xor(x, key, out=out), tmp)


def stream_base(seed, stream_index):
    """Hash key fmix(i ^ fmix(seed ^ golden)) of each sample stream i in
    ``stream_index`` (uint64, shaped like it)."""
    key = _as_uint64(seed, "seed")
    hash_key(_GOLDEN, key, out=key)
    i = _as_uint64(stream_index, "stream")
    return hash_key(key, i, out=i)


def unit(h, out=None):
    """The top 53 bits of hash ``h`` as a double in [0, 1); shifts ``h`` in place."""
    return np.multiply(np.right_shift(h, _S11, out=h), _ULP, out=out)


def closed_test(p):
    """(ufunc, limit) with ufunc(h, limit) the closed bits of the raw site
    hashes h at probability ``p``: h < ceil(p 2^53) << 11, which holds iff
    (h >> 11) < ceil(p 2^53), so exactly when unit(h) < p, the bit
    ``threshold`` gives, without a float field or a shift; p = 1 (where the
    limit is 2^64) closes every site.  A loop over many hash arrays at one p
    computes the limit once."""
    limit = math.ceil(p * 2.0 ** 53) << 11
    if limit >> 64:
        return np.greater_equal, _ZERO
    return np.less, np.array(limit, dtype=np.uint64)


def closed_bits(h, p, out=None):
    """Closed bits of the raw site hashes ``h`` at probability ``p`` (see
    ``closed_test``)."""
    test, limit = closed_test(p)
    return test(h, limit, out=out)


def site_sampler(M, sites):
    """Draw the flat ``sites`` of extent M alone: returns closed(base, p), their
    bits in the stream keyed base = stream_base(seed, i), equal to
    sample(p, M, seed, i).closed.ravel()[sites], in buffers each call reuses."""
    coords = _as_uint64(np.arange(-M, M + 1))
    row, col = np.divmod(sites, 2 * M + 1)
    col = coords[col]
    keys, h, tmp = np.empty_like(coords), np.empty_like(col), np.empty_like(col)
    bits = np.empty(len(sites), dtype=bool)

    def closed(base, p):
        hash_key(np.take(hash_key(base, coords, out=keys), row, out=h), col, out=h, tmp=tmp)
        return closed_bits(h, p, out=bits)
    return closed


# Sites hashed at a time: a block is _HASH_BLOCK // (2M + 1) rows, over the
# columns its drawn sites span.  Two uint64 buffers of this many sites stay in
# cache: at M = 267, sample() runs 2.9x faster than when it hashes all at once.
_HASH_BLOCK = 1 << 15


def _hash_blocks(M, mask):
    """The raw hashes of the sites of extent M where the (2M+1, 2M+1) bool
    ``mask`` holds, a block at a time: returns blocks(base), which yields
    (row slice, column slice, hashes) in the stream keyed base =
    stream_base(seed, i) for each block of _HASH_BLOCK // (2M+1) rows over
    the columns its masked sites span, in buffers the next block overwrites."""
    W = 2 * M + 1
    coords = _as_uint64(np.arange(-M, M + 1))
    K = max(1, min(W, _HASH_BLOCK // W))
    spans = []
    for lo in range(0, W, K):
        cols = np.flatnonzero(mask[lo : lo + K].any(axis=0))
        if len(cols):
            spans.append((slice(lo, min(lo + K, W)), slice(cols[0], cols[-1] + 1)))
    rows, (h, tmp) = np.empty_like(coords), np.empty((2, K * W), dtype=np.uint64)

    def blocks(base):
        hash_key(base, coords, out=rows)
        for r, c in spans:
            shape = (r.stop - r.start, c.stop - c.start)
            k = shape[0] * shape[1]
            yield r, c, hash_key(rows[r, np.newaxis], coords[c], out=h[:k].reshape(shape),
                                 tmp=tmp[:k].reshape(shape))
    return blocks


def region_sampler(M, mask):
    """Draw the sites of extent M where the (2M+1, 2M+1) bool ``mask`` holds:
    returns closed(base, p, out), which writes into the field ``out`` the bits
    of sample(p, M, seed, i), keyed base = stream_base(seed, i), on each block
    of ``_hash_blocks`` and leaves the rest of ``out`` as it is."""
    blocks = _hash_blocks(M, mask)

    def closed(base, p, out):
        for r, c, h in blocks(base):
            closed_bits(h, p, out=out[r, c])
        return out
    return closed


def _check_extent(M):
    if M < 1:
        raise ValueError("extent M must be >= 1")
    n_bytes = (2 * M + 1) ** 2
    if n_bytes > MAX_FIELD_BYTES:
        raise ResourceLimitError(
            f"extent {M} needs {n_bytes} bytes, over the {MAX_FIELD_BYTES} budget"
        )


@dataclass(frozen=True)
class UniformField:
    """Per-site uniforms in [0, 1), deterministic in (seed, stream_index, site)."""

    extent: int
    u: np.ndarray  # shape (2M+1, 2M+1), u[a+M, b+M]
    seed: int
    stream_index: int
    generator: str = GENERATOR_ID


@dataclass(frozen=True)
class Configuration:
    """A finite mirror field with sampling metadata.

    ``closed[a + M, b + M]`` is True when the edge keyed by site (a, b)
    carries a mirror.
    """

    extent: int
    closed: np.ndarray
    p: float | None = None
    seed: int | None = None
    stream_index: int | None = None
    provenance: str = "explicit"
    generator: str = GENERATOR_ID

    def __post_init__(self):
        M = self.extent
        if self.closed.shape != (2 * M + 1, 2 * M + 1):
            raise ValueError("closed field shape does not match extent")
        self.closed.flags.writeable = False

    def in_extent(self, site) -> bool:
        a, b = site
        return abs(a) <= self.extent and abs(b) <= self.extent

    def closed_at(self, site) -> bool:
        a, b = site
        M = self.extent
        return bool(self.closed[a + M, b + M])


def uniforms(M: int, seed: int, stream_index: int) -> UniformField:
    """Counter-based uniform field over sites |a|, |b| <= M."""
    _check_extent(M)
    W = 2 * M + 1
    u = np.empty((W, W))
    blocks = _hash_blocks(M, np.ones((W, W), dtype=bool))
    for r, c, h in blocks(stream_base(seed, stream_index)):
        unit(h, out=u[r, c])
    u.flags.writeable = False
    return UniformField(extent=M, u=u, seed=seed, stream_index=stream_index)


def check_probability(p: float) -> None:
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")


def threshold(f: UniformField, p: float) -> Configuration:
    """Close exactly the sites with uniform below ``p`` (monotone in p)."""
    check_probability(p)
    return Configuration(
        extent=f.extent,
        closed=f.u < p,
        p=p,
        seed=f.seed,
        stream_index=f.stream_index,
        provenance="sampled",
        generator=f.generator,
    )


def sample(p: float, M: int, seed: int, stream_index: int = 0) -> Configuration:
    """Bernoulli(p) mirror field, each site independent: ``closed_bits`` of the
    raw site hashes, equal to threshold(uniforms(M, seed, stream_index), p)."""
    _check_extent(M)
    check_probability(p)
    W = 2 * M + 1
    closed = region_sampler(M, np.ones((W, W), dtype=bool))(
        stream_base(seed, stream_index), p, np.empty((W, W), dtype=bool))
    return Configuration(extent=M, closed=closed, p=p, seed=seed, stream_index=stream_index,
                         provenance="sampled")


def constant(M: int, value: bool) -> Configuration:
    """All-closed or all-open configuration (provenance 'explicit')."""
    _check_extent(M)
    arr = np.full((2 * M + 1, 2 * M + 1), bool(value))
    return Configuration(extent=M, closed=arr)


def from_closed_sites(M: int, sites) -> Configuration:
    """Explicit configuration with exactly the given sites closed."""
    _check_extent(M)
    arr = np.zeros((2 * M + 1, 2 * M + 1), dtype=bool)
    for a, b in sites:
        if abs(a) > M or abs(b) > M:
            raise ValueError(f"site ({a}, {b}) outside extent {M}")
        arr[a + M, b + M] = True
    return Configuration(extent=M, closed=arr)


@lru_cache(maxsize=8)
def edge_inside_q_mask(M: int, k: int) -> np.ndarray:
    """Mask over sites whose tilted edge has both endpoints in Q_k.

    Cached per (M, k) and read-only.
    """
    mask = edge_in_region("Q", k, *site_edges(M))
    mask.flags.writeable = False
    return mask


def hybrid(inner: Configuration, outer: Configuration, k: int) -> Configuration:
    """Inner values on edges inside Q_k, outer values elsewhere."""
    if inner.extent != outer.extent:
        raise ValueError("hybrid requires matching extents")
    if k < 1:
        raise ValueError("hybrid radius k must be >= 1")
    mask = edge_inside_q_mask(inner.extent, k)
    closed = np.where(mask, inner.closed, outer.closed)
    return Configuration(extent=inner.extent, closed=closed, provenance="hybrid")


# ---------------------------------------------------------------------------
# file format: the preamble, then run-length-encoded rows of the closed field.
# Rows are constant-b lines from b = -M to M; each row scans a = -M..M and is
# encoded as run lengths alternating open/closed, starting with open.
# ---------------------------------------------------------------------------


def _meta_str(v):
    return "none" if v is None else repr(v) if isinstance(v, float) else str(v)


def dumps(c: Configuration) -> str:
    lines = header_lines("configuration", FORMAT_VERSION, {
        "generator": c.generator, "extent": c.extent, "p": _meta_str(c.p),
        "seed": _meta_str(c.seed), "stream": _meta_str(c.stream_index),
        "provenance": c.provenance})
    for row in c.closed.T:
        # a run ends at each change and at the row's end; a closed first
        # site makes a change at 0, the empty open run
        ends = np.flatnonzero(np.diff(row, prepend=False, append=not row[-1]))
        lines.append(" ".join(map(str, np.diff(ends, prepend=0).tolist())))
    return "\n".join(lines) + "\n"


def atomic_write_text(path, text):
    """Write via temp file + rename so readers never see partial output; an
    OSError names ``path``, not the temp file."""
    d = os.path.dirname(os.path.abspath(path))
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-")
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as e:
        raise OSError(e.errno, e.strerror, path) from e
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def header_lines(kind, version, fields):
    """The preamble of a ``kind`` file: the line 'manhattan-pinball <kind>
    v<version>', then a 'key value' line per item of the dict ``fields``."""
    return [f"manhattan-pinball {kind} v{version}", *(f"{k} {v}" for k, v in fields.items())]


def read_header(lines, kind, version, keys):
    """The values of the ``keys`` lines that follow the format line of a
    ``kind`` file at ``version``, in order, as ``header_lines`` writes them;
    raises ConfigParseError on the first line that differs."""
    head, _, found = (lines or [""])[0].rpartition(" v")
    if head != f"manhattan-pinball {kind}":
        raise ConfigParseError(f"missing {kind} header", line=1)
    if found != str(version):
        raise ConfigParseError(f"unsupported {kind} format version {found}", line=1)
    values = []
    for lineno, key in enumerate(keys, start=2):
        parts = lines[lineno - 1].split(None, 1) if lineno <= len(lines) else []
        if len(parts) != 2 or parts[0] != key:
            raise ConfigParseError(f"expected '{key} ...'", line=lineno)
        values.append(parts[1].rstrip())
    return values


def save(c: Configuration, path) -> None:
    atomic_write_text(path, dumps(c))


def _parse_meta(value, kind, lineno):
    if value == "none":
        return None
    try:
        return kind(value)
    except ValueError:
        raise ConfigParseError(f"bad value {value!r}", line=lineno)


def loads(text: str) -> Configuration:
    lines = text.splitlines()
    generator, extent, p_text, seed, stream, provenance = read_header(
        lines, "configuration", FORMAT_VERSION,
        ("generator", "extent", "p", "seed", "stream", "provenance"))
    M = _parse_meta(extent, int, 3)
    if M is None or M < 1:
        raise ConfigParseError("bad extent", line=3)
    try:
        _check_extent(M)
    except ResourceLimitError as e:
        raise ConfigParseError(str(e), line=3) from None
    p = _parse_meta(p_text, float, 4)
    if p is not None and not 0.0 <= p <= 1.0:  # also rejects nan
        raise ConfigParseError(f"p {p_text!r} is not a probability in [0, 1]", line=4)
    n_rows = 2 * M + 1
    if len(lines) != 7 + n_rows:
        raise ConfigParseError(f"expected {n_rows} data rows, found {len(lines) - 7}",
                               line=len(lines))
    closed = np.empty((n_rows, n_rows), dtype=bool)
    for ib in range(n_rows):
        lineno = 8 + ib
        try:
            runs = [int(t) for t in lines[lineno - 1].split()]
        except ValueError:
            raise ConfigParseError("non-integer run length", line=lineno)
        if any(r < 0 for r in runs) or (runs and runs[0] == 0 and len(runs) == 1):
            raise ConfigParseError("bad run length", line=lineno)
        total = sum(runs)
        if total != n_rows:
            raise ConfigParseError(
                f"row covers site ({total - M}, {ib - M}) outside extent {M}" if total > n_rows
                else f"row for b={ib - M} is short ({total} of {n_rows} sites)", line=lineno)
        closed[:, ib] = np.repeat(np.arange(len(runs)) % 2 == 1, runs)
    return Configuration(extent=M, closed=closed, p=p, seed=_parse_meta(seed, int, 5),
                         stream_index=_parse_meta(stream, int, 6), provenance=provenance,
                         generator=generator)


def load(path) -> Configuration:
    with open(path) as fh:
        return loads(fh.read())
