"""Criteo-format ingestion, batching, and the synthetic interaction task.

The on-disk format is the Kaggle Criteo TSV: one instance per line,
tab-separated as  label, M integer/real dense fields, N categorical
tokens, with empty strings for missing values. Gzipped files are handled
transparently by extension. The synthetic generator writes the same
schema, so the whole pipeline downstream of parsing is format-agnostic.

Ingest is chunked and vectorized. Lines are read in text mode, so gzip and
newline translation behave as Python's line iteration does, and are taken
CHUNK_LINES whole lines at a time. Each chunk is encoded to UTF-8 once and
handled by a few numpy passes over its bytes:

- the tab and newline offsets give every field's byte span and check every
  line's field count at once;
- each categorical token becomes a fixed-width big-endian key, one 8-byte
  word for a token of up to 8 bytes and more words for a longer one, whose
  order is the tokens' string order; build_vocab counts the keys with
  np.unique and keeps the frequent ones, in order, as the vocab, and the
  parser maps keys to ids by searchsorted against them;
- dense tokens are parsed in three tiers, each giving float(token)'s bits:
  up to 18 ASCII digits as int64; then [+-]digits[.digits] of up to 19
  digits as a uint64 mantissa w, read 8 digits at a time from the words,
  over 10**q for q fraction digits, rounded once (see _dense_values); and
  every other token (exponents, longer ones, nan, inf, errors) by Python
  float().

The vocab ordering rule is unchanged: ids 1.. in order of (count
descending, token ascending). An error names the 1-based line number of the
first bad line in file order.

Dense normalization is the sign-safe log

    x >= 0  ->  log(1 + x)
    x <  0  -> -log(1 - x)

applied once per chunk at parse time; it is stateless, so no statistic of
any split can leak into another.
"""

from __future__ import annotations

import gzip
import itertools
import json
import math
import re
import zlib
from dataclasses import dataclass

import numpy as np

from .errors import DataError, finite_problems, int_problems, is_int


def stable_sigmoid(z: np.ndarray) -> np.ndarray:
    """Vectorized logistic link, stable in both tails."""
    z = np.asarray(z, dtype=np.float64)
    e = np.exp(-np.abs(z))  # exp(-z) where z >= 0, exp(z) where z < 0: never overflows
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def normalize_dense(x):
    """Sign-safe log transform, elementwise; maps 0 to 0 and preserves order
    and sign (-0.0 stays -0.0)."""
    return np.copysign(np.log1p(np.abs(x)), x)


# ---------------------------------------------------------------------------
# core containers
# ---------------------------------------------------------------------------


class Dataset:
    """In-memory column store: dense (n, M), sparse (n, N), labels (n,)."""

    def __init__(self, dense: np.ndarray, sparse: np.ndarray, labels: np.ndarray):
        dense = np.asarray(dense, dtype=np.float64)
        sparse = np.asarray(sparse, dtype=np.int64)
        labels = np.asarray(labels, dtype=np.float64)
        if not (dense.shape[0] == sparse.shape[0] == labels.shape[0]):
            raise DataError(
                f"column lengths differ: {dense.shape[0]}, {sparse.shape[0]}, "
                f"{labels.shape[0]}")
        self.dense = dense
        self.sparse = sparse
        self.labels = labels

    def __len__(self) -> int:
        return self.dense.shape[0]

    @property
    def n_dense(self) -> int:
        return self.dense.shape[1]

    @property
    def n_sparse(self) -> int:
        return self.sparse.shape[1]

    def subset(self, rows) -> "Dataset":
        """The rows an index array selects (copies) or a slice selects (views)."""
        if not isinstance(rows, slice):
            rows = np.asarray(rows)
        return Dataset(self.dense[rows], self.sparse[rows], self.labels[rows])


# ---------------------------------------------------------------------------
# vocabulary
# ---------------------------------------------------------------------------


#: A high surrogate followed by a low one, which JSON escapes as a pair.
_SURROGATE_PAIR = re.compile("[\ud800-\udbff][\udc00-\udfff]")


class FieldVocab:
    """Per-field vocab: field i maps the token of key keys[i][j] (see _token_keys;
    keys[i] ascends) to ids[i][j], and an unknown or empty token to id 0."""

    def __init__(self, keys: list[np.ndarray], ids: list[np.ndarray]):
        self.keys, self.ids = keys, ids

    @classmethod
    def from_mappings(cls, mappings: list[dict[str, int]]) -> "FieldVocab":
        """The vocab of per-field {token: id} dicts; raises DataError unless
        every id of a field is in 1..(number of its tokens), and no token
        holds a tab."""
        vocab = cls([], [])
        for i, mapping in enumerate(mappings):
            table = _field_table(mapping)
            if table is None:
                for token, idx in mapping.items():  # names the first bad token
                    if type(idx) is not int or not 1 <= idx <= len(mapping):
                        raise DataError(f"vocab field {i}: token {token!r} has id "
                                        f"{idx!r}, not in 1..{len(mapping)}")
                    if "\t" in token:
                        raise DataError(f"vocab field {i}: token {token!r} holds a tab")
            vocab.keys.append(table[0])
            vocab.ids.append(table[1])
        return vocab

    def sizes(self) -> tuple[int, ...]:
        # +1 for the reserved OOV/missing id
        return tuple(len(k) + 1 for k in self.keys)

    def to_json(self) -> str:
        """Raises DataError for a token that holds a high surrogate followed
        by a low one: JSON would read the two back as one character."""
        fields = []
        for i, (keys, ids) in enumerate(zip(self.keys, self.ids)):
            tokens = _key_tokens(keys)
            if _SURROGATE_PAIR.search("\t".join(tokens)):
                token = next(filter(_SURROGATE_PAIR.search, tokens))
                raise DataError(f"vocab field {i}: token {token!r} holds a surrogate "
                                "pair, which JSON reads back as one character")
            fields.append(dict(zip(tokens, ids.tolist())))
        return json.dumps({"fields": fields}, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FieldVocab":
        """Raises DataError unless text is {"fields": [{token: id, ...}, ...]}
        with every id of a field in 1..(number of its tokens), and no tab in a token."""
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise DataError(f"vocab is not JSON: {exc}") from None
        fields = obj.get("fields") if isinstance(obj, dict) else None
        if not isinstance(fields, list) or not all(isinstance(m, dict) for m in fields):
            raise DataError('vocab must be {"fields": [{token: id, ...}, ...]}')
        return cls.from_mappings(fields)

    @classmethod
    def identity(cls, vocab_sizes) -> "FieldVocab":
        """Maps token "c<i>" to id i; "c0" is deliberately absent so it
        falls through to the reserved id 0, as any unknown token does."""
        return cls.from_mappings([{f"c{i}": i for i in range(1, v)} for v in vocab_sizes])


def _field_table(mapping: dict) -> tuple[np.ndarray, np.ndarray] | None:
    """A field's keys in ascending order and their ids, or None unless every
    id is an int in 1..len(mapping) and no token holds a tab: checked for
    the whole field at once."""
    if not set(map(type, mapping.values())) <= {int}:
        return None
    buf = np.frombuffer("\t".join([*mapping, _PAD]).encode("utf-8", "surrogatepass"), np.uint8)
    ends = np.flatnonzero(buf == _TAB)
    if len(ends) != len(mapping):  # a token holds a tab
        return None
    try:
        ids = np.fromiter(mapping.values(), np.int64, len(mapping))
    except OverflowError:  # an int beyond int64 is out of range too
        return None
    if len(ids) and not 1 <= ids.min() <= ids.max() <= len(ids):
        return None
    starts = np.concatenate(([0], ends[:-1] + 1))[:len(ends)]
    keys = _token_keys(_words(buf), starts, ends - starts)
    order = np.argsort(keys)
    return keys[order], ids[order]


def read_lines(path):
    """The lines of a text file, gunzipped if its name ends in .gz; a
    truncated or corrupt gzip stream, or a byte that is not UTF-8, raises
    DataError naming the file."""
    with (gzip.open if str(path).endswith(".gz") else open)(path, "rt", encoding="utf-8") as f:
        try:
            yield from f
        except (EOFError, UnicodeDecodeError, zlib.error) as exc:
            raise DataError(f"cannot read {path}: {exc}") from None


# ---------------------------------------------------------------------------
# chunked tokenizing
# ---------------------------------------------------------------------------

#: Lines per ingest chunk; bounds a pass's working memory whatever the input's length.
CHUNK_LINES = 4096

_TAB, _NL = 9, 10
#: Follows a chunk's last newline, so that a word starts at every offset.
_PAD = "\0" * 8
#: Longest all-digit dense token parsed arithmetically: int64 holds 18 digits.
_MAX_DIGITS = 18
#: Most digits of a decimal dense token parsed arithmetically: uint64 holds 19.
_MAX_DECIMAL = 19
#: Added to a key word, raises each byte by one without a carry (UTF-8 has no
#: 0xFF byte), so a NUL byte inside a token differs from the zero padding.
_ONES = np.uint64(0x0101010101010101)
#: _KEEP[k] keeps the first k bytes (the most significant) of a big-endian word.
_KEEP = np.array([(2 ** 64 - 1) ^ ((1 << (64 - 8 * k)) - 1) for k in range(9)],
                 dtype=np.uint64)


def _words(buf: np.ndarray) -> np.ndarray:
    """The unaligned big-endian 8-byte word at every offset of buf."""
    return np.ndarray((len(buf) - 7,), dtype=">u8", buffer=buf, strides=(1,))


def _token_keys(words: np.ndarray, starts: np.ndarray, lengths: np.ndarray,
                width: int = 0) -> np.ndarray:
    """Keys of `width` words, by default the fewest that hold the longest
    token, of the tokens at starts (byte offsets) with these byte lengths:
    uint64 for width 1, else a void of `width` big-endian words.

    For tokens of up to 8*width bytes, keys are equal exactly when the
    tokens are, and compare as the tokens do (UTF-8 byte order is code
    point order); the empty token's key is 0 and no other token's is.
    """
    width = width or max(1, -(-int(lengths.max(initial=0)) // 8))
    last = len(words) - 1
    cols = [(words[np.minimum(starts + 8 * j, last)] + _ONES)
            & _KEEP[np.clip(lengths - 8 * j, 0, 8)] for j in range(width)]
    if width == 1:
        return cols[0]
    return np.stack(cols, axis=1).astype(">u8").view(f"V{8 * width}").ravel()


def _at_width(keys: np.ndarray, width: int = 0) -> np.ndarray:
    """keys with zero words added or cut to make `width` words, by default
    the fewest that hold every key; order and equality hold while every
    word cut is zero in every key."""
    have = keys.itemsize // 8
    words = keys[:, None] if have == 1 else keys.view(">u8").reshape(len(keys), have)
    width = width or max(1, int(words.any(axis=0).sum()))
    if have == width:
        return keys
    out = np.zeros((len(keys), width), dtype=">u8")
    out[:, :have] = words[:, :width]
    return out[:, 0].astype(np.uint64) if width == 1 else out.view(f"V{8 * width}").ravel()


def _key_tokens(keys: np.ndarray) -> list[str]:
    """The tokens behind keys made by _token_keys."""
    if not len(keys):
        return []
    raw = keys.astype(">u8") if keys.dtype == np.uint64 else keys
    rows = np.frombuffer(raw.tobytes(), np.uint8).reshape(len(keys), -1)
    # a tab (never inside a token) ends each token: its byte, raised by one
    rows = np.concatenate([rows, np.full((len(keys), 1), _TAB + 1, np.uint8)], axis=1)
    text = (rows[rows > 0] - 1).tobytes().decode("utf-8", "surrogatepass")
    return text.split("\t")[:-1]


class _Chunk:
    """Whole lines, encoded once, with the byte span of every field.

    The first n_ok lines have the right field count: field c of line r
    lies between the delimiters at bounds[r, c] and bounds[r, c + 1]. If
    n_ok is short of the line count, count_error describes line n_ok.
    """

    def __init__(self, lines, first: int, n_fields: int):
        """Takes the next CHUNK_LINES lines (fewer at the end) of the
        iterator lines; first is the file index of the first one."""
        batch = list(itertools.islice(lines, CHUNK_LINES))
        self.first, self.n_lines = first, len(batch)
        text = "".join([*batch, _PAD])
        if text.count("\n") != len(batch) or \
                not all(map(str.endswith, batch, itertools.repeat("\n"))):
            # a line without its newline, or with more: strip each one's own
            batch = [line.rstrip("\n") for line in batch]
            text = "\n".join([*batch, _PAD])
        self.buf = np.frombuffer(text.encode("utf-8", "surrogatepass"), np.uint8)
        del text
        self.words = _words(self.buf)
        ends = np.flatnonzero(self.buf == _NL)
        if len(ends) != len(batch):  # a line held a newline of its own
            ends = np.cumsum([len(line.encode("utf-8", "surrogatepass")) + 1
                              for line in batch]) - 1
        del batch  # the lines live on as bytes
        tabs = np.flatnonzero(self.buf == _TAB)
        per_line = np.diff(np.searchsorted(tabs, ends), prepend=0)
        bad = np.flatnonzero(per_line != n_fields - 1)
        n = self.n_ok = int(bad[0]) if len(bad) else self.n_lines
        if len(bad):
            self.count_error = (f"expected {n_fields} tab-separated fields, "
                                f"got {per_line[n] + 1}")
        self.bounds = np.empty((n, n_fields + 1), dtype=np.int64)
        self.bounds[:, 0] = np.concatenate(([-1], ends[:-1]))[:n]
        self.bounds[:, 1:-1] = tabs[:n * (n_fields - 1)].reshape(n, n_fields - 1)
        self.bounds[:, -1] = ends[:n]

    def fail(self, row: int, message: str):
        raise DataError(f"line {self.first + row + 1}: {message}")

    def check_count(self) -> None:
        if self.n_ok < self.n_lines:
            self.fail(self.n_ok, self.count_error)

    def spans(self, start: int, stop: int, rows: int | None = None):
        """Byte starts and lengths of fields start..stop-1 in the first rows
        lines, in row-major order."""
        starts = self.bounds[:rows, start:stop] + 1
        return starts.ravel(), (self.bounds[:rows, start + 1:stop + 1] - starts).ravel()

    def keys(self, col: int, width: int = 0):
        """Keys of field col (width: see _token_keys), and the byte lengths."""
        starts, lengths = self.spans(col, col + 1)
        return _token_keys(self.words, starts, lengths, width), lengths

    def strings(self, starts: np.ndarray, lengths: np.ndarray) -> list[str]:
        """The str of each byte span, in time proportional to their bytes."""
        if not len(starts):
            return []
        # gather each span and the delimiter after it, then decode once
        ends = np.cumsum(lengths + 1)
        picked = self.buf[np.arange(ends[-1]) + np.repeat(starts - ends + lengths + 1,
                                                          lengths + 1)]
        picked[ends - 1] = _TAB  # the only byte no token holds
        return picked.tobytes().decode("utf-8", "surrogatepass").split("\t")[:-1]


def _each_chunk(lines, n_fields: int, parse):
    """Yields parse(chunk) for each _Chunk of CHUNK_LINES lines of lines, an
    iterable of str; a chunk is dropped before the next one is read."""
    lines, first = iter(lines), 0
    while (chunk := _Chunk(lines, first, n_fields)).n_lines:
        first += chunk.n_lines
        yield parse(chunk)
        del chunk


# ---------------------------------------------------------------------------
# vocab building
# ---------------------------------------------------------------------------


class _KeyCounts:
    """Count per token key in one field. Added parts wait until they
    outnumber the merged keys, so merging costs O(n log n) over a file."""

    def __init__(self):
        self.keys = np.zeros(0, dtype=np.uint64)
        self.counts = np.zeros(0, dtype=np.int64)
        self.parts = []
        self.pending = 0

    def add(self, keys: np.ndarray, counts: np.ndarray) -> None:
        self.parts.append((keys, counts))
        self.pending += len(keys)
        if self.pending > len(self.keys):
            self.merge()

    def merge(self) -> tuple[np.ndarray, np.ndarray]:
        """The distinct keys in ascending order and their counts."""
        parts = [(self.keys, self.counts), *self.parts]
        width = max(keys.itemsize // 8 for keys, _ in parts)
        keys = np.concatenate([_at_width(keys, width) for keys, _ in parts])
        self.keys, inverse = np.unique(keys, return_inverse=True)
        counts = np.concatenate([counts for _, counts in parts])
        self.counts = np.bincount(inverse, weights=counts,
                                  minlength=len(self.keys)).astype(np.int64)
        self.parts, self.pending = [], 0
        return self.keys, self.counts


def build_vocab(lines, n_dense: int, n_sparse: int, min_freq: int = 10) -> FieldVocab:
    """One counting pass over raw training lines.

    Tokens seen at least min_freq times get ids 1.. in order of
    (count descending, token ascending); everything else maps to 0.
    """
    fields = [_KeyCounts() for _ in range(n_sparse)]

    def count(chunk: _Chunk) -> None:
        chunk.check_count()
        for i, counts in enumerate(fields):
            keys, lengths = chunk.keys(1 + n_dense + i)
            counts.add(*np.unique(keys[lengths > 0], return_counts=True))

    for _ in _each_chunk(lines, 1 + n_dense + n_sparse, count):
        pass
    vocab = FieldVocab([], [])
    for counts in fields:
        keys, n = counts.merge()
        kept = n >= min_freq
        ids = np.empty(np.count_nonzero(kept), dtype=np.int64)
        # keys ascend, so a stable sort by count keeps ties in token order
        ids[np.argsort(-n[kept], kind="stable")] = np.arange(1, len(ids) + 1)
        # tokens dropped as rare may have made the keys wider than the kept need
        vocab.keys.append(_at_width(keys[kept]))
        vocab.ids.append(ids)
    return vocab


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def _digit_values(buf: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The integer value of each token of 1 to _MAX_DIGITS ASCII digits,
    0 for an empty token and -1 for any other."""
    values = np.where(lengths <= _MAX_DIGITS, 0, -1)
    for j in range(_MAX_DIGITS):
        live = np.flatnonzero((lengths > j) & (values >= 0))
        if not len(live):
            break
        digit = buf[starts[live] + j] - np.uint8(ord("0"))  # other bytes wrap past 9
        values[live] = np.where(digit <= 9, values[live] * 10 + digit, -1)
    return values


def _bytes(byte: int) -> np.uint64:
    """The word with this value in each of its 8 bytes."""
    return np.uint64(byte * 0x0101010101010101)


_LOW7, _TOP, _ZERO_CHARS = _bytes(0x7F), _bytes(0x80), _bytes(ord("0"))
#: _RUN[e] counts the bytes before the first 0x80 flag of flags whose float64
#: has the biased exponent e (2**b has 1023 + b; no flag, 0): 8 where none is.
_RUN = np.full(1087, 8, dtype=np.int64)
_RUN[1086 - 8 * np.arange(8)] = np.arange(8)
#: _ALIGN[k] shifts the first k bytes of a word to its end.
_ALIGN = np.array([0] + [64 - 8 * k for k in range(1, 9)], dtype=np.uint64)
#: Add up 8 digits held one a byte: in pairs, then pairs of pairs; see _digit_runs.
_PAIRS = np.uint64(0x000000FF000000FF)
_FOURS_LOW, _FOURS_HIGH = np.uint64(10 ** 4 + (1 << 32)), np.uint64(10 ** 6 + (100 << 32))
_POW10 = np.array([10 ** k for k in range(_MAX_DECIMAL + 1)], dtype=np.uint64)
#: _SCALES[q] is 10**q and _SCALES[len(_POW10) + q] is -10**q, exact doubles.
_SCALES = np.concatenate([_POW10, -_POW10.astype(np.float64)]).astype(np.float64)
#: A long double of 64 (x87 extended) or 113 (IEEE quad) significant bits
#: holds every uint64 and these powers of ten, so it rounds their quotient once.
_LONG_DOUBLE_EXACT = np.finfo(np.longdouble).nmant in (63, 112)


def _digit_runs(words: np.ndarray, starts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The value and the length of the run of ASCII digits at each start of a
    chunk's buffer, read from its big-endian words 8 bytes at a time: a run
    of more than 24 counts 24, and values hold for runs of up to
    _MAX_DECIMAL digits."""
    value = np.zeros(len(starts), dtype=np.uint64)
    count = np.zeros(len(starts), dtype=np.int64)
    more, last = np.ones(len(starts), dtype=bool), len(words) - 1
    for j in (0, 8, 16):
        x = words[np.minimum(starts + j, last)] ^ _ZERO_CHARS  # a digit's byte is its value
        # 0x80 in each byte above 9, which no digit is; no sum carries between bytes
        flags = (((x & _LOW7) + _bytes(0x80 - 10)) | x) & _TOP
        run = _RUN[flags.astype(np.float64).view(np.int64) >> 52] * more  # exact: 1 bit a byte
        x = (x & _KEEP[run]) >> _ALIGN[run]  # the run's digits, at the end of the word
        # in each 16-bit lane, tens * 10 + units; then, in the upper half of
        # each product, lanes 3 and 1 and lanes 2 and 0 at their powers of ten
        x += (x >> np.uint64(8)) * np.uint64(10)
        x = ((x & _PAIRS) * _FOURS_LOW
             + ((x >> np.uint64(16)) & _PAIRS) * _FOURS_HIGH) >> np.uint64(32)
        value = value * _POW10[run] + x
        count += run
        more &= run == 8
        if not more.any():
            break
    return value, count


def _decimal_values(buf: np.ndarray, words: np.ndarray, starts: np.ndarray,
                    lengths: np.ndarray) -> np.ndarray:
    """float(token) of each token [+-]digits[.digits] of 1 to _MAX_DECIMAL
    digits in all, from w / 10**q rounded once; nan for any other token, and
    where that rounding is not available: see _dense_values."""
    sign = buf[starts]
    signed = (sign == ord("+")) | (sign == ord("-"))
    starts, lengths = starts + signed, lengths - signed
    whole, n_whole = _digit_runs(words, starts)
    point = buf[starts + n_whole] == ord(".")
    fraction, q = _digit_runs(words, starts + n_whole + point)
    n = n_whole + q
    ok = (n + point == lengths) & (n >= 1) & (n <= _MAX_DECIMAL)
    q = np.minimum(q, _MAX_DECIMAL)
    w = whole * _POW10[q] + fraction
    # the token is w / ±10**q, and a division rounds alike on either side of 0
    scale = _SCALES[q + len(_POW10) * (sign == ord("-"))]
    # Clinger's fast path: where w <= 2**53, w and the scale are exact doubles
    values = np.where(ok, w.astype(np.float64) / scale, np.nan)
    wide = np.flatnonzero(ok & (w > 2 ** 53))
    if _LONG_DOUBLE_EXACT:
        r = w[wide].astype(np.longdouble) / scale[wide].astype(np.longdouble)
        near = r.astype(np.float64)
        beside = np.nextafter(near, np.where(r > near, np.inf, -np.inf))
        values[wide] = np.where(2 * r == near.astype(np.longdouble) + beside, np.nan, near)
    else:
        values[wide] = np.nan
    return values


def _dense_values(chunk: _Chunk, rows: int, n_dense: int) -> np.ndarray:
    """Raw dense values (0 where missing) of the first rows lines; raises
    DataError at the first token, in file order, that is no finite number.

    Each value is float(token), bitwise, from the first of three tiers that
    takes its token:

    - a token of 1 to _MAX_DIGITS ASCII digits is an int64, which rounds to
      float64 as float() does;
    - a token [+-]digits[.digits] of 1 to _MAX_DECIMAL digits is the exact
      quotient w / 10**q of its digits w (a uint64) and a power of ten. Where
      w <= 2**53, both are exact doubles, so one float64 division rounds it
      correctly (Clinger's fast path). Otherwise a long double of 64 or more
      significant bits holds w and 10**q exactly and rounds their quotient
      once; rounding that to float64 is correct unless the long double lies
      exactly halfway between two doubles, where rounding twice can differ,
      so such a token is left to the next tier, as is every wide one where
      the long double is narrower;
    - every other token goes through Python float().
    """
    starts, lengths = chunk.spans(1, 1 + n_dense, rows)
    # int64 -> float64 rounds to nearest, as float() does: exact for these
    values = _digit_values(chunk.buf, starts, lengths).astype(np.float64)
    slow = np.flatnonzero(values < 0)
    decimal = _decimal_values(chunk.buf, chunk.words, starts[slow], lengths[slow])
    done = ~np.isnan(decimal)
    values[slow[done]] = decimal[done]
    slow = slow[~done]
    tokens = chunk.strings(starts[slow], lengths[slow])
    try:
        parsed = np.fromiter(map(float, tokens), dtype=np.float64, count=len(tokens))
    except ValueError:
        parsed = None
    if parsed is None or not np.isfinite(parsed).all():
        for k, token in zip(slow.tolist(), tokens):
            row, field = divmod(k, n_dense)
            try:
                raw = float(token)
            except ValueError:
                chunk.fail(row, f"dense field {field}: not a number: {token!r}")
            if not math.isfinite(raw):
                chunk.fail(row, f"dense field {field}: not finite: {token!r}")
    values[slow] = parsed
    return values.reshape(rows, n_dense)


def _parse_chunk(chunk: _Chunk, vocab: FieldVocab, n_dense: int) -> Dataset:
    """The rows of a chunk; raises DataError at its first bad line."""
    starts, lengths = chunk.spans(0, 1)
    label = chunk.buf[starts] - np.uint8(ord("0"))
    bad = np.flatnonzero((lengths != 1) | (label > 1))
    # rows before the first bad label (or field count) parse; within a line,
    # the field count is checked first, then the label, then the dense fields
    rows = int(bad[0]) if len(bad) else chunk.n_ok
    dense = normalize_dense(_dense_values(chunk, rows, n_dense))
    if rows < chunk.n_ok:
        token = chunk.strings(starts[rows:rows + 1], lengths[rows:rows + 1])[0]
        chunk.fail(rows, f"label must be 0 or 1, got {token!r}")
    chunk.check_count()
    sparse = np.zeros((chunk.n_ok, len(vocab.keys)), dtype=np.int64)
    for i, (table, ids) in enumerate(zip(vocab.keys, vocab.ids)):
        if not len(table):
            continue
        width = table.itemsize // 8
        keys, lengths = chunk.keys(1 + n_dense + i, width)
        pos = np.minimum(np.searchsorted(table, keys), len(table) - 1)
        # an empty token is missing whatever a vocab maps it to, and a token
        # longer than the vocab's keys would match its own prefix
        hit = (table[pos] == keys) & (lengths > 0) & (lengths <= 8 * width)
        sparse[:, i] = np.where(hit, ids[pos], 0)
    return Dataset(dense, sparse, label.astype(np.float64))


def parse_chunks(lines, vocab: FieldVocab, n_dense: int, n_sparse: int):
    """The Dataset of each CHUNK_LINES Criteo-format lines of lines (an
    iterable of str), each parsed as it is read; the vocab's field count is
    checked at the call."""
    if len(vocab.keys) != n_sparse:
        raise DataError(f"vocab has {len(vocab.keys)} fields, "
                        f"the data {n_sparse} categorical fields")
    return _each_chunk(lines, 1 + n_dense + n_sparse,
                       lambda chunk: _parse_chunk(chunk, vocab, n_dense))


def parse_lines(lines, vocab: FieldVocab, n_dense: int, n_sparse: int) -> Dataset:
    """Parse Criteo-format lines (an iterable of str) chunk by chunk."""
    parts = [Dataset(np.zeros((0, n_dense)), np.zeros((0, n_sparse), np.int64), np.zeros(0)),
             *parse_chunks(lines, vocab, n_dense, n_sparse)]
    return Dataset(*(np.concatenate([getattr(part, column) for part in parts])
                     for column in ("dense", "sparse", "labels")))


def parse_criteo_line(line: str, vocab: FieldVocab, n_dense: int,
                      n_sparse: int) -> Dataset:
    """One line through the chunk parser, as a one-row Dataset; an error
    names it line 1."""
    return parse_lines([line], vocab, n_dense, n_sparse)


def load_tsv(path, vocab: FieldVocab, n_dense: int, n_sparse: int) -> Dataset:
    ds = parse_lines(read_lines(path), vocab, n_dense, n_sparse)
    if not len(ds):
        raise DataError(f"no instances in {path}")
    return ds


# ---------------------------------------------------------------------------
# batching
# ---------------------------------------------------------------------------


def batch_iter(dataset: Dataset, batch_size: int, seed=0):
    """Yield Dataset slices covering a full permutation of the data.

    The permutation is drawn from default_rng(seed); seed may be an int or
    a sequence of ints (the trainer passes (run_seed, epoch)). The last
    partial batch is yielded, not dropped.
    """
    n = len(dataset)
    if n == 0:
        raise DataError("cannot batch an empty dataset")
    if batch_size < 1:
        raise DataError(f"batch_size must be >= 1, got {batch_size}")
    perm = np.random.default_rng(seed).permutation(n)
    for start in range(0, n, batch_size):
        yield dataset.subset(perm[start:start + batch_size])


# ---------------------------------------------------------------------------
# synthetic interaction task
# ---------------------------------------------------------------------------


@dataclass
class SynthSpec:
    """Logistic generator with one dense x dense and one sparse x sparse cross.

    The score of an instance is

        score = <dense_linear, D> + sum_i effect[i][S_i]
                + dense_cross_coef * D_0 * D_1
                + pair_coef * [S_0 == pair[0] and S_1 == pair[1]]

    with D ~ Uniform[-1, 1]^M, each S_i uniform over its vocab, and
    label ~ Bernoulli(sigmoid(score)). The coefficients defining the task
    (per-category effects N(0, sparse_linear_scale) and, when not given
    explicitly, dense_linear N(0, dense_linear_scale)) are drawn from
    task_seed; seed drives only the instance draws. Regenerating with a
    new seed therefore samples fresh data from the *same* task, and the
    Bayes AUC moves only by sampling noise.

    The two cross terms are the part of the score no linear model can
    represent; the recorded true scores give the Bayes-optimal ranking.
    """

    dense_fields: int = 4
    sparse_fields: int = 4
    vocab_size: int = 4
    n_train: int = 50_000
    n_valid: int = 10_000
    seed: int = 2024
    task_seed: int = 77
    dense_cross_coef: float = 2.0
    pair_coef: float = 1.5
    pair: tuple[int, int] = (1, 2)
    dense_linear: tuple[float, ...] | None = None
    dense_linear_scale: float = 0.7
    sparse_linear_scale: float = 0.4

    def validate(self) -> list[str]:
        """Collect every problem: the task needs at least 2 dense and 2
        sparse fields, a vocab that holds the designated pair, at least one
        train and one valid instance, a seed >= 0, finite cross
        coefficients and one dense_linear coefficient per dense field."""
        problems = int_problems({"dense_fields": self.dense_fields,
                                 "sparse_fields": self.sparse_fields}, low=2) + \
            int_problems({"vocab_size": self.vocab_size, "n_train": self.n_train,
                          "n_valid": self.n_valid}) + int_problems({"seed": self.seed}, low=0) + \
            finite_problems({"dense_cross_coef": self.dense_cross_coef,
                             "pair_coef": self.pair_coef})
        if is_int(self.vocab_size) and not all(0 <= p < self.vocab_size for p in self.pair):
            problems.append(f"vocab_size: {self.vocab_size} does not hold the designated "
                            f"pair {self.pair}")
        if self.dense_linear is not None and len(self.dense_linear) != self.dense_fields:
            problems.append(f"dense_linear: has {len(self.dense_linear)} coefficients "
                            f"for {self.dense_fields} fields")
        return problems


#: Desk-scale default used by `train --synth default` and the acceptance run.
DEFAULT_SYNTH_SPEC = SynthSpec()


@dataclass
class SynthData:
    """Generated instances plus the generating truth.

    raw_dense holds the pre-normalization draws (what the TSV files carry);
    the Dataset accessors apply the standard parse-time normalization so
    in-memory training matches a write-then-reparse round trip.
    """

    spec: SynthSpec
    raw_dense: np.ndarray  # (n, M) uniform draws
    sparse: np.ndarray     # (n, N) ids
    labels: np.ndarray     # (n,)
    scores: np.ndarray     # (n,) true logits

    def _dataset(self, sl: slice) -> Dataset:
        return Dataset(normalize_dense(self.raw_dense[sl]), self.sparse[sl],
                       self.labels[sl])

    def train_dataset(self) -> Dataset:
        return self._dataset(slice(0, self.spec.n_train))

    def valid_dataset(self) -> Dataset:
        return self._dataset(slice(self.spec.n_train, None))

    def vocab(self) -> FieldVocab:
        return FieldVocab.identity([self.spec.vocab_size] * self.spec.sparse_fields)

    def write_tsv(self, train_path, valid_path) -> None:
        """Write both splits in the standard TSV schema (raw dense values)."""
        n_train = self.spec.n_train
        for path, rows in ((train_path, range(0, n_train)),
                           (valid_path, range(n_train, len(self.labels)))):
            with open(path, "w") as f:
                for r in rows:
                    # repr(float) round-trips exactly, so reparsing recovers
                    # the draws bit-for-bit
                    dense = "\t".join(repr(float(v)) for v in self.raw_dense[r])
                    toks = "\t".join(f"c{c}" for c in self.sparse[r])
                    f.write(f"{int(self.labels[r])}\t{dense}\t{toks}\n")


def synth_generate(spec: SynthSpec) -> SynthData:
    """Draw the task coefficients from task_seed, then the data from seed.

    Draw order (fixed for reproducibility): per-category effects and, if
    unspecified, the dense linear coefficients from task_seed; then dense
    values, category ids, and label uniforms from seed. Raises DataError
    listing spec.validate()'s problems for an invalid spec.
    """
    problems = spec.validate()
    if problems:
        raise DataError("; ".join(problems))
    m, n_fields, v = spec.dense_fields, spec.sparse_fields, spec.vocab_size
    n = spec.n_train + spec.n_valid
    task_rng = np.random.default_rng(spec.task_seed)
    effects = task_rng.normal(0.0, spec.sparse_linear_scale, (n_fields, v))
    if spec.dense_linear is None:
        dense_linear = task_rng.normal(0.0, spec.dense_linear_scale, m)
    else:
        dense_linear = np.asarray(spec.dense_linear, dtype=np.float64)
    rng = np.random.default_rng(spec.seed)
    raw_dense = rng.uniform(-1.0, 1.0, (n, m))
    sparse = rng.integers(0, v, (n, n_fields))
    scores = raw_dense @ dense_linear
    for i in range(n_fields):
        scores += effects[i][sparse[:, i]]
    scores += spec.dense_cross_coef * raw_dense[:, 0] * raw_dense[:, 1]
    pair_hit = (sparse[:, 0] == spec.pair[0]) & (sparse[:, 1] == spec.pair[1])
    scores += spec.pair_coef * pair_hit
    labels = (rng.uniform(0.0, 1.0, n) < stable_sigmoid(scores)).astype(np.float64)
    return SynthData(spec, raw_dense, sparse, labels, scores)
