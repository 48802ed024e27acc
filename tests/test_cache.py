"""Binary sieve cache: round trip, corruption handling, CLI fallback."""

import argparse
import hashlib
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fraclab
from fraclab import arithmetic, cli
from fraclab.arithmetic import CACHE_MAGIC, InputError

#: the table of the fuzzed cache, and the bytes save_cache writes for it
SIEVED = fraclab.build_tables(1000)
CLEAN = CACHE_MAGIC + struct.pack("<Q", 1000) + SIEVED.mu[1:].tobytes()


def test_round_trip(tmp_path):
    table = fraclab.build_tables(5000)
    path = tmp_path / "sieve.muv"
    fraclab.save_cache(table, path)
    loaded = fraclab.load_cache(path)
    assert loaded.limit == table.limit
    assert np.array_equal(loaded.mu, table.mu)
    assert np.array_equal(np.cumsum(loaded.mu), np.cumsum(table.mu))
    assert fraclab.mertens(loaded, 5000) == fraclab.mertens(table, 5000)
    assert np.array_equal(loaded.mu != 0, table.mu != 0)


def test_file_layout(tmp_path):
    table = fraclab.build_tables(10)
    path = tmp_path / "sieve.muv"
    fraclab.save_cache(table, path)
    raw = path.read_bytes()
    assert raw[:4] == CACHE_MAGIC
    assert struct.unpack("<Q", raw[4:12]) == (10,)
    assert len(raw) == 12 + 10


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.muv"
    path.write_bytes(b"NOPE" + b"\x00" * 20)
    with pytest.raises(ValueError, match="magic"):
        fraclab.load_cache(path)


def test_truncated_body_rejected(tmp_path):
    path = tmp_path / "short.muv"
    path.write_bytes(CACHE_MAGIC + struct.pack("<Q", 100) + b"\x01" * 10)
    with pytest.raises(ValueError, match="truncated"):
        fraclab.load_cache(path)


def test_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "long.muv"
    fraclab.save_cache(fraclab.build_tables(1000), path)
    with open(path, "ab") as fh:
        fh.write(b"\x05\x07garbage")
    for prefix in (None, 10):
        with pytest.raises(ValueError, match="1009 bytes for limit 1000"):
            fraclab.load_cache(path, prefix=prefix)


@pytest.mark.parametrize(
    "limit, digest",
    [
        (10**6, "fc105ecc559c1ed1a00f439b9ade2de0db07c44a7f82bbcc33e97597a410ef6a"),
        (10**7, "318136ee4ddf95c5520e0b3f2d7125c4e8b89b40b6af8576106d883b9ba2d70c"),
    ],
    ids=["1e6", "1e7"],
)
def test_cache_bytes_pinned(tmp_path, limit, digest):
    # the bytes the whole-array sieve wrote, before the sieve ran in blocks
    path = tmp_path / "sieve.muv"
    fraclab.save_cache(fraclab.build_tables(limit), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_out_of_range_values_rejected(tmp_path):
    path = tmp_path / "junk.muv"
    path.write_bytes(CACHE_MAGIC + struct.pack("<Q", 3) + bytes([1, 5, 0]))
    with pytest.raises(ValueError):
        fraclab.load_cache(path)


def test_prefix_read(tmp_path):
    path = tmp_path / "sieve.muv"
    fraclab.save_cache(fraclab.build_tables(5000), path)
    small = fraclab.build_tables(300)
    loaded = fraclab.load_cache(path, prefix=300)
    assert loaded.limit == 300
    assert np.array_equal(loaded.mu, small.mu)
    assert np.array_equal(np.cumsum(loaded.mu), np.cumsum(small.mu))
    assert np.array_equal(loaded.mu != 0, small.mu != 0)
    # a prefix past the cache is refused
    with pytest.raises(ValueError, match="only reaches 5000, not 9000"):
        fraclab.load_cache(path, prefix=9000)
    with pytest.raises(ValueError, match="prefix"):
        fraclab.load_cache(path, prefix=0)


@pytest.mark.parametrize("prefix", [2.5, True, "3", 0, -1, arithmetic.MAX_LIMIT + 1])
def test_prefix_must_be_an_integer_in_range(tmp_path, prefix):
    path = tmp_path / "sieve.muv"
    fraclab.save_cache(fraclab.build_tables(10), path)
    with pytest.raises(InputError, match="cache prefix must be"):
        fraclab.load_cache(path, prefix=prefix)
    table = fraclab.load_cache(path, prefix=np.int64(7))
    assert type(table.limit) is int and table.limit == 7


@pytest.mark.parametrize("size", range(4, 12))
def test_truncated_header_rejected(tmp_path, size):
    path = tmp_path / "short.muv"
    path.write_bytes(CLEAN[:size])
    with pytest.raises(ValueError, match="truncated sieve cache header"):
        fraclab.load_cache(path)


@pytest.mark.parametrize("limit", [0, arithmetic.MAX_LIMIT + 1])
def test_header_limit_out_of_range_rejected(tmp_path, limit):
    path = tmp_path / "limit.muv"
    path.write_bytes(CACHE_MAGIC + struct.pack("<Q", limit) + CLEAN[12:])
    with pytest.raises(ValueError, match=f"sieve cache limit {limit} out of range"):
        fraclab.load_cache(path)


def _mutate(raw, mutation):
    kind, arg = mutation
    if kind == "keep":
        return raw
    if kind == "truncate":
        return raw[:arg]
    if kind == "append":
        return raw + arg
    if kind == "limit":
        return raw[:4] + struct.pack("<Q", arg) + raw[12:]
    at, value = arg
    return raw[: 12 + at] + bytes([value]) + raw[13 + at :]


#: the clean cache, or one change to it of a kind the loader must catch.  A
#: body byte changed to another value in {-1, 0, 1} is left out: nothing in
#: the file tells it from the sieve's own byte, until the cache carries a
#: checksum
MUTATIONS = st.one_of(
    st.tuples(st.just("keep"), st.none()),
    st.tuples(st.just("truncate"), st.integers(0, len(CLEAN) - 1)),
    st.tuples(st.just("append"), st.binary(min_size=1, max_size=16)),
    st.tuples(st.just("limit"), st.one_of(
        st.sampled_from([0, 999, 1001, arithmetic.MAX_LIMIT, arithmetic.MAX_LIMIT + 1]),
        st.integers(0, 2**64 - 1).filter(lambda limit: limit != 1000),
    )),
    st.tuples(st.just("byte"), st.tuples(st.integers(0, 999), st.integers(2, 254))),
)


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "sieve.muv"


@settings(max_examples=300)
@given(mutation=MUTATIONS, prefix=st.integers(1, 1200))
def test_mutated_cache_gives_the_sieved_prefix_or_raises(fuzz_path, mutation, prefix):
    fuzz_path.write_bytes(_mutate(CLEAN, mutation))
    loaded = []
    for read in (None, prefix):
        try:
            table = fraclab.load_cache(fuzz_path, prefix=read)
        except ValueError:  # any other exception fails the test
            continue
        want = SIEVED.limit if read is None else read
        assert table.limit == want
        assert np.array_equal(table.mu, SIEVED.mu[: want + 1])
        loaded.append(read)
    # every change reaches the whole read, so that read refuses it; a prefix
    # read succeeds only within the cache and before a changed byte
    kind, arg = mutation
    whole = [None] if kind == "keep" else []
    reached = (kind == "keep" and prefix <= 1000) or (kind == "byte" and prefix <= arg[0])
    assert loaded == whole + ([prefix] if reached else [])


def test_prefix_read_checks_size_and_read_bytes(tmp_path):
    path = tmp_path / "short.muv"
    path.write_bytes(CACHE_MAGIC + struct.pack("<Q", 100) + b"\x01" * 10)
    with pytest.raises(ValueError, match="truncated"):
        fraclab.load_cache(path, prefix=5)  # the body's length, from the file size
    path.write_bytes(CACHE_MAGIC + struct.pack("<Q", 4) + bytes([1, 255, 0, 7]))
    assert fraclab.load_cache(path, prefix=3).mu.tolist() == [0, 1, -1, 0]
    with pytest.raises(ValueError, match="outside"):
        fraclab.load_cache(path)  # the whole body is read and checked


@pytest.mark.parametrize(
    "args, read",
    [
        (["series", "--n-max", "60"], 60),
        (["figure2", "--n-max", "70"], 70),
        (["sine-series", "--x", "0.25", "--n-max", "80"], 80),
        (["tails", "--cutoffs", "100"], 1000),
    ],
)
def test_cli_reads_only_the_prefix_it_needs(tmp_path, monkeypatch, capsys, args, read):
    path = tmp_path / "sieve.muv"
    fraclab.save_cache(fraclab.build_tables(5000), path)
    limits = []

    def recording_load(*a, **kw):
        table = arithmetic.load_cache(*a, **kw)
        limits.append(table.limit)
        return table

    monkeypatch.setattr(cli, "load_cache", recording_load)
    monkeypatch.setattr(cli, "build_tables", None)  # the cache serves it
    assert cli.main(args + ["--limit", "1000", "--cache", str(path)]) == 0
    capsys.readouterr()
    assert limits == [read]


def test_verify_reads_only_the_table_its_criteria_use(tmp_path, monkeypatch, capsys, table6):
    builds = []

    def recording_build(limit):
        builds.append(limit)
        return arithmetic.build_tables(limit)

    monkeypatch.setattr(cli, "build_tables", recording_build)
    monkeypatch.delenv(cli.CACHE_ENV_VAR, raising=False)
    args = ["verify", "--only", "5", "--limit", "2000000"]
    assert cli.main(args) == 0
    without = capsys.readouterr()
    assert builds == [10**6]  # REQUIRED_LIMIT, not --limit
    # a 10^6 cache is enough: no rebuild, no warning, no re-save
    path = tmp_path / "sieve.muv"
    fraclab.save_cache(table6, path)
    before = path.read_bytes()
    monkeypatch.setattr(cli, "build_tables", None)
    assert cli.main(args + ["--cache", str(path)]) == 0
    assert capsys.readouterr() == without
    assert without.err == ""
    assert path.read_bytes() == before


def test_cli_uses_cache(tmp_path, capsys):
    path = tmp_path / "sieve.muv"
    assert cli.main(["sieve", "--limit", "2000", "--cache", str(path)]) == 0
    assert path.exists()
    first = capsys.readouterr().out
    assert cli.main(["sieve", "--limit", "2000", "--cache", str(path)]) == 0
    assert capsys.readouterr().out == first


def test_cli_corrupt_cache_rebuilds_with_warning(tmp_path, capsys):
    path = tmp_path / "sieve.muv"
    path.write_bytes(b"XXXX" + b"\x00" * 30)
    rc = cli.main(["sieve", "--limit", "1000", "--cache", str(path)])
    captured = capsys.readouterr()
    assert rc == 0
    assert "warning" in captured.err
    assert "mertens,2" in captured.out  # M(1000) = 2 from the rebuilt sieve
    # the repaired cache is valid now
    assert fraclab.load_cache(path).limit == 1000
    # bytes past the body are refused too, and rebuilt over
    with open(path, "ab") as fh:
        fh.write(b"\x05\x07garbage")
    assert cli.main(["sieve", "--limit", "1000", "--cache", str(path)]) == 0
    again = capsys.readouterr()
    assert "warning" in again.err and "1009 bytes for limit 1000" in again.err
    assert again.out == captured.out
    assert path.stat().st_size == 12 + 1000


def test_cli_undersized_cache_rebuilds(tmp_path, capsys):
    small = fraclab.build_tables(50)
    path = tmp_path / "sieve.muv"
    fraclab.save_cache(small, path)
    rc = cli.main(["sieve", "--limit", "500", "--cache", str(path)])
    captured = capsys.readouterr()
    assert rc == 0
    assert "only reaches 50" in captured.err
    assert fraclab.load_cache(path).limit == 500


@pytest.mark.parametrize("cache", ["missing", "short", "bad magic", "unreadable"])
def test_cli_refused_cache_one_warning_then_rebuild(tmp_path, monkeypatch, capsys, cache):
    path = tmp_path / "sieve.muv"
    reason = None  # a missing cache is rebuilt without a warning
    if cache == "short":
        fraclab.save_cache(fraclab.build_tables(50), path)
        reason = f"sieve cache in {path} only reaches 50, not 500"
    elif cache == "bad magic":
        path.write_bytes(b"XXXX" + CLEAN[4:])
        reason = f"bad sieve cache magic b'XXXX' in {path}"
    elif cache == "unreadable":
        path.write_bytes(CLEAN)
        real_open = open

        def no_read(file, mode="r", *args):
            if "r" in mode:
                raise PermissionError(13, "Permission denied", str(file))
            return real_open(file, mode, *args)

        monkeypatch.setattr(arithmetic, "open", no_read, raising=False)
        reason = f"[Errno 13] Permission denied: '{path}'"
    rc = cli.main(["sieve", "--limit", "500", "--cache", str(path)])
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.out == "limit,500\nmertens,-6\nsquarefree_count,306\n"
    warning = f"fraclab: warning: ignoring sieve cache: {reason}; rebuilding to 500\n"
    assert captured.err == ("" if reason is None else warning)
    monkeypatch.undo()
    assert fraclab.load_cache(path).limit == 500


def test_env_var_supplies_cache_path(tmp_path, monkeypatch, capsys):
    env_path = tmp_path / "env.muv"
    monkeypatch.setenv(cli.CACHE_ENV_VAR, str(env_path))
    assert cli.main(["sieve", "--limit", "300"]) == 0
    capsys.readouterr()
    assert env_path.exists()
    # an explicit flag wins over the environment
    flag_path = tmp_path / "flag.muv"
    assert cli.main(["sieve", "--limit", "300", "--cache", str(flag_path)]) == 0
    capsys.readouterr()
    assert flag_path.exists()


def test_cli_larger_cache_cut_to_limit(tmp_path, capsys):
    path = tmp_path / "sieve.muv"
    fraclab.save_cache(fraclab.build_tables(20000), path)
    before = path.read_bytes()
    rc = cli.main(["sieve", "--limit", "1000", "--cache", str(path)])
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.out == "limit,1000\nmertens,2\nsquarefree_count,608\n"
    assert path.read_bytes() == before  # cut in memory, not re-saved


@pytest.mark.parametrize("cache", [None, "fresh", "longer"])
def test_get_table_returns_exactly_the_prefix(tmp_path, cache):
    path = None if cache is None else str(tmp_path / "sieve.muv")
    if cache == "longer":
        fraclab.save_cache(fraclab.build_tables(20000), path)
    args = argparse.Namespace(limit=1000, cache=path)
    table = cli._get_table(args, 100)
    assert table.limit == 100
    assert np.array_equal(table.mu, fraclab.build_tables(100).mu)
    assert not table.mu.flags.writeable


def test_cli_tails_bytes_independent_of_cache(tmp_path, capsys):
    args = ["tails", "--cutoffs", "100,1000,5000", "--limit", "5000"]
    assert cli.main(args) == 0
    without = capsys.readouterr().out
    path = tmp_path / "sieve.muv"
    fraclab.save_cache(fraclab.build_tables(20000), path)
    assert cli.main(args + ["--cache", str(path)]) == 0
    assert capsys.readouterr().out == without


def test_failed_cache_write_keeps_the_old_cache(tmp_path, monkeypatch, capsys):
    path = tmp_path / "sieve.muv"
    fraclab.save_cache(fraclab.build_tables(50), path)
    before = path.read_bytes()
    real_open = open

    class FullDisk:
        """A file whose body write fails, after the header went through."""

        def __init__(self, *args):
            self.fh = real_open(*args)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def __getattr__(self, name):
            return getattr(self.fh, name)

        def write(self, data):
            if len(data) > 12:
                raise OSError(28, "No space left on device")
            return self.fh.write(data)

    monkeypatch.setattr(arithmetic, "open", FullDisk, raising=False)
    rc = cli.main(["sieve", "--limit", "500", "--cache", str(path)])
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.out == "limit,500\nmertens,-6\nsquarefree_count,306\n"
    assert "could not write sieve cache" in captured.err
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sieve.muv"]
