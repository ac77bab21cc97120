"""Saved artifacts: JSON round trips, damaged files end in DataError, and
every writer replaces its file whole or not at all.

Each loader must either return an object or raise ``DataError``: a
truncated file, a missing key or a value of the wrong type never escapes
as a raw ``json``, ``struct``, numpy or ``KeyError`` exception.
"""

import csv
import json
import math
import shutil
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import churnpool.cli as cli
import churnpool.errors as errors
from churnpool.cli import main
from churnpool.conformal import CalibrationResult
from churnpool.data import (_write_csv, generate_hierarchical_population,
                            load_collection, save_collection)
from churnpool.errors import DataError, ValidationError, atomic_write
from churnpool.evaluate import ExperimentReport
from churnpool.gbdt import TreeEnsemble, TreeNode
from churnpool.hier_model import param_names
from churnpool.nuts import PosteriorTrace
from churnpool.shap_prior import PriorSpec

from _runs import save_fitted_trace

_finite = st.floats(allow_nan=False, allow_infinity=False, width=64)
_positive = st.floats(min_value=1e-300, max_value=1e300)
_names = st.lists(st.text(max_size=6), min_size=1, max_size=4, unique=True)
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | _finite | st.text(max_size=5),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=5), inner, max_size=3)),
    max_leaves=6)


def _tree(p):
    leaf = st.builds(lambda v, c: TreeNode(value=v, cover=c), _finite,
                     _positive)

    def split(children):
        return st.builds(
            lambda f, t, g, c, left, right: TreeNode(
                feature_index=f, threshold=t, gain=g, cover=c, left=left,
                right=right),
            st.integers(0, p - 1), _finite, _finite, _positive, children,
            children)

    return st.recursive(leaf, split, max_leaves=8)


@st.composite
def _ensembles(draw):
    names = draw(_names)
    trees = draw(st.lists(_tree(len(names)), max_size=3))
    return TreeEnsemble(draw(_finite), draw(_finite), trees, tuple(names))


@st.composite
def _priors(draw):
    names = draw(_names)
    p = len(names)
    return PriorSpec(tuple(names),
                     np.array(draw(st.lists(_finite, min_size=p, max_size=p))),
                     np.array(draw(st.lists(_positive, min_size=p,
                                            max_size=p))),
                     draw(_finite),
                     draw(st.dictionaries(st.text(max_size=5), _json_values,
                                          max_size=3)))


_calibrations = st.builds(CalibrationResult, _finite, _finite,
                          st.integers(0, 10**6), st.text(max_size=8))

_LOADERS = {
    "model": (_ensembles(), TreeEnsemble.from_json),
    "prior": (_priors(), PriorSpec.from_json),
    "calibration": (_calibrations, CalibrationResult.from_json),
}


def _loads_or_data_error(load, payload):
    try:
        load(payload)
    except DataError:
        pass


@pytest.mark.parametrize("kind", sorted(_LOADERS))
class TestJsonArtifacts:
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_round_trip(self, kind, data):
        strategy, load = _LOADERS[kind]
        text = data.draw(strategy).to_json()
        assert load(text).to_json() == text
        assert load(text.encode("utf-8")).to_json() == text

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_truncation_is_data_error(self, kind, data):
        strategy, load = _LOADERS[kind]
        raw = data.draw(strategy).to_json().encode("utf-8")
        cut = data.draw(st.integers(0, len(raw) - 1))
        with pytest.raises(DataError):
            load(raw[:cut])

    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_wrong_or_missing_field_is_data_error(self, kind, data):
        strategy, load = _LOADERS[kind]
        doc = json.loads(data.draw(strategy).to_json())
        key = data.draw(st.sampled_from(sorted(doc)))
        del doc[key]
        with pytest.raises(DataError):
            load(json.dumps(doc))
        doc[key] = data.draw(_json_values)
        _loads_or_data_error(load, json.dumps(doc))

    @pytest.mark.parametrize("text", ["", "{", "[]", "null", "7", '"x"',
                                      "{}", "\xff",
                                      pytest.param("[" * 100_000,
                                                   id="deep-nesting")])
    def test_not_an_object_is_data_error(self, kind, text):
        with pytest.raises(DataError):
            _LOADERS[kind][1](text)


class TestTreeEnsembleFields:
    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_damaged_node_is_data_error_or_loads(self, data):
        doc = {"init_logodds": 0.0, "learning_rate": 0.1,
               "feature_names": ["a", "b"],
               "trees": [{"feature_index": 1, "threshold": 0.5, "gain": 1.0,
                          "cover": 4.0,
                          "left": {"value": -1.0, "cover": 2.0},
                          "right": {"value": 1.0, "cover": 2.0}}]}
        assert TreeEnsemble.from_json(json.dumps(doc)).trees[0].gain == 1.0
        key = data.draw(st.sampled_from(sorted(doc["trees"][0])))
        doc["trees"][0][key] = data.draw(_json_values)
        _loads_or_data_error(TreeEnsemble.from_json, json.dumps(doc))

    @pytest.mark.parametrize("feature", [2, -1, 1.0, "0"])
    def test_feature_index_out_of_range_or_not_int(self, feature):
        node = {"feature_index": feature, "threshold": 0.0, "gain": 1.0,
                "cover": 2.0, "left": {"value": 0.0, "cover": 1.0},
                "right": {"value": 0.0, "cover": 1.0}}
        doc = {"init_logodds": 0.0, "learning_rate": 0.1,
               "feature_names": ["a", "b"], "trees": [node]}
        with pytest.raises(DataError, match="tree ensemble"):
            TreeEnsemble.from_json(json.dumps(doc))

    def test_missing_key_is_named(self):
        with pytest.raises(DataError, match="KeyError: 'feature_names'"):
            TreeEnsemble.from_json('{"init_logodds": 0.1}')


def _small_trace():
    rng = np.random.default_rng(3)
    return PosteriorTrace(draws=rng.normal(size=(2, 3, 2)),
                          divergent=np.array([[False, True, False],
                                              [False, False, False]]),
                          step_sizes=np.array([0.4, 0.5]),
                          initial_step_sizes=np.array([1.0, 1.0]),
                          mass_diag=np.ones((2, 2)),
                          param_names=("a", "b"), seed=9,
                          config={"chains": 2})


def _container(header, payload):
    blob = json.dumps(header).encode("utf-8")
    return b"CPTRACE1" + struct.pack("<Q", len(blob)) + blob + payload


@pytest.fixture(scope="module")
def calibrate_dir(tmp_path_factory):
    """A run directory whose collection ``calibrate`` reads: 3 entities of
    40 rows with one feature, whose held-out rows give a threshold below
    1."""
    out = tmp_path_factory.mktemp("calibrate")
    assert main(["--out", str(out), "--seed", "11", "gen-data", "--smes",
                 "3", "--n-per", "40", "--features", "1"]) == 0
    return out


def _calibrate(run_dir):
    return main(["--out", str(run_dir), "--force", "calibrate"])


def _accepted_trace(calibrate_dir):
    """Save a three-chain, four-draw trace over one feature and 3 entities
    with its fit record, check that calibrate accepts it, and return
    (path, header, payload)."""
    names = param_names(3, ("x00", "intercept"))
    trace = PosteriorTrace(
        draws=np.zeros((3, 4, len(names))),
        divergent=np.zeros((3, 4), bool), step_sizes=np.full(3, 0.5),
        initial_step_sizes=np.ones(3), mass_diag=np.ones((3, len(names))),
        param_names=names, seed=0)
    path = calibrate_dir / "trace.bin"
    save_fitted_trace(trace, calibrate_dir)
    assert _calibrate(calibrate_dir) == 0
    raw = path.read_bytes()
    (header_len,) = struct.unpack_from("<Q", raw, 8)
    return path, json.loads(raw[16:16 + header_len]), raw[16 + header_len:]


@pytest.fixture(scope="module")
def trace_bytes(tmp_path_factory):
    path = tmp_path_factory.mktemp("trace") / "trace.bin"
    _small_trace().save(path)
    return path.read_bytes()


# The hypothesis tests below rewrite one file under tmp_path per example.
_FILE_SETTINGS = settings(
    max_examples=80, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture])


class TestTraceContainer:
    def test_round_trip(self, trace_bytes, tmp_path):
        path = tmp_path / "trace.bin"
        path.write_bytes(trace_bytes)
        loaded = PosteriorTrace.load(path)
        original = _small_trace()
        np.testing.assert_array_equal(loaded.draws, original.draws)
        np.testing.assert_array_equal(loaded.divergent, original.divergent)
        assert loaded.param_names == ("a", "b")
        loaded.save(tmp_path / "again.bin")
        assert (tmp_path / "again.bin").read_bytes() == trace_bytes

    @given(data=st.data())
    @_FILE_SETTINGS
    def test_truncation_is_data_error(self, trace_bytes, tmp_path, data):
        cut = data.draw(st.integers(0, len(trace_bytes) - 1))
        path = tmp_path / "cut.bin"
        path.write_bytes(trace_bytes[:cut])
        with pytest.raises(DataError):
            PosteriorTrace.load(path)

    def test_trailing_bytes_are_data_error(self, trace_bytes, tmp_path):
        path = tmp_path / "long.bin"
        path.write_bytes(trace_bytes + b"\0" * 8)
        with pytest.raises(DataError, match="payload"):
            PosteriorTrace.load(path)

    @given(data=st.data())
    @_FILE_SETTINGS
    def test_damaged_header_is_data_error_or_loads(self, trace_bytes,
                                                   tmp_path, data):
        (header_len,) = struct.unpack_from("<Q", trace_bytes, 8)
        header = json.loads(trace_bytes[16:16 + header_len])
        payload = trace_bytes[16 + header_len:]
        key = data.draw(st.sampled_from(sorted(header)))
        if data.draw(st.booleans()):
            del header[key]
        else:
            header[key] = data.draw(_json_values)
        path = tmp_path / "damaged.bin"
        path.write_bytes(_container(header, payload))
        _loads_or_data_error(PosteriorTrace.load, path)

    def test_not_a_container_is_data_error(self, tmp_path):
        path = tmp_path / "other.bin"
        path.write_bytes(b"PK\x03\x04")
        with pytest.raises(DataError, match="not a trace container"):
            PosteriorTrace.load(path)

    @pytest.mark.parametrize("key, value", [
        ("divergent_draws", [[-1], [], []]),
        ("divergent_draws", [[0], [], [4]]),
        ("divergent_draws", [[]]),
        ("param_names", ["mu[x00]", "mu[intercept]", "log_sigma"]),
        ("step_sizes", [0.5]),
        ("initial_step_sizes", [1.0, 1.0, 1.0, 1.0]),
        ("mass_diag", [[1.0]]),
    ], ids=["negative-draw", "draw-past-end", "one-list", "names",
            "step-sizes", "initial-step-sizes", "mass-diag"])
    def test_header_disagreeing_with_payload(self, calibrate_dir, key,
                                             value):
        path, header, payload = _accepted_trace(calibrate_dir)
        header[key] = value
        path.write_bytes(_container(header, payload))
        with pytest.raises(DataError):
            PosteriorTrace.load(path)
        assert _calibrate(calibrate_dir) == 4

    @pytest.mark.parametrize("key, bad", [
        (key, bad)
        for key in ("step_sizes", "initial_step_sizes", "mass_diag")
        for bad in (math.nan, math.inf, -math.inf, 0.0, -1.0)
    ] + [("draws", bad) for bad in (math.nan, math.inf, -math.inf)])
    def test_value_out_of_range(self, calibrate_dir, key, bad):
        # Step sizes and mass_diag must be finite and positive, draws finite.
        path, header, payload = _accepted_trace(calibrate_dir)
        if key == "draws":
            payload = struct.pack("<d", bad) + payload[8:]
        elif key == "mass_diag":
            header[key][1][2] = bad
        else:
            header[key][1] = bad
        path.write_bytes(_container(header, payload))
        with pytest.raises(DataError, match="finite"):
            PosteriorTrace.load(path)
        assert _calibrate(calibrate_dir) == 4

    @pytest.mark.parametrize("chains, draws", [(3, 0), (0, 4)],
                             ids=["no-draw", "no-chain"])
    def test_empty_trace_rejected(self, chains, draws):
        with pytest.raises(ValidationError, match="one chain and one draw"):
            PosteriorTrace(draws=np.zeros((chains, draws, 2)),
                           divergent=np.zeros((chains, draws), bool),
                           step_sizes=np.full(chains, 0.5),
                           initial_step_sizes=np.ones(chains),
                           mass_diag=np.ones((chains, 2)),
                           param_names=("a", "b"), seed=0)

    def test_zero_draw_container_is_data_error(self, calibrate_dir):
        # calibrate and predict would index past the end of no draws.
        path, header, _ = _accepted_trace(calibrate_dir)
        header["draws"] = 0
        header["divergent_draws"] = [[], [], []]
        path.write_bytes(_container(header, b""))
        with pytest.raises(DataError, match="one draw"):
            PosteriorTrace.load(path)
        assert _calibrate(calibrate_dir) == 4


@pytest.fixture(scope="module")
def collection_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("collection")
    collection, _ = generate_hierarchical_population(
        p=2, J=3, n_per=10, mu_scale=1.0, sigma_true=0.5, seed=4)
    save_collection(collection, out)
    return out


class TestManifest:
    @given(data=st.data())
    @_FILE_SETTINGS
    def test_truncation_is_data_error(self, collection_dir, tmp_path, data):
        raw = (collection_dir / "manifest.json").read_bytes().rstrip()
        cut = data.draw(st.integers(0, len(raw) - 1))
        path = tmp_path / "manifest.json"
        path.write_bytes(raw[:cut])
        with pytest.raises(DataError):
            load_collection(path)

    @pytest.mark.parametrize("ids,files", [
        ("sme_00", ["sme_00.csv"]),
        (["sme_00", 1], ["sme_00.csv", "sme_01.csv"]),
        (["sme_00", "sme_01"], ["sme_00.csv"]),
        (None, ["sme_00.csv"]),
        # Entries that would read a CSV from outside the collection's
        # directory; "{dir}" is that directory's absolute path.
        (["sme_00"], ["../{name}/sme_00.csv"]),
        (["sme_00"], ["{dir}/sme_00.csv"]),
        (["sme_00"], ["./sme_00.csv"]),
        (["sme_00"], [".."]),
        # Ids that would write an entity's CSV outside a collection's
        # directory when the collection is saved.
        (["../../escaped", "sme_01"], ["sme_00.csv", "sme_01.csv"]),
        (["sub/sme_00"], ["sme_00.csv"]),
        (["{dir}/sme_00"], ["sme_00.csv"]),
        ([""], ["sme_00.csv"]),
        (["."], ["sme_00.csv"]),
        ([".."], ["sme_00.csv"]),
    ])
    def test_damaged_field_is_data_error(self, collection_dir, ids, files):
        files = [f.format(dir=collection_dir, name=collection_dir.name)
                 for f in files]
        if isinstance(ids, list):
            ids = [i.format(dir=collection_dir) if isinstance(i, str) else i
                   for i in ids]
        path = collection_dir / "damaged.json"
        path.write_text(json.dumps({"ids": ids, "files": files}))
        with pytest.raises(DataError):
            load_collection(path)
        path.write_text(json.dumps({"files": files}))
        with pytest.raises(DataError, match="ids"):
            load_collection(path)


@pytest.fixture(scope="module")
def tiny_fit(tmp_path_factory):
    """A converged two-chain fit of 3 entities of 40 rows with one feature,
    its ``calibration.json``, and ``customers.csv``: 10 rows of sme_00."""
    out = tmp_path_factory.mktemp("tiny_fit")
    args = ["--out", str(out), "--seed", "5"]
    assert main([*args, "gen-data", "--smes", "3", "--n-per", "40",
                 "--features", "1"]) == 0
    assert main([*args, "fit", "--weak-prior", "--chains", "2", "--warmup",
                 "1000", "--draws", "1000"]) == 0
    assert main([*args, "calibrate"]) == 0
    with (out / "smes" / "sme_00.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))[:10]
    with (out / "customers.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x00", "source"])
        writer.writerows([row["x00"], row["source"]] for row in rows)
    return out


# Each file that calibrate or predict reads, with the stages that read it,
# and the file each stage writes.
_READ_BY = {
    "trace.bin": ("calibrate", "predict"),
    "calibration.json": ("predict",),
    "smes/manifest.json": ("calibrate", "predict"),
    "smes/sme_00.csv": ("calibrate", "predict"),
    "customers.csv": ("predict",),
}
_WRITES = {"calibrate": "calibration.json", "predict": "predictions.csv"}


def _damage(path, how):
    raw = path.read_bytes()
    if how == "truncated":
        path.write_bytes(raw[:len(raw) // 2])
    elif how == "flipped":
        i = len(raw) // 2
        path.write_bytes(raw[:i] + bytes([raw[i] ^ 0x01]) + raw[i + 1:])
    elif how == "non-utf8":
        # Byte 40 lies in trace.bin's JSON header and in the text of
        # every other file.
        path.write_bytes(raw[:40] + b"\xff" + raw[41:])
    else:
        path.unlink()
        if how == "directory":
            path.mkdir()


def _run_stage(run_dir, stage):
    args = ["--out", str(run_dir), stage]
    if stage == "predict":
        args += ["--customers", str(run_dir / "customers.csv")]
    return main(args)


class TestDamageSweep:
    """``calibrate`` and ``predict`` on a tiny fit whose inputs are damaged
    one at a time: each run exits 2, 3 or 4 with a one-line message and
    writes nothing, or exits 0 and writes its artifact; never a
    traceback."""

    @pytest.mark.parametrize("how", ["truncated", "flipped", "non-utf8",
                                     "missing", "directory"])
    @pytest.mark.parametrize("name, stage", [
        (name, stage) for name, stages in _READ_BY.items()
        for stage in stages])
    def test_damaged_input(self, tiny_fit, tmp_path, capsys, name, stage,
                           how):
        run_dir = tmp_path / "run"
        shutil.copytree(tiny_fit, run_dir)
        written = run_dir / _WRITES[stage]
        written.unlink(missing_ok=True)
        _damage(run_dir / name, how)
        code = _run_stage(run_dir, stage)
        err = capsys.readouterr().err
        assert code in (0, 2, 3, 4)
        assert "Traceback" not in err
        assert written.exists() == (code == 0)
        if code:
            assert len(err.splitlines()) == 1, err
        # The trace records its collection's fingerprint, which calibrate
        # checks, but no artifact carries a checksum yet: a flipped byte
        # in a draw, or in what predict reads, loads silently.  Every
        # other damage here must fail.  On this fit each truncation cuts a
        # JSON document, the trace payload or a CSV row short.
        if how != "flipped" or (stage == "calibrate"
                                and name != "trace.bin"):
            assert code != 0

    def test_repeated_customers_column(self, tiny_fit, tmp_path, capsys):
        run_dir = tmp_path / "run"
        shutil.copytree(tiny_fit, run_dir)
        customers = run_dir / "customers.csv"
        lines = customers.read_text().splitlines()
        customers.write_text("".join(f"{line.split(',')[0]},{line}\n"
                                     for line in lines))
        assert _run_stage(run_dir, "predict") == 4
        assert "more than once" in capsys.readouterr().err
        assert not (run_dir / "predictions.csv").exists()


def _report():
    return ExperimentReport([], {}, {}, {}, {}, [], "fit-once", 0, 0.0)


# Every artifact writer, each writing to ``path``.
_WRITERS = {
    "json": lambda path: cli._write_json(path, {"a": 1}),
    "csv": lambda path: _write_csv(path, ["a"], [[1]]),
    "trace": lambda path: _small_trace().save(path),
    "ensemble": lambda path: TreeEnsemble(
        0.0, 0.1, [TreeNode(value=1.0, cover=1.0)], ("a",)).save(path),
    "prior": lambda path: PriorSpec(("a",), np.zeros(1), np.ones(1), 0.0,
                                    {}).save(path),
    "calibration": lambda path: CalibrationResult(0.5, 0.1, 10,
                                                  "split").save(path),
    "report": lambda path: _report().save(path),
    "manifest": lambda path: save_collection(
        generate_hierarchical_population(p=1, J=2, n_per=10, mu_scale=1.0,
                                         sigma_true=0.1, seed=1)[0],
        path.parent, force=True),
}


class TestAtomicWrites:
    """An artifact is replaced whole or not at all."""

    @pytest.mark.parametrize("kind", sorted(_WRITERS))
    def test_failed_move_keeps_the_old_file(self, kind, tmp_path,
                                            monkeypatch):
        path = tmp_path / "manifest.json"
        path.write_bytes(b"old")

        def refuse(src, dst):
            raise OSError("no space left on device")

        monkeypatch.setattr(errors.os, "replace", refuse)
        with pytest.raises(OSError, match="no space"):
            _WRITERS[kind](path)
        assert path.read_bytes() == b"old"
        assert [p.name for p in tmp_path.iterdir()] == [path.name]
        monkeypatch.undo()
        _WRITERS[kind](path)
        assert path.read_bytes() != b"old"
        assert not list(tmp_path.glob(".*.tmp"))

    def test_writer_that_raises_mid_write_leaves_no_trace(self, tmp_path):
        path = tmp_path / "rows.csv"
        _write_csv(path, ["a"], [[1], [2]])
        before = path.read_bytes()

        def rows():
            yield [3]
            raise ValueError("bad row")

        with pytest.raises(ValueError, match="bad row"):
            _write_csv(path, ["a"], rows())
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    def test_binary_and_text_modes(self, tmp_path):
        with atomic_write(tmp_path / "a.bin", "wb") as fh:
            fh.write(b"\x00\r\n")
        with atomic_write(tmp_path / "a.txt") as fh:
            fh.write("é\n")
        assert (tmp_path / "a.bin").read_bytes() == b"\x00\r\n"
        assert (tmp_path / "a.txt").read_bytes() == "é\n".encode("utf-8")
