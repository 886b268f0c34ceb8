"""Tests for the unified experiment API: spec round-trips, registry
validation, grid expansion and execution, and the ``repro run`` CLI.

The load-bearing claims:

* ``ExperimentSpec`` JSON round-trips *exactly* (spec -> json -> spec
  equality, every field);
* grid execution is bit-identical pooled vs inline and cell-for-cell
  equal to a direct ``spec.run()``;
* registry lookups fail at spec construction with a ``ValueError``
  subclass naming the bad value and the valid choices — never a
  ``KeyError`` inside a worker;
* malformed ``repro run`` input exits 1 with an ``error:`` line, never
  a traceback.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.errors import ParameterError, ReproError
from repro.experiments import (
    CONTROLLERS,
    ENGINES,
    PATTERNS,
    SOURCES,
    ExperimentGrid,
    ExperimentSpec,
    Registry,
    parse_run_payload,
    run_grid,
)


# ---------------------------------------------------------------------------
# the Registry primitive
# ---------------------------------------------------------------------------

class TestRegistry:
    def test_register_lookup_and_order(self):
        reg = Registry("widget")
        reg.register("a")(1)
        reg.register("b")(2)
        assert reg.names() == ("a", "b")
        assert reg.get("b") == 2
        assert "a" in reg and "c" not in reg
        assert len(reg) == 2 and list(reg) == ["a", "b"]

    def test_unknown_name_is_valueerror_naming_choices(self):
        reg = Registry("widget")
        reg.register("a")(1)
        with pytest.raises(ParameterError, match="unknown widget 'z'.*a"):
            reg.get("z")
        with pytest.raises(ValueError):
            reg.validate("z")

    def test_duplicate_registration_rejected(self):
        reg = Registry("widget")
        reg.register("a")(1)
        with pytest.raises(ParameterError, match="already registered"):
            reg.register("a")(2)

    def test_live_registries_contents(self):
        assert set(ENGINES.names()) == {"object", "batch", "sharded"}
        assert set(CONTROLLERS.names()) == {"reconfig", "detour"}
        # the detour baseline has one routing path, not a registry
        assert ExperimentSpec(m=2, h=4).route_mode == "table"
        assert {"poisson", "onoff", "deterministic"} <= set(SOURCES.names())
        assert {"uniform", "hotspot", "descend"} <= set(PATTERNS.names())


# ---------------------------------------------------------------------------
# spec validation: registry names fail at construction time
# ---------------------------------------------------------------------------

class TestSpecValidation:
    @pytest.mark.parametrize("field,bad,choices_hint", [
        ("pattern", "rnig", "uniform"),
        ("controller", "psychic", "reconfig"),
        ("engine", "warp", "object"),
        ("route_mode", "teleport", "table"),
        ("source", "firehose", "poisson"),
    ])
    def test_unknown_names_raise_early_naming_choices(
        self, field, bad, choices_hint
    ):
        with pytest.raises(ParameterError, match=f"{bad!r}.*{choices_hint}"):
            ExperimentSpec(m=2, h=4, **{field: bad})

    def test_removed_bfs_route_mode_rejected(self):
        with pytest.raises(ParameterError, match="'bfs' was removed.*table"):
            ExperimentSpec(m=2, h=5, controller="detour", route_mode="bfs")
        with pytest.raises(ParameterError, match="'bfs' was removed"):
            ExperimentGrid(mhk=[(2, 4, 1)], route_mode="bfs")

    @pytest.mark.parametrize("fields,match", [
        ({"m": 1}, "base m must be >= 2"),
        ({"m": -2}, "base m must be >= 2"),
        ({"h": 0}, "h must be >= 3"),
        ({"h": 1}, "h must be >= 3"),
        ({"h": 2}, "h must be >= 3"),
        ({"h": 0, "controller": "detour"}, "h must be >= 1"),
        ({"h": 63, "controller": "detour"}, "2\\*\\*63"),
        ({"k": -1}, "k must be >= 0"),
        ({"packets": -5}, "packets must be >= 1"),
        ({"packets": 0}, "packets must be >= 1"),
        ({"seed": -1}, "seed must be >= 0"),
        ({"link_capacity": 0}, "link_capacity must be >= 1"),
        ({"max_cycles": 0}, "max_cycles must be >= 1"),
        ({"cycles_per_batch": -1}, "cycles_per_batch must be >= 0"),
        ({"loop": "stream", "window": -3}, "window must be >= 0"),
        ({"loop": "stream", "rate": float("inf")}, "rate must be finite"),
        ({"loop": "stream", "source": "onoff", "mean_on": 0}, "mean_on > 0"),
        ({"loop": "stream", "source": "onoff", "mean_off": 0}, "mean_off > 0"),
        ({"fault_model": {"name": "fixed", "faults": [[0, 99999]]}},
         "fault node 99999 .* \\[0, 17\\)"),
        ({"controller": "detour",
          "fault_model": {"name": "fixed", "faults": [[0, 16]]}},
         "fault node 16 .* \\[0, 16\\)"),
        ({"controller": "detour",
          "fault_model": {"name": "fixed", "faults": [[0, 3]],
                          "repairs": [[5, 20]]}},
         "fault node 20"),
        ({"faults": ((0, -1),)}, "fault node -1"),
    ])
    def test_out_of_range_fields_rejected(self, fields, match):
        """Bounds are checked at construction, so a spec bound to fail
        never reaches a worker."""
        kwargs = {"m": 2, "h": 4, "k": 1, "cycles": 300, "warmup": 50}
        with pytest.raises(ParameterError, match=match):
            ExperimentSpec(**{**kwargs, **fields})

    def test_in_range_edges_accepted(self):
        # a spare is a physical node of the reconfig machine
        ExperimentSpec(m=2, h=4, k=1,
                       fault_model={"name": "fixed", "faults": [[0, 16]]})
        # the bare detour graph exists for any h >= 1
        ExperimentSpec(m=2, h=1, controller="detour")
        ExperimentSpec(m=2, h=4, k=0, seed=0, window=0)

    def test_registry_errors_are_valueerrors(self):
        with pytest.raises(ValueError):
            ExperimentSpec(m=2, h=4, pattern="nope")

    def test_loop_kind_validated(self):
        with pytest.raises(ParameterError, match="loop"):
            ExperimentSpec(m=2, h=4, loop="moebius")

    def test_sharded_engine_not_a_cell_choice(self):
        with pytest.raises(ParameterError, match="'object' or 'batch'"):
            ExperimentSpec(m=2, h=4, engine="sharded")

    def test_spare_budget_checked(self):
        with pytest.raises(ParameterError, match="spares"):
            ExperimentSpec(m=2, h=4, k=1, faults=((0, 1), (0, 2)))

    def test_closed_loop_constraints(self):
        with pytest.raises(ParameterError, match="detour"):
            ExperimentSpec(m=2, h=4, controller="detour", cycles_per_batch=3)
        with pytest.raises(ParameterError, match="shards"):
            ExperimentSpec(m=2, h=4, shards=3, batches=2)
        with pytest.raises(ParameterError, match="cycle 0"):
            ExperimentSpec(m=2, h=4, shards=2, batches=2, faults=((4, 1),))

    def test_stream_constraints(self):
        with pytest.raises(ParameterError, match="rate"):
            ExperimentSpec(m=2, h=4, loop="stream", rate=0)
        with pytest.raises(ParameterError, match="warmup"):
            ExperimentSpec(m=2, h=4, loop="stream", warmup=50, cycles=50)
        with pytest.raises(ParameterError, match="shard"):
            ExperimentSpec(m=2, h=4, loop="stream", shards=2, batches=2)

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ParameterError, match="nope"):
            ExperimentSpec.from_dict({"m": 2, "h": 4, "nope": 1})


# ---------------------------------------------------------------------------
# the front door under fuzz: return or raise ReproError, nothing else
# ---------------------------------------------------------------------------

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=6),
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.text(max_size=6), kids, max_size=3),
    max_leaves=8,
)
_SPEC_FIELDS = st.dictionaries(
    st.sampled_from([f.name for f in dataclasses.fields(ExperimentSpec)]),
    _JSON, max_size=5,
)
_GRID_FIELDS = st.dictionaries(
    st.sampled_from([f.name for f in dataclasses.fields(ExperimentGrid)]),
    _JSON, max_size=5,
)
_PAYLOADS = st.one_of(
    _JSON,
    _SPEC_FIELDS,
    # a valid base with fuzzed fields on top reaches the deeper checks
    _SPEC_FIELDS.map(lambda d: {"m": 2, "h": 4, **d}),
    st.one_of(_JSON, _SPEC_FIELDS).map(lambda d: {"experiment": d}),
    st.one_of(_JSON, _GRID_FIELDS,
              _GRID_FIELDS.map(lambda d: {"mhk": [[2, 4, 1]], **d}))
    .map(lambda d: {"grid": d}),
)


class TestParseRunPayloadFuzz:
    """The service maps :class:`~repro.errors.ReproError` to a 400, so
    anything else escaping :func:`parse_run_payload` is a 500."""

    @staticmethod
    def _parse(payload):
        try:
            parse_run_payload(payload, origin="fuzz")
        except ReproError:
            pass

    # the deprecated literal `faults` key warns on the way in; that is
    # incidental here, not the behaviour under test
    @pytest.mark.filterwarnings("ignore::DeprecationWarning")
    @settings(max_examples=300, deadline=None)
    @given(payload=_PAYLOADS)
    def test_returns_or_raises_repro_error(self, payload):
        self._parse(payload)

    @pytest.mark.parametrize("payload", [
        # int(inf) is an OverflowError, not a ValueError
        {"m": 2, "h": float("inf")},
        {"grid": {"mhk": [[2, 4, 1]], "seeds": [float("-inf")]}},
        # a machine too large to address must not be computed
        {"m": 2, "h": 10**12, "controller": "detour"},
        {"m": 10**30, "h": 62, "controller": "detour"},
        # a non-object under the wrapper (an AttributeError before)
        {"experiment": []},
        {"experiment": None},
        {"grid": [1, 2]},
    ])
    def test_found_escapes_are_repro_errors(self, payload):
        with pytest.raises(ReproError):
            parse_run_payload(payload, origin="fuzz")


# ---------------------------------------------------------------------------
# exact JSON round-trip
# ---------------------------------------------------------------------------

class TestJsonRoundTrip:
    def test_default_spec(self):
        spec = ExperimentSpec(m=2, h=5)
        assert ExperimentSpec.from_json(spec.to_json()) == spec

    @settings(max_examples=60, deadline=None)
    @given(
        loop=st.sampled_from(["closed", "stream"]),
        controller=st.sampled_from(["reconfig", "detour"]),
        engine=st.sampled_from(["object", "batch"]),
        source=st.sampled_from(["poisson", "onoff", "deterministic"]),
        pattern=st.sampled_from(["uniform", "hotspot", "descend"]),
        k=st.integers(min_value=2, max_value=4),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        packets=st.integers(min_value=1, max_value=10**6),
        rate=st.floats(min_value=0.001, max_value=1e4,
                       allow_nan=False, allow_infinity=False),
        n_faults=st.integers(min_value=0, max_value=2),
        link_capacity=st.integers(min_value=1, max_value=4),
    )
    def test_round_trip_property(self, loop, controller, engine,
                                 source, pattern, k, seed, packets, rate,
                                 n_faults, link_capacity):
        """spec -> to_json -> from_json is the identity, exactly —
        ints stay ints, floats round-trip bit-for-bit."""
        faults = tuple((7 * i, 3 + i) for i in range(n_faults))
        spec = ExperimentSpec(
            m=2, h=5, k=k, loop=loop, pattern=pattern,
            controller=controller, engine=engine,
            faults=faults, seed=seed, link_capacity=link_capacity,
            packets=packets, source=source, rate=rate,
        )
        # the serialized `faults` key is deprecated in favor of the
        # bit-identical fixed fault model, and says so
        warns = (pytest.warns(DeprecationWarning, match="fault_model")
                 if faults else contextlib.nullcontext())
        with warns:
            back = ExperimentSpec.from_json(spec.to_json())
        assert back == spec
        assert back.rate == spec.rate  # float equality, not approx
        # and the dict form is genuinely JSON-typed
        assert json.loads(spec.to_json())["faults"] == [list(f) for f in faults]

    def test_grid_round_trip(self):
        grid = ExperimentGrid(
            mhk=[(2, 4, 1), (2, 5, 2)], loop="stream",
            rates=[0.5, 2.0], fault_sets=[(), ((0, 3),)],
            seeds=[0, 1], cycles=300, warmup=50,
        )
        assert ExperimentGrid.from_json(grid.to_json()) == grid

    def test_grid_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ParameterError, match="pattern"):
            ExperimentGrid.from_dict({"mhk": [[2, 4, 1]], "pattern": "x"})


# ---------------------------------------------------------------------------
# grid expansion
# ---------------------------------------------------------------------------

class TestExperimentGrid:
    def test_closed_expansion_order_and_size(self):
        grid = ExperimentGrid(
            mhk=[(2, 4, 1), (2, 5, 1)], patterns=["uniform", "hotspot"],
            loads=[10, 20], fault_sets=[(), ((0, 1),)], seeds=[0, 1, 2],
        )
        cells = grid.expand()
        assert len(cells) == len(grid) == 2 * 2 * 2 * 2 * 3
        assert [c.seed for c in cells[:3]] == [0, 1, 2]
        assert cells[0].h == 4 and cells[-1].h == 5
        assert all(c.loop == "closed" for c in cells)

    def test_stream_grid_sweeps_rates(self):
        grid = ExperimentGrid(
            mhk=[(2, 4, 1)], loop="stream", rates=[1.0, 4.0],
            fault_sets=[(), ((0, 3),)], cycles=200, warmup=20,
        )
        cells = grid.expand()
        # rates are the third axis: fault sets and seeds vary faster
        assert [c.rate for c in cells] == [1.0, 1.0, 4.0, 4.0]
        assert all(c.loop == "stream" for c in cells)

    def test_stream_grid_requires_rates(self):
        with pytest.raises(ParameterError, match="rate"):
            ExperimentGrid(mhk=[(2, 4, 1)], loop="stream")

    def test_closed_grid_rejects_rates(self):
        with pytest.raises(ParameterError, match="stream"):
            ExperimentGrid(mhk=[(2, 4, 1)], rates=[1.0])

    def test_bad_cell_fails_at_grid_construction(self):
        """Expansion validates every cell up front — a bad name cannot
        survive to a worker process."""
        with pytest.raises(ParameterError, match="rnig"):
            ExperimentGrid(mhk=[(2, 4, 1)], patterns=["rnig"])


# ---------------------------------------------------------------------------
# grid execution (bit-identical stats)
# ---------------------------------------------------------------------------

class TestLegacyEquivalence:
    def test_load_sweep_rejects_closed_spec(self):
        """The rate-ladder entry point needs a stream spec."""
        from repro.simulator.streaming import find_saturation

        with pytest.raises(ParameterError, match="stream"):
            find_saturation(ExperimentSpec(m=2, h=4), [1.0], workers=0)

    def test_saturation_surface_as_one_sharded_sweep(self):
        """The headline: rate x size x faults through run_grid, pooled
        vs inline bit-identical, and each point equal to a direct
        spec.run()."""
        grid = ExperimentGrid(
            mhk=[(2, 4, 1), (2, 5, 1)], loop="stream",
            rates=[1.0, 16.0], fault_sets=[(), ((0, 5),)],
            cycles=150, warmup=30,
        )
        pooled = run_grid(grid, workers=2)
        inline = run_grid(grid, workers=0)
        assert len(pooled.results) == 8
        for a, b in zip(pooled.results, inline.results):
            assert a.stats == b.stats
        # spot-check one cell against a direct run
        cell = grid.expand()[5]
        assert pooled.results[5].stats == cell.run().stats
        # high-rate cells saturate, low-rate cells do not
        rows = pooled.rows()
        assert any(r["delivery_ratio"] < 0.9 for r in rows)
        assert any(r["delivery_ratio"] > 0.9 for r in rows)

    def test_per_batch_sharding_still_exact(self):
        from dataclasses import replace

        spec = ExperimentSpec(m=2, h=5, k=1, packets=600, batches=4,
                             shards=4, seed=2)
        sharded = run_grid([spec], workers=2).results[0].run_stats
        single = run_grid([replace(spec, shards=1)],
                          workers=0).results[0].run_stats
        assert sharded == single

    def test_mixed_loop_grid_runs(self):
        closed = ExperimentSpec(m=2, h=4, packets=100)
        stream = ExperimentSpec(m=2, h=4, loop="stream", rate=1.0,
                                cycles=100, warmup=10)
        res = run_grid([closed, stream], workers=0)
        assert res.results[0].run_stats.injected == 100
        assert res.results[1].stats.offered > 0
        # aggregate covers only the closed cell
        assert res.aggregate_stats.injected == 100


# ---------------------------------------------------------------------------
# the `repro run` CLI
# ---------------------------------------------------------------------------

class TestRunCli:
    def _write(self, tmp_path, payload, name="spec.json"):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    def test_closed_spec(self, capsys, tmp_path):
        spec = self._write(tmp_path, {"m": 2, "h": 4, "packets": 120,
                                      "faults": [[0, 3]]})
        out = tmp_path / "out.json"
        with pytest.warns(DeprecationWarning, match="fault_model"):
            assert main(["run", spec, "--workers", "0",
                         "--json", str(out)]) == 0
        text = capsys.readouterr().out
        assert "aggregate over 1 closed-loop cell(s)" in text
        payload = json.loads(out.read_text())
        assert payload["kind"] == "experiment"
        assert payload["aggregate"]["injected"] == 120
        assert payload["rows"][0]["scenario"].endswith("1flt")

    def test_stream_spec_with_rates_ladder(self, capsys, tmp_path):
        spec = self._write(tmp_path, {"experiment": {
            "m": 2, "h": 4, "loop": "stream", "cycles": 200, "warmup": 40,
        }})
        out = tmp_path / "sat.json"
        assert main(["run", spec, "--rates", "1,16", "--bisect", "1",
                     "--workers", "0", "--json", str(out)]) == 0
        text = capsys.readouterr().out
        assert "offered-load ladder" in text and "saturation" in text
        payload = json.loads(out.read_text())
        assert payload["bracketed"] is True
        assert len(payload["points"]) == 3  # 2 rungs + 1 bisection probe

    def test_grid_surface(self, capsys, tmp_path):
        spec = self._write(tmp_path, {"grid": {
            "mhk": [[2, 4, 1]], "loop": "stream", "rates": [1.0, 16.0],
            "fault_sets": [[], [[0, 5]]], "cycles": 150, "warmup": 30,
        }})
        out = tmp_path / "surface.json"
        assert main(["run", spec, "--workers", "0", "--check-single",
                     "--json", str(out)]) == 0
        text = capsys.readouterr().out
        assert "experiment grid: 4 cells (loop=stream)" in text
        assert "identical stats: True" in text
        payload = json.loads(out.read_text())
        assert payload["kind"] == "grid"
        assert len(payload["rows"]) == 4
        assert {"rate", "delivery_ratio", "scenario"} <= set(payload["rows"][0])

    def test_rates_on_closed_spec_rejected(self, capsys, tmp_path):
        spec = self._write(tmp_path, {"m": 2, "h": 4})
        assert main(["run", spec, "--rates", "1,2"]) == 2
        assert "--rates" in capsys.readouterr().err

    def test_bad_field_name_fails_fast(self, capsys, tmp_path):
        spec = self._write(tmp_path, {"m": 2, "h": 4, "patern": "uniform"})
        assert main(["run", spec]) == 1
        assert "patern" in capsys.readouterr().err

    @pytest.mark.parametrize("payload", [
        {"m": "x", "h": 4},
        {"m": 2, "h": 4, "rate": None},
        {"experiment": {"m": 2, "h": 4, "packets": [10]}},
        {"grid": {"mhk": [[2, 4]]}},
        {"grid": {"mhk": [[2, 4, 1]], "seeds": None}},
    ])
    def test_wrong_typed_field_is_an_error_not_a_traceback(
        self, capsys, tmp_path, payload
    ):
        """Field values of the wrong type reach the dataclass
        conversions as TypeError/ValueError; the front door reports
        them as ParameterError naming the file."""
        spec = self._write(tmp_path, payload)
        assert main(["run", spec, "--workers", "0"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and spec in err
        assert "Traceback" not in err

    def test_bad_backend_name_fails_fast(self, capsys, tmp_path):
        spec = self._write(tmp_path, {"m": 2, "h": 4, "engine": "warp"})
        assert main(["run", spec]) == 1
        err = capsys.readouterr().err
        assert "warp" in err and "object" in err

    def test_wrapper_form_rejects_sibling_keys(self, capsys, tmp_path):
        """Fields misplaced next to the {"grid"/"experiment": ...}
        wrapper must error, not silently fall back to defaults."""
        spec = self._write(tmp_path, {"grid": {"mhk": [[2, 4, 1]]},
                                      "seeds": [0, 1, 2]})
        assert main(["run", spec]) == 1
        assert "seeds" in capsys.readouterr().err

    def test_registered_pattern_reaches_cli_choices(self, capsys):
        """The documented extension recipe end-to-end: a pattern
        registered after import is accepted by spec validation AND by
        the CLI's live choices= lists."""
        from repro.simulator.traffic import PATTERNS

        if "test-ring" not in PATTERNS:
            @PATTERNS.register("test-ring")
            def _ring(n, msgs, rng):
                ids = np.arange(n, dtype=np.int64)
                base = np.column_stack([ids, (ids + 1) % n])
                reps = -(-msgs // n) if msgs > 0 else 1
                return np.tile(base, (reps, 1))[: msgs or n]

        spec = ExperimentSpec(m=2, h=4, pattern="test-ring", packets=32)
        assert spec.run().run_stats.delivered == 32
        assert main(["bench-engines", "--h", "4", "--packets", "32",
                     "--pattern", "test-ring"]) == 0
        assert "test-ring" not in capsys.readouterr().err

    def test_sample_spec_file_runs(self, capsys, tmp_path):
        """The checked-in examples/experiment_spec.json (the CI artifact)
        must stay runnable."""
        import pathlib

        sample = pathlib.Path(__file__).parent.parent / "examples"
        sample = sample / "experiment_spec.json"
        payload = json.loads(sample.read_text())
        # shrink the horizon so the smoke test stays fast
        payload["grid"]["cycles"] = 120
        payload["grid"]["warmup"] = 20
        payload["grid"]["rates"] = payload["grid"]["rates"][:2]
        spec = self._write(tmp_path, payload)
        assert main(["run", spec, "--workers", "0"]) == 0
        assert "wall clock" in capsys.readouterr().out
