"""Kernel dispatch layer: backend selection + cross-backend bit-parity.

The compiled C backend (cext) must reproduce the pure-python reference
*bit for bit* — the property tests assert ``==`` on raw float64 arrays,
never approximate closeness.  Backend availability is machine-dependent:
the python backend always runs, the cext tests skip without a C
compiler.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.errors import ConfigError
from repro.runtime.cache import CACHE_DIR_ENV
from repro.simgpu import _kernels
from repro.simgpu.batch import ConfigTable, precompute_frame
from repro.simgpu.config import GpuConfig
from repro.simgpu.simulator import GpuSimulator

from tests.conftest import make_draw, make_world
from tests.simgpu.test_batch import config_strategy


def _available(name: str) -> bool:
    return _kernels._try_load(name) is not None


COMPILED_BACKENDS = [
    pytest.param(
        name,
        marks=pytest.mark.skipif(
            not _available(name), reason=f"{name} backend unavailable"
        ),
    )
    for name in ("cext",)
]


@pytest.fixture
def force_backend(monkeypatch):
    def force(name: str) -> None:
        monkeypatch.setenv(_kernels.KERNELS_ENV, name)

    return force


# -- synthetic flat-array inputs -----------------------------------------


@st.composite
def slot_arrays(draw):
    """Random (tex_ids, sizes, offsets) frames, degenerate shapes included.

    Covers empty frames (no draws), draws with no textures, frames where
    every slot is a first touch (all-distinct ids), and single-texture
    frames (one id everywhere) via the id-pool bounds.
    """
    num_draws = draw(st.integers(min_value=0, max_value=12))
    pool_size = draw(st.integers(min_value=1, max_value=6))
    ids = []
    sizes = []
    offsets = [0]
    for _ in range(num_draws):
        slots = draw(st.integers(min_value=0, max_value=5))
        for _ in range(slots):
            ids.append(draw(st.integers(min_value=0, max_value=pool_size - 1)))
            sizes.append(draw(st.integers(min_value=1, max_value=1 << 24)))
        offsets.append(len(ids))
    return (
        np.array(ids, dtype=np.int64),
        np.array(sizes, dtype=np.int64),
        np.array(offsets, dtype=np.int64),
    )


#: Coarse values make duplicate rows and exact ties common: with values
#: 0 and 0.5 in one column and radius 0.5, two rows are exactly radius
#: apart.
_GRID = st.sampled_from([-1.0, 0.0, 0.25, 0.5, 1.0, 2.0])


@st.composite
def leader_inputs(draw):
    """(matrix, radius) for the leader kernel, one row and one column included."""
    n = draw(st.integers(min_value=1, max_value=40))
    d = draw(st.integers(min_value=1, max_value=6))
    elements = st.one_of(_GRID, st.floats(min_value=-10, max_value=10))
    matrix = draw(hnp.arrays(np.float64, (n, d), elements=elements))
    radius = draw(
        st.one_of(
            st.sampled_from([0.25, 0.5, 1.0, 1.5]),
            st.floats(min_value=1e-3, max_value=30),
        )
    )
    return matrix, radius


class TestBackendResolution:
    def test_python_always_available(self, force_backend):
        force_backend("python")
        assert _kernels.backend().name == "python"

    def test_auto_resolves_to_something(self, force_backend):
        force_backend("auto")
        assert _kernels.backend().name in ("cext", "python")

    def test_unknown_backend_rejected(self, force_backend):
        force_backend("fortran")
        with pytest.raises(ConfigError, match="unknown kernel backend"):
            _kernels.backend()
        with pytest.raises(ConfigError, match="unknown kernel backend"):
            _kernels.set_backend("fortran")

    def test_unavailable_backend_is_an_error_not_a_fallback(
        self, force_backend, monkeypatch
    ):
        monkeypatch.setitem(_kernels._FAILED, "cext", "forced for test")
        monkeypatch.delitem(_kernels._RESOLVED, "cext", raising=False)
        force_backend("cext")
        with pytest.raises(ConfigError, match="unavailable: forced for test"):
            _kernels.backend()

    def test_set_backend_exports_env(self, monkeypatch):
        monkeypatch.delenv(_kernels.KERNELS_ENV, raising=False)
        resolved = _kernels.set_backend("python")
        assert resolved == "python"
        import os

        assert os.environ[_kernels.KERNELS_ENV] == "python"

    def test_kernel_info_does_not_resolve_by_default(
        self, force_backend, monkeypatch
    ):
        force_backend("python")
        monkeypatch.delitem(_kernels._RESOLVED, "python", raising=False)
        info = _kernels.kernel_info(resolve=False)
        assert info == {"requested": "python", "backend": None}
        info = _kernels.kernel_info(resolve=True)
        assert info == {"requested": "python", "backend": "python"}


@pytest.mark.skipif(_kernels._find_compiler() is None, reason="no C compiler")
class TestCextBuild:
    def test_leftover_truncated_source_is_not_trusted(
        self, force_backend, monkeypatch, tmp_path
    ):
        # A crashed or concurrent builder may leave half a source file
        # behind under the content-addressed name; the build must not
        # compile from it.
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
        build_dir = tmp_path / "kernels"
        build_dir.mkdir()
        source = _kernels._C_SOURCE
        leftover = build_dir / f"reprokern-{_kernels._c_source_digest()}.c"
        leftover.write_text(source[: len(source) // 2])
        monkeypatch.setattr(_kernels, "_RESOLVED", {})
        monkeypatch.setattr(_kernels, "_FAILED", {})
        force_backend("cext")
        assert _kernels.backend().name == "cext"


class TestPurePythonKernels:
    """Reference-behaviour checks that run on every machine."""

    def test_empty_frame(self, force_backend):
        force_backend("python")
        empty = np.zeros(0, dtype=np.int64)
        offsets = np.zeros(1, dtype=np.int64)
        assert _kernels.reuse_distances(empty, empty, offsets).shape == (0,)
        assert _kernels.segment_sums_i64(empty, offsets).shape == (0,)

    def test_first_touches_are_inf(self, force_backend):
        force_backend("python")
        ids = np.array([1, 2, 3], dtype=np.int64)
        sizes = np.array([10, 20, 30], dtype=np.int64)
        offsets = np.array([0, 3], dtype=np.int64)
        reuse = _kernels.reuse_distances(ids, sizes, offsets)
        assert np.all(np.isinf(reuse))

    def test_single_texture_reuse_is_own_size(self, force_backend):
        force_backend("python")
        ids = np.array([7, 7], dtype=np.int64)
        sizes = np.array([64, 64], dtype=np.int64)
        offsets = np.array([0, 1, 2], dtype=np.int64)
        reuse = _kernels.reuse_distances(ids, sizes, offsets)
        assert np.isinf(reuse[0])
        assert reuse[1] == 64.0

    def test_segment_sums_match_python_sums(self, force_backend):
        force_backend("python")
        values = np.array([1, 2, 3, 4, 5], dtype=np.int64)
        offsets = np.array([0, 2, 2, 5], dtype=np.int64)
        totals = _kernels.segment_sums_i64(values, offsets)
        assert totals.tolist() == [3, 0, 12]

    def test_leader_radius_inclusive_and_ties_to_earliest(self, force_backend):
        force_backend("python")
        matrix = np.array([[0.0], [0.75], [1.5], [0.75]])
        labels, leaders = _kernels.leader_labels(matrix, 0.75)
        # Row 1 is exactly radius from leader row 0 and joins it; row 2 is
        # farther and founds a cluster; row 3 is exactly radius from both
        # leaders and joins the earlier one.
        assert labels.tolist() == [0, 0, 1, 0]
        assert leaders.tolist() == [0, 2]


#: Zero or a magnitude from 1 to 1e12: zero footprints and zero counts
#: take the ``np.where`` branches, large ones the ``np.minimum`` caps.
_magnitudes = st.one_of(
    st.just(0.0), st.floats(min_value=1.0, max_value=1e12, allow_subnormal=False)
)


@st.composite
def cost_model_inputs(draw, configs=st.lists(config_strategy, min_size=1, max_size=8)):
    """One frame's cost-model inputs: draw arrays, configs and context rows."""
    n = draw(st.integers(min_value=0, max_value=10))

    def column(values):
        return np.array(draw(st.lists(values, min_size=n, max_size=n)), dtype=np.float64)

    frame = {name: column(_magnitudes) for name in _kernels.COST_MODEL_DRAW_FIELDS}
    for regs in ("vs_regs", "ps_regs"):  # ShaderStats.registers >= 1
        frame[regs] = column(st.floats(min_value=1.0, max_value=1e12))
    frame["n_color"] = column(st.floats(min_value=1.0, max_value=8.0))
    frame["noise_units"] = column(st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
    flags = draw(st.lists(st.integers(min_value=0, max_value=15), min_size=n, max_size=n))
    for bit, name in enumerate(_kernels.COST_MODEL_FLAG_FIELDS):
        frame[name] = np.array([bool(f >> bit & 1) for f in flags], dtype=bool)
    table = ConfigTable(draw(configs))
    unit = st.floats(min_value=0.0, max_value=1.0)
    warm = np.array(
        [column(unit) for _ in table.warm_capacities], dtype=np.float64
    ).reshape(len(table.warm_capacities), n)
    switch = np.array(
        [column(st.floats(min_value=0.0, max_value=3000.0)) for _ in table.switch_costs],
        dtype=np.float64,
    ).reshape(len(table.switch_costs), n)
    return (
        SimpleNamespace(**frame), table.matrix,
        warm, table.warm_index, switch, table.switch_index,
    )


def _every_flag_combination():
    """Sixteen draws, one per combination of the four flags, two configs."""
    n = 16
    frame = {name: np.full(n, 3.0) for name in _kernels.COST_MODEL_DRAW_FIELDS}
    frame["footprint"] = np.array([0.0, 5e5] * 8)
    frame["noise_units"] = np.linspace(0.0, 0.9, n)
    for bit, name in enumerate(_kernels.COST_MODEL_FLAG_FIELDS):
        frame[name] = np.array([bool(i >> bit & 1) for i in range(n)])
    table = ConfigTable([GpuConfig.preset("lowpower"), GpuConfig.preset("highend")])
    warm = np.tile(np.linspace(0.0, 1.0, n), (len(table.warm_capacities), 1))
    switch = np.full((len(table.switch_costs), n), 200.0)
    return (
        SimpleNamespace(**frame), table.matrix,
        warm, table.warm_index, switch, table.switch_index,
    )


def _cost_model_with(name, monkeypatch, inputs):
    monkeypatch.setenv(_kernels.KERNELS_ENV, name)
    return _kernels.cost_model(*inputs, collect_stages=True)


#: Every array of a :class:`~repro.simgpu._kernels.CostModelOutput`.
_OUTPUT_FIELDS = ("times", "core", "core_index", "dram", "dram_index", "stages")

#: Few values per config column, so a handful of configs forms some
#: shared core and DRAM groups and some distinct ones.
grouped_config_strategy = st.builds(
    lambda cores, tex_kb, l2_kb, bandwidth, clock, mem_clock, shader_sw: (
        GpuConfig().scaled(
            name="grouped",
            num_shader_cores=cores,
            tex_cache_kb=tex_kb,
            l2_cache_kb=l2_kb,
            dram_bytes_per_mem_cycle=bandwidth,
            core_clock_mhz=clock,
            memory_clock_mhz=mem_clock,
            shader_switch_cycles=shader_sw,
        )
    ),
    cores=st.sampled_from([4, 8]),
    tex_kb=st.sampled_from([64, 256]),
    l2_kb=st.sampled_from([256, 1024]),
    bandwidth=st.sampled_from([32.0, 64.0]),
    clock=st.sampled_from([800.0, 1200.0, 1600.0]),
    mem_clock=st.sampled_from([1500.0, 2000.0]),
    shader_sw=st.sampled_from([0, 200]),
)


@st.composite
def grouped_cost_model_inputs(draw):
    """:func:`cost_model_inputs` over configs that share columns, with their groups."""
    table = ConfigTable(draw(st.lists(grouped_config_strategy, min_size=2, max_size=10)))
    inputs = draw(cost_model_inputs(configs=st.just(table.configs)))
    return (*inputs, table.core_groups, table.dram_groups), table


class TestGroupedCostModel:
    """Each term priced once per group equals every member priced alone."""

    @settings(max_examples=80, deadline=None)
    @given(case=grouped_cost_model_inputs())
    def test_groups_are_the_distinct_term_inputs(self, case):
        _, table = case
        for columns, (first, index), context in (
            (_kernels.COST_MODEL_CORE_COLUMNS, table.core_groups, table.switch_index),
            (_kernels.COST_MODEL_DRAM_COLUMNS, table.dram_groups, table.warm_index),
        ):
            positions = [_kernels.COST_MODEL_CONFIG_COLUMNS.index(c) for c in columns]
            keys = [
                (table.matrix[i, positions].tobytes(), int(context[i]))
                for i in range(len(table))
            ]
            # One group per distinct key, each led by its first member.
            assert len(set(keys)) == len(first)
            for i, key in enumerate(keys):
                assert first[index[i]] == keys.index(key)

    @pytest.mark.parametrize("backend_name", ["python", *COMPILED_BACKENDS])
    @settings(max_examples=60, deadline=None)
    @given(case=grouped_cost_model_inputs())
    def test_each_config_equals_itself_alone(self, backend_name, case):
        inputs, table = case
        frame, configs, warm, warm_index, switch, switch_index, _, _ = inputs
        with pytest.MonkeyPatch.context() as monkeypatch:
            grouped = _cost_model_with(backend_name, monkeypatch, inputs)
            for i in range(len(table)):
                alone = _cost_model_with(backend_name, monkeypatch, (
                    frame, configs[i:i + 1], warm[warm_index[i]:warm_index[i] + 1], [0],
                    switch[switch_index[i]:switch_index[i] + 1], [0],
                ))
                core, dram = grouped.core_index[i], grouped.dram_index[i]
                assert np.array_equal(alone.times[0], grouped.times[i])
                assert np.array_equal(alone.core[0], grouped.core[core])
                assert np.array_equal(alone.dram[0], grouped.dram[dram])
                assert np.array_equal(alone.stages[:, 0], grouped.stages[:, core])


class TestCostModelInputs:
    def test_mismatched_draw_lengths_rejected(self, force_backend):
        force_backend("python")
        frame, *rest = _every_flag_combination()
        frame.verts = frame.verts[:-1]
        with pytest.raises(ConfigError, match="equally long"):
            _kernels.cost_model(frame, *rest)

    def test_context_index_out_of_range_rejected(self, force_backend):
        force_backend("python")
        frame, configs, warm, warm_index, switch, switch_index = _every_flag_combination()
        with pytest.raises(ConfigError, match="out of range"):
            _kernels.cost_model(frame, configs, warm, warm_index + 5, switch, switch_index)

    def test_stages_only_when_asked(self, force_backend):
        force_backend("python")
        out = _kernels.cost_model(*_every_flag_combination())
        assert out.stages is None
        assert len(out) == 2
        assert all(rows.shape == (2, 16) for rows in (out.times, out.core, out.dram))
        assert out.core_index.tolist() == out.dram_index.tolist() == [0, 1]
        asked = _kernels.cost_model(*_every_flag_combination(), collect_stages=True)
        assert asked.stages.shape == (6, 2, 16)


def _reuse_with(backend, tex_ids, sizes, offsets):
    """The public reuse_distances wrapper, pinned to one backend object."""
    if tex_ids.shape[0] == 0:
        return np.full(0, np.inf)
    uniques, inverse = np.unique(tex_ids, return_inverse=True)
    dense = np.ascontiguousarray(inverse, dtype=np.int64)
    return backend._reuse(dense, sizes, offsets, int(len(uniques)))


@pytest.mark.parametrize("backend_name", COMPILED_BACKENDS)
class TestCompiledParity:
    """Compiled kernels must equal the python reference bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(arrays=slot_arrays())
    def test_reuse_distance_bit_parity(self, backend_name, arrays):
        tex_ids, sizes, offsets = arrays
        expected = _reuse_with(_kernels._PYTHON_BACKEND, tex_ids, sizes, offsets)
        actual = _reuse_with(
            _kernels._try_load(backend_name), tex_ids, sizes, offsets
        )
        # == on the raw bits: inf positions and finite values both exact.
        assert np.array_equal(expected, actual)

    @settings(max_examples=60, deadline=None)
    @given(arrays=slot_arrays())
    def test_segment_sum_bit_parity(self, backend_name, arrays):
        _, sizes, offsets = arrays
        bpps = sizes.astype(np.float64) * 0.25  # dyadic, like bytes/pixel
        python = _kernels._PYTHON_BACKEND
        compiled = _kernels._try_load(backend_name)
        if len(sizes) == 0:
            return  # the public wrapper short-circuits empty inputs
        assert np.array_equal(
            python._seg_i64(sizes, offsets), compiled._seg_i64(sizes, offsets)
        )
        assert np.array_equal(
            python._seg_f64(bpps, offsets), compiled._seg_f64(bpps, offsets)
        )

    @settings(max_examples=200, deadline=None)
    @given(case=leader_inputs())
    @example(case=(np.array([[0.5, -1.0]]), 1.0))  # one row
    @example(case=(np.array([[0.0], [0.5], [1.0], [0.25]]), 0.5))  # one column
    @example(case=(np.array([[1.0, 2.0]] * 5 + [[2.0, 2.0]]), 0.25))  # duplicates
    @example(case=(np.array([[0.0, 0.0], [0.5, 0.0], [0.0, 0.5]]), 0.5))  # radius apart
    def test_leader_bit_parity(self, backend_name, case):
        matrix, radius = case
        python = _kernels._PYTHON_BACKEND
        compiled = _kernels._try_load(backend_name)
        expected_labels, expected_leaders = python._leader(matrix, radius)
        labels, leaders = compiled._leader(matrix, radius)
        assert labels.dtype == expected_labels.dtype == np.int64
        assert np.array_equal(labels, expected_labels)
        assert np.array_equal(leaders, expected_leaders)

    @settings(max_examples=200, deadline=None)
    @given(
        inputs=st.one_of(
            cost_model_inputs(), grouped_cost_model_inputs().map(lambda case: case[0])
        )
    )
    @example(inputs=_every_flag_combination())
    def test_cost_model_bit_parity(self, backend_name, inputs):
        """Per-draw times and every core, dram and stage row equal with ``==``.

        With groups, the C kernel prices each group's rows once and the
        python reference prices every config, so this also checks them.
        """
        with pytest.MonkeyPatch.context() as monkeypatch:
            expected = _cost_model_with("python", monkeypatch, inputs)
            actual = _cost_model_with(backend_name, monkeypatch, inputs)
        for name in _OUTPUT_FIELDS:
            want, got = getattr(expected, name), getattr(actual, name)
            assert got.shape == want.shape, name
            assert np.array_equal(got, want), name

    def test_full_frame_precompute_parity(self, backend_name, monkeypatch):
        """End to end: precompute_frame arrays agree across backends."""
        trace = make_world(
            [
                [
                    make_draw(texture_ids=(10, 11)),
                    make_draw(texture_ids=(11,)),
                    make_draw(texture_ids=()),
                    make_draw(texture_ids=(12, 10, 11)),
                ]
            ]
        )
        frame = trace.frames[0]
        monkeypatch.setenv(_kernels.KERNELS_ENV, "python")
        reference = precompute_frame(trace, frame)
        monkeypatch.setenv(_kernels.KERNELS_ENV, backend_name)
        compiled = precompute_frame(trace, frame)
        for name in ("tex_slot_sizes", "tex_slot_reuse", "tex_slot_offsets",
                     "tex_totals", "footprint"):
            assert np.array_equal(
                getattr(reference, name), getattr(compiled, name)
            ), name


def _left_to_right_distance(a, b):
    """The leader distance contract, one IEEE operation at a time."""
    total = 0.0
    for x, y in zip(a.tolist(), b.tolist()):
        diff = x - y
        total += diff * diff
    return math.sqrt(total)


@pytest.mark.parametrize("backend_name", ["python", *COMPILED_BACKENDS])
def test_leader_distance_is_left_to_right_sum(backend_name):
    """A row exactly the contract distance from the leader joins it; one ULP less does not.

    Summing in ``einsum``'s order, or with a fused multiply-add, changes
    the distance in tens of these 200 pairs (numpy 2.4, x86-64), and
    each change flips one of the two decisions.
    """
    leader = _kernels._try_load(backend_name)._leader
    rng = np.random.default_rng(0)
    for _ in range(200):
        matrix = rng.normal(size=(2, 19))
        radius = _left_to_right_distance(matrix[0], matrix[1])
        assert leader(matrix, radius)[0].tolist() == [0, 0]
        assert leader(matrix, np.nextafter(radius, 0.0))[0].tolist() == [0, 1]


class TestKernelsMatchSequentialSimulator:
    """The kernel-backed batch path still matches the scalar reference."""

    def test_trace_times_identical(self, monkeypatch):
        from repro.runtime.engine import Runtime

        trace = make_world(
            [
                [make_draw(texture_ids=(10,)), make_draw(texture_ids=(10, 11))],
                [make_draw(texture_ids=(11,)), make_draw(texture_ids=())],
            ]
        )
        config = GpuConfig()
        reference = GpuSimulator(config).simulate_trace(trace)
        monkeypatch.setenv(_kernels.KERNELS_ENV, "auto")
        batch = Runtime.serial().simulate_trace(trace, config)
        for ref, new in zip(reference.frame_results, batch.frame_results):
            assert new.time_ns == pytest.approx(ref.time_ns, rel=1e-12)
