"""Tests for problem compilation: job expansion, templates, signatures."""

import pytest

from kernel_oracle import record_key_pairs

from repro.core.initial_mapping import InitialMapper
from repro.core.transformations import CandidateDesign
from repro.engine.compiled_spec import CompiledSpec
from repro.experiments.runner import family_strategy
from repro.gen import families
from repro.sched.priorities import hcp_priorities
from repro.utils.errors import SchedulingError


def _reference_expansion(application, horizon):
    """The seed's inline expansion (previously in ListScheduler), kept
    verbatim as a regression reference for the shared job table."""
    jobs = {}
    preds_left = {}
    succ_edges = {}
    for graph in application.graphs:
        instances = horizon // graph.period
        for k in range(instances):
            release = k * graph.period
            abs_deadline = release + graph.deadline
            for proc in graph.processes:
                key = (proc.id, k)
                jobs[key] = (proc.id, k, graph.name, release, abs_deadline)
                preds_left[key] = len(graph.predecessors(proc.id))
                succ_edges[key] = [
                    (succ, k) for succ in graph.successors(proc.id)
                ]
    return jobs, preds_left, succ_edges


class TestJobExpansion:
    def test_matches_previous_inline_expansion(self, spec):
        compiled = CompiledSpec(spec)
        ref_jobs, ref_preds, ref_succs = _reference_expansion(
            spec.current, compiled.horizon
        )
        table = compiled.job_table
        assert set(table.jobs) == set(ref_jobs)
        for key, job in table.jobs.items():
            assert (
                job.process_id,
                job.instance,
                job.graph_name,
                job.release,
                job.abs_deadline,
            ) == ref_jobs[key]
        assert table.preds_template == ref_preds
        assert {k: v for k, v in table.succ_edges.items()} == ref_succs

    def test_sources_are_predecessor_free(self, spec):
        table = CompiledSpec(spec).job_table
        assert table.sources
        for key in table.sources:
            assert table.preds_template[key] == 0

    def test_fresh_preds_is_independent(self, spec):
        table = CompiledSpec(spec).job_table
        preds = table.fresh_preds()
        key = next(iter(preds))
        preds[key] -= 1
        assert table.preds_template[key] == preds[key] + 1

    def test_total_jobs(self, spec):
        compiled = CompiledSpec(spec)
        expected = sum(
            (compiled.horizon // g.period) * len(g.processes)
            for g in spec.current.graphs
        )
        assert compiled.total_jobs == expected == len(compiled.job_table)


class TestCompiledSpec:
    def test_horizon_matches_spec(self, spec):
        assert CompiledSpec(spec).horizon == spec.effective_horizon()

    def test_indivisible_period_rejected(self, spec):
        from dataclasses import replace

        bad = replace(
            spec, base_schedule=None, horizon=spec.current.hyperperiod() + 1
        )
        with pytest.raises(SchedulingError):
            CompiledSpec(bad)

    def test_fresh_schedule_is_independent_copy(self, spec):
        compiled = CompiledSpec(spec)
        one = compiled.fresh_schedule()
        two = compiled.fresh_schedule()
        assert one is not two
        before = len(list(two.all_entries()))
        node = spec.architecture.node_ids[0]
        one.place_process("scratch", 0, node, one.earliest_fit(node, 1, 0), 1)
        assert len(list(two.all_entries())) == before
        assert len(list(compiled.fresh_schedule().all_entries())) == before

    def test_default_priorities_are_hcp(self, spec):
        compiled = CompiledSpec(spec)
        assert compiled.default_priorities == hcp_priorities(
            spec.current, spec.architecture.bus
        )

    def test_scheduler_compiled_path_matches_uncompiled(self, spec):
        from repro.sched.list_scheduler import ListScheduler

        compiled = CompiledSpec(spec)
        mapper = InitialMapper(spec.architecture)
        mapping, _ = mapper.try_map_and_schedule(
            spec.current, base=spec.base_schedule
        )
        scheduler = ListScheduler(spec.architecture)
        plain = scheduler.try_schedule(
            spec.current, mapping, base=spec.base_schedule
        )
        fast = scheduler.try_schedule(spec.current, mapping, compiled=compiled)
        assert plain.success and fast.success
        plain_entries = {
            (e.process_id, e.instance): (e.node_id, e.start, e.end)
            for e in plain.schedule.all_entries()
        }
        fast_entries = {
            (e.process_id, e.instance): (e.node_id, e.start, e.end)
            for e in fast.schedule.all_entries()
        }
        assert plain_entries == fast_entries

    def test_mismatched_compiled_spec_rejected(self, spec, arch2, chain_app):
        from repro.model.mapping import Mapping
        from repro.sched.list_scheduler import ListScheduler

        compiled = CompiledSpec(spec)
        scheduler = ListScheduler(arch2)
        other_mapping = Mapping(
            chain_app, arch2, {p.id: "N1" for p in chain_app.processes}
        )
        with pytest.raises(SchedulingError):
            scheduler.try_schedule(chain_app, other_mapping, compiled=compiled)
        mapper = InitialMapper(arch2)
        with pytest.raises(SchedulingError):
            mapper.try_map_and_schedule(chain_app, compiled=compiled)

    def test_conflicting_horizon_with_compiled_rejected(self, spec):
        from repro.sched.list_scheduler import ListScheduler

        compiled = CompiledSpec(spec)
        mapper = InitialMapper(spec.architecture)
        mapping, _ = mapper.try_map_and_schedule(
            spec.current, base=spec.base_schedule
        )
        scheduler = ListScheduler(spec.architecture)
        with pytest.raises(SchedulingError):
            scheduler.try_schedule(
                spec.current,
                mapping,
                horizon=compiled.horizon * 2,
                compiled=compiled,
            )
        with pytest.raises(SchedulingError):
            mapper.try_map_and_schedule(
                spec.current, horizon=compiled.horizon * 2, compiled=compiled
            )

    def test_initial_mapper_compiled_path_matches_uncompiled(self, spec):
        compiled = CompiledSpec(spec)
        mapper = InitialMapper(spec.architecture)
        plain = mapper.try_map_and_schedule(
            spec.current, base=spec.base_schedule
        )
        fast = mapper.try_map_and_schedule(spec.current, compiled=compiled)
        assert plain is not None and fast is not None
        assert plain[0].as_dict() == fast[0].as_dict()


class TestSignature:
    def test_equal_designs_equal_signatures(self, spec):
        compiled = CompiledSpec(spec)
        mapper = InitialMapper(spec.architecture)
        mapping, _ = mapper.try_map_and_schedule(
            spec.current, base=spec.base_schedule
        )
        priorities = hcp_priorities(spec.current, spec.architecture.bus)
        a = CandidateDesign(mapping, dict(priorities))
        b = CandidateDesign(mapping.copy(), dict(priorities))
        assert compiled.signature(a) == compiled.signature(b)

    def test_different_delays_different_signatures(self, spec):
        compiled = CompiledSpec(spec)
        mapper = InitialMapper(spec.architecture)
        mapping, _ = mapper.try_map_and_schedule(
            spec.current, base=spec.base_schedule
        )
        priorities = hcp_priorities(spec.current, spec.architecture.bus)
        msg = spec.current.messages[0]
        a = CandidateDesign(mapping, dict(priorities))
        b = CandidateDesign(mapping.copy(), dict(priorities), {msg.id: 1})
        assert compiled.signature(a) != compiled.signature(b)

    def test_signature_is_the_design_key(self, spec):
        compiled = CompiledSpec(spec)
        mapper = InitialMapper(spec.architecture)
        mapping, _ = mapper.try_map_and_schedule(
            spec.current, base=spec.base_schedule
        )
        design = CandidateDesign(mapping, dict(compiled.default_priorities))
        key = compiled.signature(design)
        assert isinstance(key, bytes) and key == design.key
        assert len(key) == compiled.index.key_size

    @pytest.mark.parametrize("family_name", families.family_names())
    def test_array_keys_partition_like_dict_signatures(
        self, monkeypatch, family_name
    ):
        """Over every candidate seeded MH and SA runs visit, two array
        keys are equal exactly when their dict-form signatures are: the
        cache sees the same hits it saw with dict designs."""
        pairs = record_key_pairs(monkeypatch)
        family = families.get_family(family_name)
        spec = family.build(family.smallest_preset, seed=1).spec()
        for strategy in ("MH", "SA"):
            family_strategy(strategy, 1, 150).design(spec)
        assert len(pairs) > 50
        by_key, by_signature = {}, {}
        for key, signature in pairs:
            assert by_key.setdefault(key, signature) == signature
            assert by_signature.setdefault(signature, key) == key
        # Revisits happen, so the check compares something.
        assert len(by_key) < len(pairs)


class TestArchitectureValidation:
    """Compilation must reject application/platform-variant mismatches."""

    def test_wcet_table_with_unknown_node_rejected(self, spec):
        from repro.core.strategy import DesignSpec
        from repro.gen.architecture_gen import random_architecture
        from repro.model.application import Application
        from repro.model.process_graph import Process, ProcessGraph

        graph = ProcessGraph("g0", spec.effective_horizon())
        graph.add_process(Process("x.P0", {"N0": 5, "N9": 3}))
        other = Application("x", [graph])
        smaller = random_architecture(2)  # has N0, N1 -- no N9
        bad = DesignSpec(
            architecture=smaller,
            current=other,
            future=spec.future,
        )
        with pytest.raises(SchedulingError, match="N9"):
            CompiledSpec(bad)

    def test_base_schedule_from_other_platform_rejected(self, spec):
        from dataclasses import replace as dc_replace

        from repro.gen.architecture_gen import random_architecture

        grown = random_architecture(
            len(spec.architecture) + 1,
            slot_length=spec.architecture.bus.slots[0].length,
            slot_capacity=spec.architecture.bus.slots[0].capacity,
        )
        bad = dc_replace(spec, architecture=grown)
        with pytest.raises(SchedulingError, match="architecture"):
            CompiledSpec(bad)

    def test_matching_variant_compiles(self, spec):
        assert CompiledSpec(spec).total_jobs > 0
