"""Tests for the simulation tracer."""

import pytest

from repro.sim import CPU, IO, SLEEP, Simulator
from repro.sim.commands import CPU_FUSED
from repro.sim.machine import DiskSpec, MachineSpec
from repro.sim import trace
from repro.sim.trace import Tracer


def make_sim():
    return Simulator(
        MachineSpec(cores=2, hz=1e9, oversub_penalty=0.0, disk=DiskSpec(bandwidth=100e6))
    )


def worker():
    yield CPU(1e8, "hashing")
    yield IO(1e6)
    yield SLEEP(0.5)


class TestTracer:
    def test_records_commands_and_completion(self):
        sim = make_sim()
        tracer = Tracer(sim).attach()
        sim.spawn(worker(), "w")
        sim.run()
        kinds = [e.kind for e in tracer.events if e.thread == "w"]
        assert kinds == ["cpu", "io", "sleep", "done"]
        cpu_event = tracer.events[0]
        assert "hashing" in cpu_event.detail
        assert cpu_event.time == 0.0

    def test_fused_command_recorded_whole(self):
        """The record carries the total the pool receives and every part's
        category, not the head part's."""
        sim = make_sim()
        tracer = Tracer(sim).attach()

        def fused():
            yield CPU_FUSED(CPU(1e6, "scans"), CPU(2e6, "joins"))

        sim.spawn(fused(), "w")
        sim.run()
        assert tracer.events[0].kind == "cpu"
        assert tracer.events[0].detail == "3e+06 cycles [scans, joins]"

    def test_context_manager_detaches(self):
        sim = make_sim()
        with Tracer(sim) as tracer:
            sim.spawn(worker(), "w")
            sim.run()
        n = len(tracer.events)
        sim.spawn(worker(), "w2")
        sim.run()
        assert len(tracer.events) == n  # nothing recorded after detach

    def test_thread_filter(self):
        sim = make_sim()
        tracer = Tracer(sim, thread_filter=lambda name: name.startswith("keep")).attach()
        sim.spawn(worker(), "keep-me")
        sim.spawn(worker(), "drop-me")
        sim.run()
        assert {e.thread for e in tracer.events} == {"keep-me"}

    def test_ring_buffer_drops_oldest(self, monkeypatch):
        monkeypatch.setattr(trace, "MAX_EVENTS", 3)
        sim = make_sim()
        tracer = Tracer(sim).attach()
        sim.spawn(worker(), "w")
        sim.run()
        assert len(tracer.events) == 3
        assert tracer.dropped == 1
        assert tracer.events[-1].kind == "done"

    def test_failed_thread_recorded(self):
        sim = make_sim()
        tracer = Tracer(sim).attach()

        def boom():
            yield CPU(1)
            raise ValueError("x")

        def parent():
            t = sim.spawn(boom(), "boom")
            try:
                yield from t.join()
            except ValueError:
                pass

        sim.spawn(parent(), "parent")
        sim.run()
        assert any(e.kind == "failed" for e in tracer.events)

    def test_render_and_summary(self):
        sim = make_sim()
        tracer = Tracer(sim).attach()
        sim.spawn(worker(), "w")
        sim.run()
        text = tracer.render(limit=2)
        assert text.startswith("#")
        assert len(text.splitlines()) == 3
        summary = tracer.summary()
        assert summary["w"]["cpu"] == 1
        assert summary["w"]["done"] == 1

    def test_double_attach_rejected(self):
        tracer = Tracer(make_sim()).attach()
        with pytest.raises(RuntimeError):
            tracer.attach()

    def test_traces_real_engine_run(self):
        """Attach to a full QPipe run and check stage threads appear."""
        from repro.data import generate_ssb
        from repro.engine import QPIPE_SP, QPipeEngine
        from repro.query.ssb_queries import q32
        from repro.sim.costmodel import DEFAULT_COST_MODEL
        from repro.storage import StorageConfig, StorageManager

        ssb = generate_ssb(0.5, seed=3)
        sim = Simulator(MachineSpec())
        tracer = Tracer(sim).attach()
        storage = StorageManager(sim, DEFAULT_COST_MODEL, ssb.tables, StorageConfig(resident="memory"))
        eng = QPipeEngine(sim, storage, QPIPE_SP)
        eng.submit(q32("CHINA", "FRANCE", 1993, 1996))
        sim.run()
        threads = {e.thread for e in tracer.events}
        assert any(t.startswith("scan-") for t in threads)
        assert any("-join-" in t for t in threads)
        assert any("-client" in t for t in threads)

    def test_traced_run_is_the_untraced_run(self):
        """The tap only observes: the same engine workload, traced or not,
        runs the same code -- identical per-thread finish times and
        identical metrics."""
        from repro.data import generate_ssb
        from repro.engine import CJOIN_SP, QPipeEngine
        from repro.query.ssb_queries import q32
        from repro.sim.costmodel import DEFAULT_COST_MODEL
        from repro.storage import StorageConfig, StorageManager

        ssb = generate_ssb(0.5, seed=3)

        def run(traced: bool):
            sim = Simulator(MachineSpec(cores=4))
            tracer = Tracer(sim).attach() if traced else None
            storage = StorageManager(sim, DEFAULT_COST_MODEL, ssb.tables, StorageConfig(resident="disk"))
            eng = QPipeEngine(sim, storage, CJOIN_SP)
            eng.submit(q32("CHINA", "FRANCE", 1993, 1996))
            eng.submit(q32("JAPAN", "CHINA", 1992, 1995))
            sim.run()
            assert tracer is None or {"cpu", "io", "block", "done"} <= {e.kind for e in tracer.events}
            # Spawn order, not names: packet ids come from a process-wide counter.
            return [t.finish_time for t in sim.threads], sim.metrics.to_dict(), sim.now

        assert run(traced=True) == run(traced=False)
