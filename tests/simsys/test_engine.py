"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.simsys import Environment, Interrupted, SimError


def test_clock_starts_at_zero():
    env = Environment()
    assert env.now == 0.0


def test_clock_custom_initial_time():
    env = Environment(initial_time=100.0)
    assert env.now == 100.0


def test_timeout_advances_clock():
    env = Environment()
    seen = []

    def proc():
        yield env.timeout(5.0)
        seen.append(env.now)

    env.process(proc())
    env.run()
    assert seen == [5.0]


def test_timeout_zero_is_allowed():
    env = Environment()
    done = []

    def proc():
        yield env.timeout(0)
        done.append(True)

    env.process(proc())
    env.run()
    assert done == [True]


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1)


def test_events_process_in_time_order():
    env = Environment()
    order = []

    def proc(delay, tag):
        yield env.timeout(delay)
        order.append(tag)

    env.process(proc(3.0, "c"))
    env.process(proc(1.0, "a"))
    env.process(proc(2.0, "b"))
    env.run()
    assert order == ["a", "b", "c"]


def test_fifo_order_at_equal_time():
    env = Environment()
    order = []

    def proc(tag):
        yield env.timeout(1.0)
        order.append(tag)

    for tag in ("first", "second", "third"):
        env.process(proc(tag))
    env.run()
    assert order == ["first", "second", "third"]


def test_run_until_stops_clock_exactly():
    env = Environment()

    def proc():
        while True:
            yield env.timeout(10.0)

    env.process(proc())
    env.run(until=25.0)
    assert env.now == 25.0


def test_run_until_past_raises():
    env = Environment(initial_time=50.0)
    with pytest.raises(ValueError):
        env.run(until=10.0)


def test_process_return_value_via_join():
    env = Environment()
    result = []

    def child():
        yield env.timeout(1.0)
        return 42

    def parent():
        value = yield env.process(child())
        result.append(value)

    env.process(parent())
    env.run()
    assert result == [42]


def test_process_exception_propagates_to_joiner():
    env = Environment()
    caught = []

    def child():
        yield env.timeout(1.0)
        raise RuntimeError("boom")

    def parent():
        try:
            yield env.process(child())
        except RuntimeError as exc:
            caught.append(str(exc))

    env.process(parent())
    env.run()
    assert caught == ["boom"]


def test_unhandled_process_exception_surfaces_from_run():
    env = Environment()

    def proc():
        yield env.timeout(1.0)
        raise ValueError("unhandled")

    env.process(proc())
    with pytest.raises(ValueError, match="unhandled"):
        env.run()


def test_manual_event_succeed():
    env = Environment()
    done = []
    gate = env.event()

    def waiter():
        value = yield gate
        done.append(value)

    def opener():
        yield env.timeout(2.0)
        gate.succeed("open")

    env.process(waiter())
    env.process(opener())
    env.run()
    assert done == ["open"]


def test_event_double_trigger_rejected():
    env = Environment()
    event = env.event()
    event.succeed(1)
    with pytest.raises(RuntimeError):
        event.succeed(2)


def test_event_fail_requires_exception():
    env = Environment()
    with pytest.raises(TypeError):
        env.event().fail("not an exception")


def test_interrupt_mid_wait():
    env = Environment()
    observed = []

    def sleeper():
        try:
            yield env.timeout(100.0)
        except Interrupted as exc:
            observed.append((env.now, exc.cause))

    proc = env.process(sleeper())

    def interrupter():
        yield env.timeout(5.0)
        proc.interrupt("shutdown")

    env.process(interrupter())
    env.run()
    assert observed == [(5.0, "shutdown")]


def test_interrupt_dead_process_is_noop():
    env = Environment()

    def quick():
        yield env.timeout(1.0)

    proc = env.process(quick())
    env.run()
    proc.interrupt("late")  # must not raise


def test_all_of_waits_for_every_event():
    env = Environment()
    times = []

    def child(d):
        yield env.timeout(d)
        return d

    def parent():
        procs = [env.process(child(d)) for d in (1.0, 4.0, 2.0)]
        yield env.all_of(procs)
        times.append(env.now)

    env.process(parent())
    env.run()
    assert times == [4.0]


def test_any_of_fires_on_first():
    env = Environment()
    times = []

    def child(d):
        yield env.timeout(d)

    def parent():
        procs = [env.process(child(d)) for d in (3.0, 1.0, 2.0)]
        yield env.any_of(procs)
        times.append(env.now)

    env.process(parent())
    env.run()
    assert times == [1.0]


def test_yielding_non_event_is_an_error():
    env = Environment()

    def proc():
        yield 42

    env.process(proc())
    with pytest.raises(SimError):
        env.run()


def test_active_process_visible_during_execution():
    env = Environment()
    seen = []

    def proc():
        seen.append(env.active_process)
        yield env.timeout(1.0)

    p = env.process(proc())
    env.run()
    assert seen == [p]
    assert env.active_process is None


def test_peek_reports_next_event_time():
    env = Environment()

    def proc():
        yield env.timeout(7.0)

    env.process(proc())
    env.step()  # process the init event at t=0
    assert env.peek() == 7.0


def test_nested_subgenerators_with_yield_from():
    env = Environment()
    trail = []

    def inner():
        yield env.timeout(1.0)
        trail.append("inner")
        return "inner-done"

    def outer():
        result = yield from inner()
        trail.append(result)
        yield env.timeout(1.0)
        trail.append("outer")

    env.process(outer())
    env.run()
    assert trail == ["inner", "inner-done", "outer"]


def test_run_pauses_the_cyclic_collector_and_restores_it():
    import gc

    env = Environment()
    seen = []

    def proc():
        yield env.timeout(1.0)
        seen.append(gc.isenabled())

    was_enabled = gc.isenabled()
    try:
        gc.enable()
        env.process(proc())
        env.run()
        assert seen == [False]
        assert gc.isenabled()

        # A caller that turned the collector off keeps it off.
        gc.disable()
        env.process(proc())
        env.run()
        assert not gc.isenabled()

        # A run that raises turns it back on too.
        gc.enable()

        def failing():
            yield env.timeout(1.0)
            raise ValueError("boom")

        env.process(failing())
        with pytest.raises(ValueError):
            env.run()
        assert gc.isenabled()
    finally:
        if was_enabled:
            gc.enable()
        else:
            gc.disable()


def test_triggered_condition_leaves_pending_events():
    env = Environment()
    never = env.event()
    winner = env.timeout(1.0)
    condition = env.any_of([never, winner])
    env.run()
    assert condition.processed and condition.value == {winner: None}
    # The event that never fires holds no reference back to the condition.
    assert never.callbacks == []


def run_bounded_waits(bounded):
    """300 processes each wait on a signal bounded by a timeout.

    Two signals in three come within a second (one in five of those
    fails instead of succeeding) and are bounded by 9 s, the latest time
    anything is queued for; the rest never come and time out at 5 s.
    Returns each wake-up as (time, waiter, outcome), the clock once the
    queue drained, and the queue's length when the last waiter to beat
    its timeout woke.
    """
    env = Environment()
    trail = []
    depths = []

    def waiter(i):
        signal = env.event()

        def fire():
            yield env.timeout(0.5 + (i % 7) * 0.1)
            if i % 5:
                signal.succeed(i)
            else:
                signal.fail(ValueError(i))

        if i % 3:
            env.process(fire())
        try:
            outcome = yield bounded(env, signal, 9.0 if i % 3 else 5.0)
            trail.append((env.now, i, sorted(repr(v) for v in outcome.values())))
        except ValueError as exc:
            trail.append((env.now, i, repr(exc)))
        if env.now < 5.0:
            depths.append(len(env._queue))

    for i in range(300):
        env.process(waiter(i))
    env.run()
    return trail, env.now, depths[-1]


def test_deadline_is_any_of_with_its_own_timeout():
    """Same wake-ups, values and final clock as ``any_of([event, timeout])``,
    with the timeouts of the waits that ended early cancelled and
    compacted out of the queue."""
    trail, now, depth = run_bounded_waits(
        lambda env, event, delay: env.any_of([event, env.timeout(delay)])
    )
    bounded_trail, bounded_now, bounded_depth = run_bounded_waits(
        lambda env, event, delay: env.deadline(event, delay)
    )
    assert bounded_trail == trail
    assert bounded_now == now == 9.0
    assert sum(1 for t, _i, _o in trail if t < 5.0) == 200
    assert bounded_depth < depth / 2


def test_compacting_cancelled_timeouts_keeps_what_the_queue_holds():
    """Waits decided at once cancel their timeouts, and the queue is
    compacted as they pile up.  A timeout queued before anyone waits on
    it still fires, and a drained run still ends at the latest time
    anything was queued for, cancelled or not."""
    env = Environment()
    done = env.event()
    done.succeed()
    env.run()
    late = env.timeout(100.0)
    depths = []
    woke = []

    def waits():
        for delay in range(128, 0, -1):
            yield env.deadline(done, float(delay))
            depths.append(len(env._queue))
        yield late
        woke.append(env.now)

    env.process(waits())
    env.run()
    assert woke == [100.0]
    assert env.now == 128.0
    assert max(depths) <= 66
